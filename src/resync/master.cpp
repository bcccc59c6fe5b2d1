#include "resync/master.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ldap/error.h"

namespace fbdr::resync {

using ldap::ProtocolError;

ReSyncMaster::ReSyncMaster(server::DirectoryServer& master)
    : master_(&master),
      last_pumped_seq_(master.journal().last_seq()) {
  shards_.push_back(std::make_unique<Shard>(master.schema()));
}

std::string ReSyncMaster::new_session_id() {
  return "rs-" + std::to_string(++cookie_counter_);
}

ReSyncMaster::Shard& ReSyncMaster::shard_for(const std::string& key) {
  if (shards_.size() == 1) return *shards_.front();
  // FNV-1a: stable across builds and platforms, so a given group key lands
  // on the same shard in every run.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return *shards_[hash % shards_.size()];
}

void ReSyncMaster::set_pump_shards(std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards == shards_.size()) return;
  if (session_count() + pending_reconciles() != 0) {
    throw std::logic_error(
        "set_pump_shards: cannot repartition with live sessions");
  }
  shards_.clear();
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(master_->schema()));
  }
}

void ReSyncMaster::set_pump_threads(std::size_t threads) {
  pump_threads_ = threads;
  if (threads == 0) {
    pool_.reset();
  }
  // A pool of the new size is (re)created lazily on the next pump().
}

void ReSyncMaster::run_on_shards(const std::function<void(Shard&)>& fn) {
  if (pump_threads_ == 0 || shards_.size() <= 1) {
    for (const std::unique_ptr<Shard>& shard : shards_) fn(*shard);
    return;
  }
  if (!pool_ || pool_->thread_count() != pump_threads_) {
    pool_ = std::make_unique<PumpPool>(pump_threads_);
  }
  pool_->run(shards_.size(),
             [&](std::size_t index) { fn(*shards_[index]); });
}

ReSyncMaster::CookieParts ReSyncMaster::parse_cookie(const std::string& cookie) {
  CookieParts parts;
  const std::size_t hash = cookie.rfind('#');
  if (hash == std::string::npos) {
    parts.id = cookie;  // legacy/foreign cookie: no sequence number
    return parts;
  }
  parts.id = cookie.substr(0, hash);
  try {
    parts.seq = std::stoull(cookie.substr(hash + 1));
  } catch (const std::exception&) {
    throw ProtocolError("malformed resync cookie '" + cookie + "'");
  }
  parts.has_seq = true;
  return parts;
}

std::string ReSyncMaster::make_cookie(const std::string& id, std::uint64_t seq) {
  return id + "#" + std::to_string(seq);
}

void ReSyncMaster::account(const std::vector<EntryPdu>& pdus) {
  for (const EntryPdu& pdu : pdus) {
    if (pdu.entry) {
      traffic_.count_entry(pdu.approx_bytes());
    } else {
      traffic_.count_dn(pdu.approx_bytes());
    }
  }
}

ReSyncResponse ReSyncMaster::busy() {
  ++governor_.stats().sessions_rejected_busy;
  ReSyncResponse response;
  response.busy = true;
  response.origin_time = clock_.now();
  return response;
}

ReSyncResponse ReSyncMaster::handle(const ldap::Query& query,
                                    const ReSyncControl& control) {
  traffic_.count_round_trip();

  if (control.mode == Mode::SyncEnd) {
    if (!control.initial()) {
      const CookieParts parts = parse_cookie(control.cookie);
      const auto pit = pending_reconciles_.find(parts.id);
      if (pit != pending_reconciles_.end()) {
        end_walk(pit->second);
        pending_reconciles_.erase(pit);
        return {};
      }
      drop_session(parts.id);
    }
    return {};
  }

  if (control.initial()) {
    if (control.reconcile && reconcile_enabled_ &&
        control.reconcile->round == 1) {
      // The replica offers digests instead of accepting a full reload.
      return handle_reconcile_round1(query, control);
    }
    // Admission control: past the session cap no session is created; the
    // client sees a protocol-level busy result and retries with backoff.
    // (A master with reconciliation disabled lands here even for reconcile
    // offers: the response carries no reconcile field, which tells the
    // client the peer does not speak reconciliation.)
    if (!governor_.admits(session_count() + pending_reconciles())) return busy();
    // (i) Initial request: join the query's group and send its whole
    // content — only the group's first session scans the DIT.
    Group& group = join_group(query);
    return open_session(group, control, to_pdus(group.filter.content_batch()),
                        /*full_reload=*/true, nullptr);
  }
  // (ii) The cookie identifies the session and carries the poll sequence
  // number; send accumulated updates.
  const CookieParts parts = parse_cookie(control.cookie);
  if (!parts.has_seq) {
    // A '#'-less cookie predates replay-safe sequence numbering (or came
    // from another server). Treating it as seq 0 would bypass the replay
    // cache and then fail the sequence check with a confusing
    // out-of-sequence error; reject it as stale so the replica falls back
    // to a full reload.
    throw ldap::StaleCookieError("legacy resync cookie '" + control.cookie +
                                 "' has no sequence number");
  }
  // Reconciliation walk cookies ("rc-<n>#<seq>") live in their own
  // namespace and never collide with session ids.
  const auto pit = pending_reconciles_.find(parts.id);
  if (pit != pending_reconciles_.end()) {
    return handle_reconcile_round2(pit->second, parts, control);
  }
  const auto it = sessions_.find(parts.id);
  if (it == sessions_.end()) {
    throw ldap::StaleCookieError("unknown or expired resync cookie '" +
                                 control.cookie + "'");
  }
  Session& session = it->second;
  if (parts.seq != 0 && parts.seq == session.last_seq) {
    // Duplicated or retried poll: answer from the replay cache. Session
    // history is untouched — the updates it carried are neither shipped a
    // second time into the replica's future nor lost.
    ++replays_;
    session.last_active = clock_.now();
    if (!session.replay_stripped) {
      account(session.last_response.pdus);  // retransmission is wire traffic
      // Re-stamp the origin: handing back the stamp of the original
      // exchange would roll a downstream relay's root-time view backwards
      // and inflate its reported lag. The replay consumed no history, so a
      // fresh stamp is safe — anything newer still sits in the session
      // history and ships on the next genuine poll.
      session.last_response.origin_time = clock_.now();
      return session.last_response;
    }
    // The cached bodies were stripped under the replay-byte budget, so a
    // verbatim replay is impossible. A complete enumeration of the current
    // content converges the replica instead, whether or not it applied the
    // original response (any newer change still sits in the session
    // history and ships as an idempotent delta on the next genuine poll).
    // Sequence state is untouched: this re-answers the same seq.
    ReSyncResponse fresh;
    paginate(session, to_pdus(session.group->filter.content_batch()),
             /*full_reload=*/false, /*complete_enumeration=*/true, fresh);
    fresh.cookie = make_cookie(session.id, session.next_seq);
    fresh.persistent = session.mode == Mode::Persist;
    fresh.origin_time = clock_.now();
    account(fresh.pdus);
    cache_response(session, fresh);
    return fresh;
  }
  if (parts.seq != session.next_seq) {
    throw ProtocolError("out-of-sequence resync cookie '" + control.cookie +
                        "' (expected seq " + std::to_string(session.next_seq) +
                        ")");
  }
  session.mode = control.mode;
  ReSyncResponse response;
  if (session.overflow_pos < session.overflow.size()) {
    // Drain the continuation pages of the previous logical batch before
    // computing anything new.
    serve_overflow(session, response);
  } else {
    const sync::UpdateBatch batch = session.group->filter.poll(session.cursor);
    paginate(session, to_pdus(batch), /*full_reload=*/false,
             batch.complete_enumeration, response);
  }
  session.last_seq = parts.seq;
  session.next_seq = parts.seq + 1;
  response.cookie = make_cookie(session.id, session.next_seq);

  // (iii) Persist: the connection stays open for pushed notifications.
  // (iv) Poll: the returned cookie resumes the session.
  finalize(session, control, response);
  return response;
}

void ReSyncMaster::finalize(Session& session, const ReSyncControl& control,
                            ReSyncResponse& response) {
  session.last_active = clock_.now();
  account(response.pdus);
  // The root of a distribution tree is its own origin: the shipped state is
  // current as of this master's clock. Relays overwrite the stamp with the
  // root time learned on their last upstream sync.
  response.origin_time = clock_.now();
  response.persistent = control.mode == Mode::Persist;
  session.current_cookie = response.cookie;
  cache_response(session, response);
}

ReSyncMaster::Group& ReSyncMaster::join_group(const ldap::Query& query) {
  // Pump what is still unpumped first: every group's content is then the
  // DIT's, so a joiner sees exactly what a fresh scan would and a new group
  // is never fed a record its scan already reflects.
  if (master_->journal().last_seq() != last_pumped_seq_) pump();
  const std::string key = sync::FilterGroup::key_of(query, master_->schema());
  const auto it = groups_by_key_.find(key);
  if (it != groups_by_key_.end()) return *it->second;
  Shard& shard = shard_for(key);
  auto group = std::make_unique<Group>(query, master_->schema());
  group->filter.initialize(master_->dit());
  group->key = key;
  // Register with the shard's change router and seed its holder mirror from
  // the tracked content.
  group->route = shard.router.add_session(
      query, &group->filter.tracker().compiled_filter());
  for (const auto& [entry_key, entry] : group->filter.tracker().content()) {
    shard.router.note_enter(group->route, entry_key);
  }
  const sync::ChangeRouter::Handle route = group->route;
  Group& joined = *(shard.groups[route] = std::move(group));
  groups_by_key_.emplace(key, &joined);
  return joined;
}

void ReSyncMaster::release_group(Group& group) {
  if (group.filter.cursors() != 0) return;
  Shard& shard = shard_for(group.key);
  for (const auto& [key, entry] : group.filter.tracker().content()) {
    shard.router.note_leave(group.route, key);
  }
  shard.router.remove_session(group.route);
  groups_by_key_.erase(group.key);
  shard.groups.erase(group.route);
}

void ReSyncMaster::drop_session(const std::string& id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  Group& group = *session.group;
  group.filter.detach(session.cursor);
  std::erase(group.members, &session);
  sessions_.erase(it);
  release_group(group);
  // Any expiry node for the session is discarded lazily by tick().
}

void ReSyncMaster::end_walk(PendingReconcile& pending) {
  Group* group = std::exchange(pending.group, nullptr);
  if (group == nullptr) return;
  group->filter.detach(pending.cursor);
  release_group(*group);
}

std::size_t ReSyncMaster::pending_reconciles() const {
  return static_cast<std::size_t>(std::count_if(
      pending_reconciles_.begin(), pending_reconciles_.end(),
      [](const auto& entry) { return !entry.second.completed; }));
}

ReSyncResponse ReSyncMaster::open_session(
    Group& group, const ReSyncControl& control, std::vector<EntryPdu> pdus,
    bool full_reload, std::shared_ptr<ReconcileResponse> reconcile) {
  const std::string id = new_session_id();
  Session& session = sessions_[id];
  session.id = id;
  session.mode = control.mode;
  session.group = &group;
  group.members.push_back(&session);
  group.filter.attach(session.cursor);  // at the log end: holds the content
  expiry_.emplace(clock_.now(), id);
  ReSyncResponse response;
  response.reconcile = std::move(reconcile);
  paginate(session, std::move(pdus), full_reload,
           /*complete_enumeration=*/false, response);
  response.cookie = make_cookie(session.id, session.next_seq);
  finalize(session, control, response);
  return response;
}

ReSyncResponse ReSyncMaster::reconcile_fallback(Group& group,
                                                const ReSyncControl& control) {
  ++governor_.stats().reconcile_fallbacks;
  auto rec = std::make_shared<ReconcileResponse>();
  rec->fallback = true;
  return open_session(group, control, to_pdus(group.filter.content_batch()),
                      /*full_reload=*/true, std::move(rec));
}

ReSyncResponse ReSyncMaster::handle_reconcile_round1(
    const ldap::Query& query, const ReSyncControl& control) {
  // A live (incomplete) walk holds a cursor like a session would; it counts
  // against the session cap.
  if (!governor_.admits(session_count() + pending_reconciles())) return busy();
  ++governor_.stats().reconcile_walks;
  Group& group = join_group(query);
  const ReconcileRequest& offer = *control.reconcile;

  // Walk cap: rather than holding more walks, ship it all.
  const std::size_t walk_cap = governor_.limits().max_pending_reconciles;
  if (walk_cap != 0 && pending_reconciles() >= walk_cap) {
    return reconcile_fallback(group, control);
  }

  const sync::ContentDigest& mine = group.filter.tracker().digest();
  if (offer.root_digest == mine.root() &&
      offer.entry_count == mine.entry_count()) {
    // Roots match: the replica already holds the exact content.
    ++governor_.stats().reconciles_completed;
    auto rec = std::make_shared<ReconcileResponse>();
    rec->in_sync = true;
    return open_session(group, control, {}, /*full_reload=*/false,
                        std::move(rec));
  }

  // Compare per-bucket digests; every mismatched or one-sided bucket is
  // divergent. The entry counts bound how much round 2 could ship.
  std::map<std::uint32_t, DigestPdu> theirs;
  for (const DigestPdu& bucket : offer.buckets) theirs[bucket.bucket] = bucket;
  std::vector<std::uint32_t> need;
  std::uint64_t estimate = 0;
  for (const DigestPdu& bucket : mine.bucket_digests()) {
    const auto it = theirs.find(bucket.bucket);
    if (it == theirs.end()) {
      need.push_back(bucket.bucket);
      estimate += bucket.count;
      continue;
    }
    if (it->second.digest != bucket.digest) {
      need.push_back(bucket.bucket);
      estimate += std::max(bucket.count, it->second.count);
    }
    theirs.erase(it);
  }
  for (const auto& [index, bucket] : theirs) {
    need.push_back(index);
    estimate += bucket.count;
  }
  std::sort(need.begin(), need.end());

  // Divergence threshold (DESIGN.md §12): past it, the walk would ship
  // digests plus most of the content anyway — fall back to the reload.
  const std::uint64_t total =
      std::max<std::uint64_t>(std::max<std::uint64_t>(mine.entry_count(),
                                                      offer.entry_count),
                              1);
  if (static_cast<double>(estimate) >
      reconcile_fallback_fraction_ * static_cast<double>(total)) {
    return reconcile_fallback(group, control);
  }

  // Hold the walk on a group cursor; round 2 brings fingerprints for exactly
  // these buckets.
  const std::string rcid = "rc-" + std::to_string(++reconcile_counter_);
  PendingReconcile& pending = pending_reconciles_[rcid];
  pending.group = &group;
  pending.cursor.governed = false;
  group.filter.attach(pending.cursor);
  pending.mode = control.mode;
  pending.need_buckets = need;
  pending.last_active = clock_.now();
  ReSyncResponse response;
  auto rec = std::make_shared<ReconcileResponse>();
  rec->need_buckets = std::move(need);
  response.reconcile = std::move(rec);
  response.cookie = make_cookie(rcid, pending.expected_seq);
  response.origin_time = clock_.now();
  pending.last_response = response;
  return response;
}

ReSyncResponse ReSyncMaster::handle_reconcile_round2(
    PendingReconcile& pending, const CookieParts& parts,
    const ReSyncControl& control) {
  if (parts.seq != 0 && parts.seq == pending.last_seq) {
    // Duplicated/retried round-2 request: re-answer from the walk's replay
    // cache. The promoted session's state is untouched, so the walk cannot
    // be corrupted by retransmissions.
    ++replays_;
    pending.last_active = clock_.now();
    account(pending.last_response.pdus);
    pending.last_response.origin_time = clock_.now();
    return pending.last_response;
  }
  if (pending.completed || parts.seq != pending.expected_seq) {
    throw ProtocolError("out-of-sequence reconcile cookie '" + control.cookie +
                        "' (expected seq " +
                        std::to_string(pending.expected_seq) + ")");
  }
  if (!control.reconcile || control.reconcile->round != 2) {
    throw ProtocolError("reconcile cookie '" + control.cookie +
                        "' requires round-2 fingerprints");
  }
  Group& group = *pending.group;
  const sync::UpdateBatch diff = group.filter.diff_batch(
      pending.cursor, control.reconcile->fingerprints, pending.need_buckets);
  const std::size_t shipped =
      diff.adds.size() + diff.mods.size() + diff.deletes.size();
  // An all-false reconcile field marks "here is your diff".
  const ReSyncResponse response =
      open_session(group, control, to_pdus(diff), /*full_reload=*/false,
                   std::make_shared<ReconcileResponse>());
  end_walk(pending);
  ++governor_.stats().reconciles_completed;
  governor_.stats().reconcile_entries_shipped += shipped;
  pending.last_seq = parts.seq;
  pending.completed = true;
  pending.last_response = response;
  pending.last_active = clock_.now();
  return response;
}

void ReSyncMaster::paginate(Session& session, std::vector<EntryPdu> pdus,
                            bool full_reload, bool complete_enumeration,
                            ReSyncResponse& response) {
  response.full_reload = full_reload;
  response.complete_enumeration = complete_enumeration;
  const std::size_t page = governor_.page_size();
  if (page == 0 || pdus.size() <= page) {
    response.pdus = std::move(pdus);
    return;
  }
  // Spill the tail into the session's overflow queue; later polls drain it
  // page by page under the ordinary replay-safe cookie sequence. The
  // completeness flags ride along on every page; appliers act on them only
  // once the final page (`more == false`) arrived.
  session.overflow.assign(pdus.begin() + static_cast<std::ptrdiff_t>(page),
                          pdus.end());
  session.overflow_pos = 0;
  session.overflow_enum = complete_enumeration;
  session.overflow_reload = full_reload;
  pdus.resize(page);
  response.pdus = std::move(pdus);
  response.more = true;
  ++governor_.stats().pages_served;
}

void ReSyncMaster::serve_overflow(Session& session, ReSyncResponse& response) {
  const std::size_t page = governor_.page_size();
  const std::size_t remaining = session.overflow.size() - session.overflow_pos;
  const std::size_t take = page == 0 ? remaining : std::min(page, remaining);
  const auto first = session.overflow.begin() +
                     static_cast<std::ptrdiff_t>(session.overflow_pos);
  response.pdus.assign(first, first + static_cast<std::ptrdiff_t>(take));
  session.overflow_pos += take;
  response.continued = true;
  response.full_reload = session.overflow_reload;
  response.complete_enumeration = session.overflow_enum;
  if (session.overflow_pos < session.overflow.size()) {
    response.more = true;
  } else {
    session.overflow.clear();
    session.overflow.shrink_to_fit();
    session.overflow_pos = 0;
  }
  ++governor_.stats().pages_served;
}

void ReSyncMaster::cache_response(Session& session,
                                  const ReSyncResponse& response) {
  session.last_response = response;
  session.replay_stripped = false;
  session.replay_bytes = 0;
  for (const EntryPdu& pdu : response.pdus) {
    if (pdu.entry) session.replay_bytes += pdu.approx_bytes();
  }
  // Retain/delete PDUs carry no bodies and always stay cached; only entry
  // bodies past the budget are stripped (a stripped replay is answered with
  // a fresh snapshot enumeration instead). A batch mid-pagination is never
  // stripped — with paging on, every cached page is page-size-bounded.
  if (governor_.over_replay_bytes(session.replay_bytes) &&
      session.overflow_pos >= session.overflow.size()) {
    session.last_response.pdus.clear();
    session.last_response.pdus.shrink_to_fit();
    session.replay_bytes = 0;
    session.replay_stripped = true;
    ++governor_.stats().replay_caches_stripped;
  }
}

void ReSyncMaster::set_resource_limits(const ResourceLimits& limits) {
  governor_.set_limits(limits);
  master_->journal().set_retention(limits.journal_retention_records);
}

void ReSyncMaster::apply_events(Shard& shard, Group& group,
                                const std::vector<sync::ContentEvent>& events) {
  if (events.empty()) return;
  if (!group.dirty) {
    group.dirty = true;
    shard.dirty.push_back(&group);
  }
  for (const sync::ContentEvent& event : events) {  // Update: no change
    if (event.transition == sync::Transition::Enter) {
      shard.router.note_enter(group.route, event.dn.norm_key());
    } else if (event.transition == sync::Transition::Leave) {
      shard.router.note_leave(group.route, event.dn.norm_key());
    }
  }
  if (governor_.limits().max_session_history == 0) return;
  for (Session* member : group.members) {
    enforce_session_history(*member, shard.delta);
  }
}

void ReSyncMaster::enforce_session_history(Session& session,
                                           GovernorStats& stats) {
  // Persist sessions drain their history on every pump; only poll-session
  // histories accumulate, so only they are degraded. (The push sink also has
  // no complete-enumeration channel, so a degraded persist session could not
  // be answered exactly.)
  if (session.mode != Mode::Poll) return;
  sync::FilterGroup& filter = session.group->filter;
  sync::GroupCursor& cursor = session.cursor;
  if (!governor_.over_session_history(filter.units(cursor))) return;
  if (!cursor.degraded) {
    filter.degrade(cursor);
    ++stats.sessions_degraded;
  }
  // degrade() dedups events into touched keys; if even those blow the
  // budget, collapse to ship-everything mode (zero history cost).
  if (governor_.over_session_history(filter.units(cursor)) &&
      !cursor.collapsed) {
    filter.collapse(cursor);
    ++stats.histories_collapsed;
  }
}

void ReSyncMaster::enforce_global_history() {
  if (governor_.limits().max_total_history == 0) return;
  std::size_t total = history_units();
  if (!governor_.over_total_history(total)) return;
  std::vector<Session*> victims;
  for (auto& [id, session] : sessions_) {
    if (session.mode == Mode::Poll &&
        session.group->filter.units(session.cursor) > 0) {
      victims.push_back(&session);
    }
  }
  // Largest first; ties broken by session id so the victim order (and thus
  // which sessions end up degraded) does not depend on the shard count.
  const auto units = [](const Session* s) {
    return s->group->filter.units(s->cursor);
  };
  std::sort(victims.begin(), victims.end(), [&](Session* a, Session* b) {
    if (units(a) != units(b)) return units(a) > units(b);
    return a->id < b->id;
  });
  for (Session* victim : victims) {
    if (!governor_.over_total_history(total)) break;
    sync::FilterGroup& filter = victim->group->filter;
    std::size_t held = units(victim);
    if (!victim->cursor.degraded) {
      filter.degrade(victim->cursor);
      ++governor_.stats().sessions_degraded;
      total = total - held + units(victim);
      held = units(victim);
    }
    if (governor_.over_total_history(total) && !victim->cursor.collapsed) {
      filter.collapse(victim->cursor);
      ++governor_.stats().histories_collapsed;
      total -= held;
    }
  }
}

void ReSyncMaster::pump() {
  const bool gap = master_->journal().trimmed_up_to() > last_pumped_seq_;
  std::vector<const server::ChangeRecord*> records;
  if (!gap) records = master_->journal().since(last_pumped_seq_);

  // Parallel phase: every shard consumes the (shared, read-only) journal
  // batch through its own router, cache and groups — or, after a compaction
  // gap, rebases its groups from the DIT. No state outside the shard is
  // written; governor counters accumulate in the shard delta.
  run_on_shards([&](Shard& shard) {
    if (gap) {
      // Journal compaction dropped records we never replayed: the gap cannot
      // be reconstructed from the log, so re-anchor every group on the
      // current DIT, once per group. The synthesized diff events flow
      // through the normal log/budget/router paths.
      for (auto& [handle, group] : shard.groups) {
        shard.delta.compaction_rebases += group->members.size();
        apply_events(shard, *group, group->filter.rebase(master_->dit()));
      }
      return;
    }
    std::vector<sync::ChangeRouter::Handle> candidates;
    for (const server::ChangeRecord* record : records) {
      candidates.clear();
      shard.router.route(*record, candidates, &shard.cache);
      for (const sync::ChangeRouter::Handle handle : candidates) {
        Group& group = *shard.groups.at(handle);
        apply_events(shard, group, group.filter.on_change(*record, &shard.cache));
      }
    }
  });
  if (gap) {
    last_pumped_seq_ = master_->journal().last_seq();
  } else if (!records.empty()) {
    last_pumped_seq_ = records.back()->seq;
  }

  // Barrier: fold the parallel-phase governor counters.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    governor_.stats().merge(shard->delta);
    shard->delta = GovernorStats{};
  }

  // Serial phase. Push accumulated updates on persist connections
  // immediately — only members of groups some record actually touched are
  // visited (O(dirty), not O(sessions)). The global push order is sorted by
  // session id, independent of the shard count.
  std::vector<Session*> pushes;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (Group* group : shard->dirty) {
      group->dirty = false;
      for (Session* member : group->members) {
        if (member->mode == Mode::Persist) pushes.push_back(member);
      }
    }
    shard->dirty.clear();
  }
  std::sort(pushes.begin(), pushes.end(),
            [](Session* a, Session* b) { return a->id < b->id; });
  for (Session* session : pushes) {
    const sync::UpdateBatch batch = session->group->filter.poll(session->cursor);
    if (batch.empty()) continue;
    const std::vector<EntryPdu> pdus = to_pdus(batch);
    account(pdus);
    session->last_active = clock_.now();
    if (sink_) sink_(session->current_cookie, pdus);
  }
  // Poll sessions kept accumulating: re-check the global budget.
  enforce_global_history();
}

void ReSyncMaster::tick(std::uint64_t delta) {
  clock_.advance(delta);
  const std::uint64_t limit = governor_.effective_deadline(time_limit_);
  if (limit == 0) return;
  // Reconciliation walks whose round 2 never arrived (or whose replay window
  // lapsed) are dropped; the walk cookie goes stale like a session cookie.
  for (auto it = pending_reconciles_.begin();
       it != pending_reconciles_.end();) {
    if (clock_.now() - it->second.last_active > limit) {
      end_walk(it->second);
      it = pending_reconciles_.erase(it);
    } else {
      ++it;
    }
  }
  // (v) Expire idle poll sessions past the admin time limit (or the
  // governor's tighter slow-poller deadline). The expiry queue is ordered by
  // last_active-at-insertion with lazy deletion: only the stalest sessions
  // are examined, instead of scanning all of them.
  while (!expiry_.empty()) {
    const auto front = expiry_.begin();
    if (clock_.now() - front->first <= limit) break;  // rest is fresher
    const std::string id = front->second;
    const std::uint64_t queued = front->first;
    expiry_.erase(front);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;  // dropped since insertion
    const Session& session = it->second;
    if (session.mode != Mode::Poll) {
      // Persist sessions hold an open connection and are not expired here;
      // requeue at the current time so they are revisited, not rescanned.
      expiry_.emplace(clock_.now(), id);
      continue;
    }
    if (session.last_active != queued) {
      // Touched since insertion: requeue at the true last-active time.
      expiry_.emplace(session.last_active, id);
      continue;
    }
    const std::uint64_t deadline = governor_.limits().poll_deadline_ticks;
    if (deadline != 0 && clock_.now() - queued > deadline) {
      ++governor_.stats().sessions_evicted;  // governor-caused, not admin
    }
    drop_session(id);
  }
}

void ReSyncMaster::reset() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->router.clear();
    shard->groups.clear();
    shard->cache.clear();
    shard->dirty.clear();
    shard->delta = GovernorStats{};
  }
  sessions_.clear();
  groups_by_key_.clear();
  expiry_.clear();
  pending_reconciles_.clear();
  // The restarted master resumes journal consumption at the tail: sessions
  // created after the restart take their baseline from the DIT anyway.
  last_pumped_seq_ = master_->journal().last_seq();
}

void ReSyncMaster::abandon(const std::string& cookie) {
  drop_session(parse_cookie(cookie).id);
}

sync::ChangeRouter::Stats ReSyncMaster::routing_stats() const {
  sync::ChangeRouter::Stats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total.merge(shard->router.stats());
  }
  return total;
}

std::size_t ReSyncMaster::open_connections() const {
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.mode == Mode::Persist;
      }));
}

std::size_t ReSyncMaster::history_size() const {
  std::size_t total = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.cursor.degraded) total += s.group->filter.units(s.cursor);
  }
  return total;
}

std::size_t ReSyncMaster::history_units() const {
  // Summed per group: each group keeps its cursors' total in O(1).
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [handle, group] : shard->groups) {
      total += group->filter.units();
    }
  }
  return total;
}

std::size_t ReSyncMaster::retained_events() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [handle, group] : shard->groups) {
      total += group->filter.retained();
    }
  }
  return total;
}

std::size_t ReSyncMaster::replay_cache_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) total += session.replay_bytes;
  return total;
}

std::size_t ReSyncMaster::degraded_sessions() const {
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.cursor.degraded;
      }));
}

}  // namespace fbdr::resync
