#include "oracles/per_session_master.h"

#include <algorithm>

#include "ldap/error.h"

namespace fbdr::oracles {

using ldap::ProtocolError;
using resync::EntryPdu;
using resync::Mode;
using resync::ReconcileResponse;
using resync::ReSyncControl;
using resync::ReSyncResponse;

PerSessionMaster::PerSessionMaster(server::DirectoryServer& master)
    : master_(&master), last_pumped_seq_(master.journal().last_seq()) {}

PerSessionMaster::CookieParts PerSessionMaster::parse_cookie(
    const std::string& cookie) {
  CookieParts parts;
  const std::size_t hash = cookie.rfind('#');
  if (hash == std::string::npos) {
    parts.id = cookie;
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

std::string PerSessionMaster::make_cookie(const std::string& id,
                                          std::uint64_t seq) {
  return id + "#" + std::to_string(seq);
}

void PerSessionMaster::account(const std::vector<EntryPdu>& pdus) {
  for (const EntryPdu& pdu : pdus) {
    if (pdu.entry) {
      traffic_.count_entry(pdu.approx_bytes());
    } else {
      traffic_.count_dn(pdu.approx_bytes());
    }
  }
}

ReSyncResponse PerSessionMaster::busy() {
  ++governor_.stats().sessions_rejected_busy;
  ReSyncResponse response;
  response.busy = true;
  response.origin_time = clock_.now();
  return response;
}

ReSyncResponse PerSessionMaster::handle(const ldap::Query& query,
                                        const ReSyncControl& control) {
  traffic_.count_round_trip();
  if (control.mode == Mode::SyncEnd) {
    if (!control.initial()) {
      const CookieParts parts = parse_cookie(control.cookie);
      if (pending_reconciles_.erase(parts.id) == 0) sessions_.erase(parts.id);
    }
    return {};
  }

  ReSyncResponse response;
  std::string id;
  Session* session = nullptr;
  if (control.initial()) {
    if (control.reconcile && control.reconcile->round == 1) {
      return reconcile_round1(query, control);
    }
    if (!governor_.admits(session_count() + pending_reconciles())) return busy();
    catch_up();
    auto qs = std::make_unique<QuerySession>(query, master_->schema());
    const UpdateBatch batch = qs->initial(master_->dit());
    session = &adopt(std::move(qs), control.mode, id);
    paginate(*session, resync::to_pdus(batch), true, false, response);
    response.cookie = make_cookie(id, session->next_seq);
  } else {
    const CookieParts parts = parse_cookie(control.cookie);
    if (!parts.has_seq) {
      throw ldap::StaleCookieError("legacy resync cookie '" + control.cookie +
                                   "' has no sequence number");
    }
    id = parts.id;
    const auto pit = pending_reconciles_.find(id);
    if (pit != pending_reconciles_.end()) {
      return reconcile_round2(pit->second, parts, control);
    }
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw ldap::StaleCookieError("unknown or expired resync cookie '" +
                                   control.cookie + "'");
    }
    session = &it->second;
    if (parts.seq != 0 && parts.seq == session->last_seq) {
      ++replays_;
      session->last_active = clock_.now();
      if (!session->replay_stripped) {
        account(session->last_response.pdus);
        session->last_response.origin_time = clock_.now();
        return session->last_response;
      }
      ReSyncResponse fresh;
      paginate(*session,
               resync::to_pdus(session->session->snapshot_enumeration()), false,
               true, fresh);
      fresh.cookie = make_cookie(id, session->next_seq);
      fresh.persistent = session->mode == Mode::Persist;
      fresh.origin_time = clock_.now();
      account(fresh.pdus);
      cache_response(*session, fresh);
      return fresh;
    }
    if (parts.seq != session->next_seq) {
      throw ProtocolError("out-of-sequence resync cookie '" + control.cookie +
                          "' (expected seq " +
                          std::to_string(session->next_seq) + ")");
    }
    session->mode = control.mode;
    if (session->overflow_pos < session->overflow.size()) {
      serve_overflow(*session, response);
    } else {
      const UpdateBatch batch = session->session->degraded()
                                    ? session->session->poll_with_retains()
                                    : session->session->poll();
      paginate(*session, resync::to_pdus(batch), false,
               batch.complete_enumeration, response);
    }
    session->last_seq = parts.seq;
    session->next_seq = parts.seq + 1;
    response.cookie = make_cookie(id, session->next_seq);
  }
  finalize(*session, control, response);
  return response;
}

void PerSessionMaster::finalize(Session& session, const ReSyncControl& control,
                                ReSyncResponse& response) {
  session.last_active = clock_.now();
  account(response.pdus);
  response.origin_time = clock_.now();
  response.persistent = control.mode == Mode::Persist;
  session.current_cookie = response.cookie;
  cache_response(session, response);
}

PerSessionMaster::Session& PerSessionMaster::adopt(
    std::unique_ptr<QuerySession> qs, Mode mode, std::string& id) {
  id = "rs-" + std::to_string(++cookie_counter_);
  Session fresh;
  fresh.session = std::move(qs);
  fresh.mode = mode;
  fresh.last_active = clock_.now();
  return sessions_.emplace(id, std::move(fresh)).first->second;
}

void PerSessionMaster::catch_up() {
  if (master_->journal().last_seq() != last_pumped_seq_) pump();
}

std::size_t PerSessionMaster::pending_reconciles() const {
  return static_cast<std::size_t>(std::count_if(
      pending_reconciles_.begin(), pending_reconciles_.end(),
      [](const auto& entry) { return !entry.second.completed; }));
}

ReSyncResponse PerSessionMaster::reconcile_fallback(
    std::unique_ptr<QuerySession> qs, const ReSyncControl& control) {
  ++governor_.stats().reconcile_fallbacks;
  const UpdateBatch batch = qs->full_content_batch();
  std::string id;
  Session& session = adopt(std::move(qs), control.mode, id);
  ReSyncResponse response;
  auto rec = std::make_shared<ReconcileResponse>();
  rec->fallback = true;
  response.reconcile = std::move(rec);
  paginate(session, resync::to_pdus(batch), true, false, response);
  response.cookie = make_cookie(id, session.next_seq);
  finalize(session, control, response);
  return response;
}

ReSyncResponse PerSessionMaster::reconcile_round1(const ldap::Query& query,
                                                  const ReSyncControl& control) {
  if (!governor_.admits(session_count() + pending_reconciles())) return busy();
  ++governor_.stats().reconcile_walks;
  catch_up();
  auto qs = std::make_unique<QuerySession>(query, master_->schema());
  qs->prepare(master_->dit());
  const resync::ReconcileRequest& offer = *control.reconcile;

  const std::size_t walk_cap = governor_.limits().max_pending_reconciles;
  if (walk_cap != 0 && pending_reconciles() >= walk_cap) {
    return reconcile_fallback(std::move(qs), control);
  }
  const sync::ContentDigest& mine = qs->tracker().digest();
  if (offer.root_digest == mine.root() &&
      offer.entry_count == mine.entry_count()) {
    ++governor_.stats().reconciles_completed;
    std::string id;
    Session& session = adopt(std::move(qs), control.mode, id);
    ReSyncResponse response;
    auto rec = std::make_shared<ReconcileResponse>();
    rec->in_sync = true;
    response.reconcile = std::move(rec);
    response.cookie = make_cookie(id, session.next_seq);
    finalize(session, control, response);
    return response;
  }
  std::map<std::uint32_t, resync::DigestPdu> theirs;
  for (const resync::DigestPdu& bucket : offer.buckets) {
    theirs[bucket.bucket] = bucket;
  }
  std::vector<std::uint32_t> need;
  std::uint64_t estimate = 0;
  for (const resync::DigestPdu& bucket : mine.bucket_digests()) {
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
  const std::uint64_t total = std::max<std::uint64_t>(
      std::max<std::uint64_t>(mine.entry_count(), offer.entry_count), 1);
  if (static_cast<double>(estimate) >
      reconcile_fallback_fraction_ * static_cast<double>(total)) {
    return reconcile_fallback(std::move(qs), control);
  }
  const std::string rcid = "rc-" + std::to_string(++reconcile_counter_);
  PendingReconcile pending;
  pending.session = std::move(qs);
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
  pending_reconciles_.emplace(rcid, std::move(pending));
  return response;
}

ReSyncResponse PerSessionMaster::reconcile_round2(PendingReconcile& pending,
                                                  const CookieParts& parts,
                                                  const ReSyncControl& control) {
  if (parts.seq != 0 && parts.seq == pending.last_seq) {
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
  const UpdateBatch diff = pending.session->diff_batch(
      control.reconcile->fingerprints, pending.need_buckets);
  const std::size_t shipped =
      diff.adds.size() + diff.mods.size() + diff.deletes.size();
  std::string id;
  Session& session = adopt(std::move(pending.session), control.mode, id);
  ReSyncResponse response;
  response.reconcile = std::make_shared<ReconcileResponse>();
  paginate(session, resync::to_pdus(diff), false, false, response);
  response.cookie = make_cookie(id, session.next_seq);
  finalize(session, control, response);
  ++governor_.stats().reconciles_completed;
  governor_.stats().reconcile_entries_shipped += shipped;
  pending.last_seq = parts.seq;
  pending.completed = true;
  pending.last_response = response;
  pending.last_active = clock_.now();
  return response;
}

void PerSessionMaster::paginate(Session& session, std::vector<EntryPdu> pdus,
                                bool full_reload, bool complete_enumeration,
                                ReSyncResponse& response) {
  response.full_reload = full_reload;
  response.complete_enumeration = complete_enumeration;
  const std::size_t page = governor_.page_size();
  if (page == 0 || pdus.size() <= page) {
    response.pdus = std::move(pdus);
    return;
  }
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

void PerSessionMaster::serve_overflow(Session& session,
                                      ReSyncResponse& response) {
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
    session.overflow_pos = 0;
  }
  ++governor_.stats().pages_served;
}

void PerSessionMaster::cache_response(Session& session,
                                      const ReSyncResponse& response) {
  session.last_response = response;
  session.replay_stripped = false;
  session.replay_bytes = 0;
  for (const EntryPdu& pdu : response.pdus) {
    if (pdu.entry) session.replay_bytes += pdu.approx_bytes();
  }
  if (governor_.over_replay_bytes(session.replay_bytes) &&
      session.overflow_pos >= session.overflow.size()) {
    session.last_response.pdus.clear();
    session.replay_bytes = 0;
    session.replay_stripped = true;
    ++governor_.stats().replay_caches_stripped;
  }
}

void PerSessionMaster::set_resource_limits(const resync::ResourceLimits& limits) {
  governor_.set_limits(limits);
  master_->journal().set_retention(limits.journal_retention_records);
}

void PerSessionMaster::enforce_session_history(Session& session) {
  if (session.mode != Mode::Poll) return;
  QuerySession& qs = *session.session;
  if (!governor_.over_session_history(qs.history_units())) return;
  if (!qs.degraded()) {
    qs.degrade();
    ++governor_.stats().sessions_degraded;
  }
  if (governor_.over_session_history(qs.history_units()) &&
      !qs.history_collapsed()) {
    qs.collapse_history();
    ++governor_.stats().histories_collapsed;
  }
}

void PerSessionMaster::enforce_global_history() {
  std::size_t total = history_units();
  if (!governor_.over_total_history(total)) return;
  std::vector<std::pair<const std::string*, Session*>> victims;
  for (auto& [id, session] : sessions_) {
    if (session.mode == Mode::Poll && session.session->history_units() > 0) {
      victims.emplace_back(&id, &session);
    }
  }
  // Largest first, ties by session id.
  std::stable_sort(victims.begin(), victims.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->session->history_units() >
                            b.second->session->history_units();
                   });
  for (const auto& [id, victim] : victims) {
    if (!governor_.over_total_history(total)) break;
    QuerySession& qs = *victim->session;
    std::size_t units = qs.history_units();
    if (!qs.degraded()) {
      qs.degrade();
      ++governor_.stats().sessions_degraded;
      total = total - units + qs.history_units();
      units = qs.history_units();
    }
    if (governor_.over_total_history(total) && !qs.history_collapsed()) {
      qs.collapse_history();
      ++governor_.stats().histories_collapsed;
      total -= units;
    }
  }
}

void PerSessionMaster::pump() {
  const bool gap = master_->journal().trimmed_up_to() > last_pumped_seq_;
  std::vector<const server::ChangeRecord*> records;
  if (!gap) records = master_->journal().since(last_pumped_seq_);
  for (auto& [id, session] : sessions_) {
    std::vector<sync::ContentEvent> events;
    if (gap) {
      events = session.session->rebase(master_->dit());
      ++governor_.stats().compaction_rebases;
      if (!events.empty()) session.dirty = true;
    } else {
      for (const server::ChangeRecord* record : records) {
        if (!session.session->on_change(*record).empty()) session.dirty = true;
      }
    }
    if (session.dirty) enforce_session_history(session);
  }
  // Walks between rounds follow the journal too (not governed, not counted).
  for (auto& [id, pending] : pending_reconciles_) {
    if (pending.completed) continue;
    if (gap) {
      pending.session->rebase(master_->dit());
    } else {
      for (const server::ChangeRecord* record : records) {
        pending.session->on_change(*record);
      }
    }
  }
  last_pumped_seq_ = master_->journal().last_seq();

  for (auto& [id, session] : sessions_) {  // session-id order
    if (!session.dirty) continue;
    session.dirty = false;
    if (session.mode != Mode::Persist) continue;
    const UpdateBatch batch = session.session->poll();
    if (batch.empty()) continue;
    const std::vector<EntryPdu> pdus = resync::to_pdus(batch);
    account(pdus);
    session.last_active = clock_.now();
    if (sink_) sink_(session.current_cookie, pdus);
  }
  enforce_global_history();
}

void PerSessionMaster::tick(std::uint64_t delta) {
  clock_.advance(delta);
  const std::uint64_t limit = governor_.effective_deadline(time_limit_);
  if (limit == 0) return;
  std::erase_if(pending_reconciles_, [&](const auto& entry) {
    return clock_.now() - entry.second.last_active > limit;
  });
  const std::uint64_t deadline = governor_.limits().poll_deadline_ticks;
  std::erase_if(sessions_, [&](const auto& entry) {
    const Session& session = entry.second;
    const std::uint64_t idle = clock_.now() - session.last_active;
    if (session.mode != Mode::Poll || idle <= limit) return false;
    if (deadline != 0 && idle > deadline) ++governor_.stats().sessions_evicted;
    return true;
  });
}

void PerSessionMaster::reset() {
  sessions_.clear();
  pending_reconciles_.clear();
  last_pumped_seq_ = master_->journal().last_seq();
}

void PerSessionMaster::abandon(const std::string& cookie) {
  sessions_.erase(parse_cookie(cookie).id);
}

std::size_t PerSessionMaster::open_connections() const {
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.mode == Mode::Persist;
      }));
}

std::size_t PerSessionMaster::history_size() const {
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) {
    total += session.session->pending_events();
  }
  return total;
}

std::size_t PerSessionMaster::history_units() const {
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) {
    total += session.session->history_units();
  }
  return total;
}

std::size_t PerSessionMaster::replay_cache_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, session] : sessions_) total += session.replay_bytes;
  return total;
}

std::size_t PerSessionMaster::degraded_sessions() const {
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second.session->degraded();
      }));
}

}  // namespace fbdr::oracles
