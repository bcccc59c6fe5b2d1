// Grouped-vs-per-session equivalence twin (DESIGN.md §7): the production
// ReSyncMaster, where sessions of one canonical query are cursors into a
// shared sync::FilterGroup, against oracles::PerSessionMaster, where every
// session keeps its own tracker, history and acknowledged view and is fed
// every record. Both receive the identical seeded workload in lockstep, ten
// sessions per filter (two spellings of one filter share a group), poll and
// persist sessions mixed. After every exchange and every pump/tick barrier
// the two must agree on everything a replica or operator can observe:
// response bytes and cookies, persist pushes in session-id order, session,
// history and degradation aggregates, governor counters and traffic.
//
// Schedules cover transfers, adds, removes and renames; master reset();
// journal-compaction gaps (writes past the retention horizon); sessions
// and walks admitted while records are unpumped (both masters pump first);
// governor pressure (session and
// total history budgets, paging, replay stripping, the poll deadline,
// busy admission); duplicated polls; and reconciliation walks with pumps
// between round 1 and round 2. Every poll replica must end converged on the
// master's content.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ldap/error.h"
#include "oracles/per_session_master.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"
#include "sync/replica_content.h"

namespace fbdr::resync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

constexpr std::size_t kSessionsPerFilter = 10;

std::unique_ptr<server::DirectoryServer> make_directory() {
  auto dir = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  dir->add_context(std::move(context));
  dir->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 40; ++i) {
    dir->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                         {{"objectclass", "person"},
                          {"dept", std::to_string(i % 4 * 25 + 5)},
                          {"title", "t" + std::to_string(i % 3)}}));
  }
  return dir;
}

/// Filter f of the twin, in spelling `variant`: filter 1's two spellings
/// intern to one canonical IR, so their sessions share one group.
Query query_for(std::size_t filter, std::size_t variant) {
  switch (filter) {
    case 0:
      return Query::parse("o=xyz", Scope::Subtree, "(dept=5)");
    case 1:
      return Query::parse("o=xyz", Scope::Subtree,
                          variant % 2 == 0 ? "(&(objectclass=person)(dept=30))"
                                           : "(&(dept=30)(objectclass=person))");
    default:
      return Query::parse("o=xyz", Scope::Subtree, "(|(dept=55)(title=t1))");
  }
}

std::string fingerprint(const ReSyncResponse& response) {
  std::ostringstream out;
  out << "cookie=" << response.cookie << " persistent=" << response.persistent
      << " full=" << response.full_reload
      << " enum=" << response.complete_enumeration << " busy=" << response.busy
      << " more=" << response.more << " cont=" << response.continued
      << " origin=" << response.origin_time;
  if (response.reconcile) {
    out << " rec(in_sync=" << response.reconcile->in_sync
        << ",fallback=" << response.reconcile->fallback << ",need=";
    for (const std::uint32_t bucket : response.reconcile->need_buckets) {
      out << bucket << ",";
    }
    out << ")";
  }
  for (const EntryPdu& pdu : response.pdus) out << "\n  " << pdu.to_string();
  return out.str();
}

std::string governor_fingerprint(const GovernorStats& stats) {
  return stats.to_string();
}

struct GroupSchedule {
  std::uint64_t seed;
  std::size_t shards;
  std::size_t threads;
  bool governed;    // tight caps: busy, degrade/collapse, paging, stripping
  bool compaction;  // retention horizon plus unpumped write bursts
  int reset_step;   // -1 disables the mid-run master restart
};

void PrintTo(const GroupSchedule& schedule, std::ostream* os) {
  *os << "seed" << schedule.seed << " shards=" << schedule.shards
      << " threads=" << schedule.threads
      << (schedule.governed ? " governed" : " ungoverned")
      << (schedule.compaction ? " compaction" : "")
      << " reset=" << schedule.reset_step;
}

struct Slot {
  std::size_t filter = 0;
  std::size_t variant = 0;
  Mode mode = Mode::Poll;
  std::string cookie;
  bool alive = false;
  bool walking = false;  // round 1 answered, round 2 owed
  std::vector<std::uint32_t> need;
  sync::ReplicaContent content;  // poll slots: the replica's view
};

class GroupEquivalence : public ::testing::TestWithParam<GroupSchedule> {};

TEST_P(GroupEquivalence, GroupedMasterMatchesPerSessionOracle) {
  const GroupSchedule schedule = GetParam();
  auto dir_a = make_directory();
  auto dir_b = make_directory();
  oracles::PerSessionMaster oracle(*dir_a);
  ReSyncMaster grouped(*dir_b);
  grouped.set_pump_shards(schedule.shards);
  grouped.set_pump_threads(schedule.threads);
  oracle.set_session_time_limit(14);
  grouped.set_session_time_limit(14);

  ResourceLimits limits;
  if (schedule.governed) {
    limits.max_sessions = 26;
    limits.max_session_history = 8;
    limits.max_total_history = 30;
    limits.max_page_entries = 6;
    limits.max_replay_bytes = 200;
    limits.poll_deadline_ticks = 11;
  }
  if (schedule.compaction) limits.journal_retention_records = 4;
  oracle.set_resource_limits(limits);
  grouped.set_resource_limits(limits);

  std::vector<std::string> pushes_a;
  std::vector<std::string> pushes_b;
  const auto recorder = [](std::vector<std::string>& out) {
    return [&out](const std::string& cookie, const std::vector<EntryPdu>& pdus) {
      std::string line = cookie;
      for (const EntryPdu& pdu : pdus) line += "|" + pdu.to_string();
      out.push_back(std::move(line));
    };
  };
  oracle.set_notification_sink(recorder(pushes_a));
  grouped.set_notification_sink(recorder(pushes_b));

  std::vector<Slot> slots(3 * kSessionsPerFilter);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].filter = i % 3;
    slots[i].variant = i / 3;
    slots[i].mode = (i % 4 == 3) ? Mode::Persist : Mode::Poll;
  }

  // Both sides take the same action and must observe the same outcome,
  // including the same exception class.
  const auto exchange = [&](const Slot& slot,
                            const ReSyncControl& control) -> std::optional<ReSyncResponse> {
    const Query query = query_for(slot.filter, slot.variant);
    ReSyncResponse ra;
    ReSyncResponse rb;
    int threw_a = 0;
    int threw_b = 0;
    try {
      ra = oracle.handle(query, control);
    } catch (const ldap::StaleCookieError&) {
      threw_a = 1;
    } catch (const ldap::ProtocolError&) {
      threw_a = 2;
    }
    try {
      rb = grouped.handle(query, control);
    } catch (const ldap::StaleCookieError&) {
      threw_b = 1;
    } catch (const ldap::ProtocolError&) {
      threw_b = 2;
    }
    EXPECT_EQ(threw_a, threw_b) << "exception class diverged";
    if (threw_a != 0 || threw_b != 0) return std::nullopt;
    EXPECT_EQ(fingerprint(ra), fingerprint(rb));
    return ra;
  };

  const auto apply = [](Slot& slot, const ReSyncResponse& response) {
    if (slot.mode != Mode::Poll) return;
    slot.content.apply(from_pdus(response.pdus, response.full_reload,
                                 response.complete_enumeration, response.more,
                                 response.continued));
  };

  // Polls with the slot's cookie; a duplicate models a lost answer: the
  // first response is discarded and the retry's is applied.
  const auto poll = [&](Slot& slot, bool duplicate) {
    std::optional<ReSyncResponse> response = exchange(slot, {slot.mode, slot.cookie});
    if (response && duplicate) response = exchange(slot, {slot.mode, slot.cookie});
    if (!response) {
      slot.alive = false;  // stale on both: expired or evicted
      return;
    }
    apply(slot, *response);
    slot.cookie = response->cookie;
  };

  const auto drain = [&](Slot& slot, ReSyncResponse response) {
    while (response.more && slot.alive) {
      const std::optional<ReSyncResponse> next =
          exchange(slot, {slot.mode, slot.cookie});
      if (!next) {
        slot.alive = false;
        return;
      }
      apply(slot, *next);
      slot.cookie = next->cookie;
      response = *next;
    }
  };

  const auto start = [&](Slot& slot) {
    std::optional<ReSyncResponse> response = exchange(slot, {slot.mode, ""});
    if (!response || response->busy) return;
    slot.content.clear();
    apply(slot, *response);
    slot.cookie = response->cookie;
    slot.alive = true;
    drain(slot, *response);
  };

  // Round 1 of a reconciliation walk from the slot's own (stale) content.
  const auto begin_walk = [&](Slot& slot) {
    auto offer = std::make_shared<ReconcileRequest>();
    offer->root_digest = slot.content.digest().root();
    offer->entry_count = slot.content.digest().entry_count();
    offer->buckets = slot.content.digest().bucket_digests();
    ReSyncControl control{Mode::Poll, ""};
    control.reconcile = offer;
    const std::optional<ReSyncResponse> response = exchange(slot, control);
    if (!response || response->busy) return;
    slot.alive = true;
    slot.cookie = response->cookie;
    if (response->reconcile && !response->reconcile->in_sync &&
        !response->reconcile->fallback) {
      slot.walking = true;
      slot.need = response->reconcile->need_buckets;
      return;
    }
    apply(slot, *response);
    drain(slot, *response);
  };

  const auto finish_walk = [&](Slot& slot) {
    auto upload = std::make_shared<ReconcileRequest>();
    upload->round = 2;
    upload->fingerprints = slot.content.fingerprints_for(slot.need);
    ReSyncControl control{Mode::Poll, slot.cookie};
    control.reconcile = upload;
    slot.walking = false;
    const std::optional<ReSyncResponse> response = exchange(slot, control);
    if (!response) {
      slot.alive = false;  // the walk expired on both
      return;
    }
    apply(slot, *response);
    slot.cookie = response->cookie;
    drain(slot, *response);
  };

  const auto compare_masters = [&](int step) {
    ASSERT_EQ(oracle.session_count(), grouped.session_count()) << "step " << step;
    ASSERT_EQ(oracle.pending_reconciles(), grouped.pending_reconciles())
        << "step " << step;
    ASSERT_EQ(oracle.open_connections(), grouped.open_connections())
        << "step " << step;
    ASSERT_EQ(oracle.history_size(), grouped.history_size()) << "step " << step;
    ASSERT_EQ(oracle.history_units(), grouped.history_units()) << "step " << step;
    ASSERT_EQ(oracle.degraded_sessions(), grouped.degraded_sessions())
        << "step " << step;
    ASSERT_EQ(oracle.replay_cache_bytes(), grouped.replay_cache_bytes())
        << "step " << step;
    ASSERT_EQ(oracle.replays_suppressed(), grouped.replays_suppressed())
        << "step " << step;
    ASSERT_EQ(governor_fingerprint(oracle.governor_stats()),
              governor_fingerprint(grouped.governor_stats()))
        << "step " << step;
    ASSERT_EQ(oracle.traffic().bytes, grouped.traffic().bytes) << "step " << step;
    ASSERT_EQ(oracle.traffic().pdus, grouped.traffic().pdus) << "step " << step;
    ASSERT_EQ(pushes_a, pushes_b) << "persist pushes diverged at step " << step;
  };

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  const auto roll = [&](int below) {
    return std::uniform_int_distribution<int>(0, below - 1)(rng);
  };
  int next_cn = 100;
  // One seeded write, applied identically to both directories.
  const auto mutate = [&] {
    const int op = roll(100);
    const int pick = roll(2) == 0 ? roll(8) : roll(110);  // hot entries repeat
    const std::string dept = std::to_string(roll(4) * 25 + 5);
    const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
    for (server::DirectoryServer* dir : {dir_a.get(), dir_b.get()}) {
      try {
        if (op < 25) {
          dir->add(make_entry("cn=E" + std::to_string(next_cn) + ",o=xyz",
                              {{"objectclass", "person"},
                               {"dept", dept},
                               {"title", "t" + std::to_string(pick % 3)}}));
        } else if (op < 40) {
          dir->remove(target);
        } else if (op < 70) {
          dir->modify(target, {{Modification::Op::Replace, "dept", {dept}}});
        } else if (op < 88) {
          dir->modify(target, {{Modification::Op::Replace, "title",
                                {"t" + std::to_string(next_cn % 3)}}});
        } else {
          dir->modify_dn(target,
                         Dn::parse("cn=E" + std::to_string(next_cn) + ",o=xyz"));
        }
      } catch (const ldap::OperationError&) {
        // Missing random target: identical noise on both sides.
      }
    }
    ++next_cn;
  };

  for (Slot& slot : slots) start(slot);

  for (int step = 0; step < 150 && !::testing::Test::HasFatalFailure(); ++step) {
    // Compaction bursts: more unpumped writes than the retention horizon
    // keeps. Admissions and walks also arrive while writes are unpumped:
    // they pump first, and joiners of a live group skip the DIT scan.
    const bool burst = schedule.compaction && step % 23 == 11;
    for (int w = burst ? 7 : 1; w > 0; --w) mutate();
    if (burst || step % 6 == 2) {
      for (Slot& slot : slots) {
        if (slot.alive || roll(2) != 0) continue;
        if (slot.mode == Mode::Poll && slot.content.size() > 0 && roll(2) == 0) {
          begin_walk(slot);
        } else {
          start(slot);
        }
      }
    }
    oracle.pump();
    grouped.pump();
    oracle.tick();
    grouped.tick();
    compare_masters(step);

    if (step == schedule.reset_step) {
      // Master restart: every cookie goes stale. Poll replicas recover with
      // a reconciliation walk from their content; persist ones reload.
      oracle.reset();
      grouped.reset();
      for (Slot& slot : slots) {
        slot.alive = false;
        slot.walking = false;
        if (slot.mode == Mode::Poll && slot.content.size() > 0) {
          begin_walk(slot);
        } else {
          start(slot);
        }
      }
      continue;
    }

    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      const int cadence = 2 + static_cast<int>(i % 5) * 4;  // 2..18 ticks
      if (slot.walking) {
        // Round 1 was answered on an earlier step: at least one pump ran
        // between the rounds.
        if (roll(3) != 0) finish_walk(slot);
      } else if (slot.alive && step % cadence == static_cast<int>(i) % cadence) {
        poll(slot, roll(8) == 0);
      } else if (!slot.alive && step % 7 == static_cast<int>(i) % 7) {
        if (slot.mode == Mode::Poll && slot.content.size() > 0 && roll(2) == 0) {
          begin_walk(slot);
        } else {
          start(slot);
        }
      }
    }

    // Client-side teardown and voluntary recovery exercise drop paths.
    if (step % 13 == 5) {
      Slot& slot = slots[static_cast<std::size_t>(roll(static_cast<int>(slots.size())))];
      if (slot.alive && !slot.walking) {
        if (roll(2) == 0) {
          oracle.abandon(slot.cookie);
          grouped.abandon(slot.cookie);
        } else {
          exchange(slot, {Mode::SyncEnd, slot.cookie});
        }
        slot.alive = false;
        if (slot.mode == Mode::Poll && roll(2) == 0) begin_walk(slot);
      }
    }
  }

  // Final barrier: every walk completes, every poll replica drains its
  // pages and catches up, and must then hold exactly the master's content
  // for its query.
  for (Slot& slot : slots) {
    if (slot.walking) finish_walk(slot);
  }
  oracle.pump();
  grouped.pump();
  compare_masters(-1);
  for (Slot& slot : slots) {
    if (!slot.alive || slot.mode != Mode::Poll) continue;
    for (int round = 0; round < 40 && slot.alive; ++round) {
      const std::optional<ReSyncResponse> response =
          exchange(slot, {Mode::Poll, slot.cookie});
      if (!response) {
        slot.alive = false;
        break;
      }
      apply(slot, *response);
      slot.cookie = response->cookie;
      // The last page of a batch paged out over earlier steps is followed by
      // one fresh poll for what changed meanwhile.
      if (!response->more && !response->continued) break;
    }
    if (!slot.alive) continue;
    sync::ContentTracker truth(query_for(slot.filter, slot.variant));
    truth.initialize(dir_a->dit());
    EXPECT_EQ(slot.content.keys(), truth.content_keys())
        << "slot " << slot.cookie << " did not converge";
    EXPECT_EQ(slot.content.digest().root(), truth.digest().root())
        << "slot " << slot.cookie << " holds stale entries";
  }
  compare_masters(-2);
  EXPECT_EQ(grouped.pump_shards(), schedule.shards);
}

std::vector<GroupSchedule> schedules() {
  std::vector<GroupSchedule> all;
  const std::vector<GroupSchedule> kinds = {
      {20050501ull, 1, 0, false, false, 60},  // churn, walks, restart
      {31337ull, 1, 0, true, false, -1},      // governor pressure
      {777ull, 1, 0, false, true, -1},        // compaction gaps
      {424242ull, 1, 0, true, true, 90},      // everything at once
  };
  for (const GroupSchedule& kind : kinds) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
        GroupSchedule schedule = kind;
        schedule.shards = shards;
        schedule.threads = threads;
        all.push_back(schedule);
      }
    }
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    SeededTwins, GroupEquivalence, ::testing::ValuesIn(schedules()),
    [](const ::testing::TestParamInfo<GroupSchedule>& param_info) {
      const GroupSchedule& s = param_info.param;
      return "seed" + std::to_string(s.seed) + "_shards" +
             std::to_string(s.shards) + "_threads" + std::to_string(s.threads);
    });

}  // namespace
}  // namespace fbdr::resync
