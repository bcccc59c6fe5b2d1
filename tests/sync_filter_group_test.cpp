// sync::FilterGroup against per-replica histories (oracles::QuerySession):
// cursors on and off the shared event log answer exactly as a private
// history fed the same records would, and a cursor off the log — degraded,
// collapsed or a reconcile walk's — pins none of the log's events however
// long it sits through changes.

#include "sync/filter_group.h"

#include <gtest/gtest.h>

#include <string>

#include "ldap/error.h"
#include "ldap/ldif.h"
#include "oracles/query_session.h"
#include "server/directory_server.h"

namespace fbdr::sync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

std::string describe(const UpdateBatch& batch) {
  std::string out = batch.complete_enumeration ? "enum" : "delta";
  for (const ldap::EntryPtr& entry : batch.adds) {
    out += " +" + ldap::to_ldif(*entry);
  }
  for (const ldap::EntryPtr& entry : batch.mods) {
    out += " ~" + ldap::to_ldif(*entry);
  }
  for (const Dn& dn : batch.deletes) out += " -" + dn.to_string();
  for (const Dn& dn : batch.retains) out += " =" + dn.to_string();
  return out;
}

class FilterGroupTest : public ::testing::Test {
 protected:
  FilterGroupTest() : master_("ldap://master") {
    server::NamingContext context;
    context.suffix = Dn::parse("o=xyz");
    master_.add_context(std::move(context));
    master_.load(make_entry("o=xyz", {{"objectclass", "organization"}}));
    for (int i = 0; i < 12; ++i) {
      master_.load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                              {{"objectclass", "person"},
                               {"dept", i % 2 == 0 ? "42" : "7"}}));
    }
    group_.initialize(master_.dit());
    seq_ = master_.journal().last_seq();
  }

  /// Change number `i` of a fixed churn over entries entering, leaving,
  /// updating, appearing, disappearing and being renamed.
  void mutate(int i) {
    const Dn target = Dn::parse("cn=E" + std::to_string(i % 12) + ",o=xyz");
    try {
      switch (i % 5) {
        case 0:
        case 1:
          master_.modify(target, {{Modification::Op::Replace, "dept",
                                   {i % 3 == 0 ? "7" : "42"}}});
          break;
        case 2:
          master_.modify(target, {{Modification::Op::Replace, "title",
                                   {"t" + std::to_string(i)}}});
          break;
        case 3:
          master_.remove(target);
          master_.add(make_entry(target.to_string(),
                                 {{"objectclass", "person"}, {"dept", "42"}}));
          break;
        default: {
          const Dn renamed = Dn::parse("cn=R" + std::to_string(i) + ",o=xyz");
          master_.modify_dn(target, renamed);
          master_.modify_dn(renamed, target);
          break;
        }
      }
    } catch (const ldap::OperationError&) {
    }
  }

  /// Feeds the unpumped journal records to the group and to `oracle`.
  void pump(oracles::QuerySession& oracle) {
    for (const server::ChangeRecord* record : master_.journal().since(seq_)) {
      group_.on_change(*record);
      oracle.on_change(*record);
      seq_ = record->seq;
    }
  }

  server::DirectoryServer master_;
  FilterGroup group_{kQuery};
  std::uint64_t seq_ = 0;
};

TEST_F(FilterGroupTest, CompleteCursorMatchesPrivateHistory) {
  oracles::QuerySession oracle(kQuery);
  oracle.prepare(master_.dit());
  GroupCursor cursor;
  group_.attach(cursor);
  for (int i = 0; i < 60; ++i) {
    mutate(i);
    pump(oracle);
    if (i % 7 == 6) {
      EXPECT_EQ(group_.units(cursor), oracle.pending_events());
      EXPECT_EQ(describe(group_.poll(cursor)), describe(oracle.poll())) << i;
      EXPECT_EQ(group_.retained(), 0u);
    }
  }
}

TEST_F(FilterGroupTest, DegradedCursorPinsNoLog) {
  oracles::QuerySession oracle(kQuery);
  oracle.prepare(master_.dit());
  GroupCursor slow;
  GroupCursor fast;
  group_.attach(slow);
  group_.attach(fast);
  mutate(0);
  pump(oracle);
  group_.degrade(slow);
  oracle.degrade();
  for (int i = 1; i < 200; ++i) {
    mutate(i);
    pump(oracle);
    group_.poll(fast);
    // Only the fast cursor is on the log, and it just drained it.
    EXPECT_EQ(group_.retained(), 0u) << i;
  }
  EXPECT_EQ(group_.units(slow), oracle.history_units());
  EXPECT_EQ(describe(group_.poll(slow)),
            describe(oracle.poll_with_retains()));
  // Healed: back on the log, answering deltas.
  EXPECT_FALSE(slow.degraded);
  mutate(200);
  pump(oracle);
  EXPECT_EQ(describe(group_.poll(slow)), describe(oracle.poll()));
}

TEST_F(FilterGroupTest, CollapsedCursorPinsNoLog) {
  oracles::QuerySession oracle(kQuery);
  oracle.prepare(master_.dit());
  GroupCursor slow;
  group_.attach(slow);
  for (int i = 0; i < 9; ++i) mutate(i);
  pump(oracle);
  group_.collapse(slow);
  oracle.collapse_history();
  EXPECT_EQ(group_.retained(), 0u);
  for (int i = 9; i < 200; ++i) {
    mutate(i);
    pump(oracle);
    EXPECT_EQ(group_.retained(), 0u) << i;
    EXPECT_EQ(group_.units(slow), 0u);
  }
  EXPECT_EQ(describe(group_.poll(slow)),
            describe(oracle.poll_with_retains()));
}

TEST_F(FilterGroupTest, WalkCursorPinsNoLogAndShipsChangesSinceRoundOne) {
  oracles::QuerySession oracle(kQuery);
  oracle.prepare(master_.dit());
  GroupCursor walk;
  walk.governed = false;
  group_.attach(walk);
  EXPECT_TRUE(walk.degraded);
  for (int i = 0; i < 100; ++i) {
    mutate(i);
    pump(oracle);
    EXPECT_EQ(group_.retained(), 0u) << i;
  }
  EXPECT_EQ(group_.units(), 0u);  // ungoverned
  // No divergent buckets: round 2 is exactly the delta since round 1.
  EXPECT_EQ(describe(group_.diff_batch(walk, {}, {})),
            describe(oracle.diff_batch({}, {})));
  EXPECT_FALSE(walk.degraded);
}

}  // namespace
}  // namespace fbdr::sync
