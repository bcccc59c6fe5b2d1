#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "server/dit.h"
#include "sync/content_tracker.h"
#include "sync/update_batch.h"

namespace fbdr::sync {

/// One replica's view of a FilterGroup. A complete-history cursor sits on the
/// event log: its view is the group content as it stood at `pos`. A degraded
/// cursor (or a reconcile walk's) is off the log: it keeps its view as the
/// difference from the current content, updated as events arrive, and pins
/// no log events. Driven only through FilterGroup, which holds an off-log
/// cursor by address: it must not move while attached.
struct GroupCursor {
  std::uint64_t pos = 0;           // log position while on the log
  std::set<std::string> touched;   // off the log: keys with events since
  std::set<std::string> entered;   // off the log: in content, not in the view
  std::map<std::string, ldap::Dn> left;  // off the log: in the view only
  bool degraded = false;   // off the log (a walk cursor always is)
  bool collapsed = false;  // touched keys dropped: eq.(3) ships every entry
  bool governed = true;    // counted in units() (a reconcile walk is not)
};

/// The master-side synchronization state shared by every replica of one
/// canonical query (base, scope, interned filter IR, attributes): a single
/// ContentTracker and an append-only log of the ContentEvents it produced,
/// trimmed below the slowest cursor still on it. Each replica is a
/// GroupCursor.
///
/// A complete-history poll replays log[cursor, end) into the replica's view
/// difference and answers the minimal update set of equation (2); whether
/// the replica already holds a DN is the DN's state at the cursor — outside
/// iff its first event in the suffix is an Enter. A degraded cursor leaves
/// the log and is answered with the retain-based enumeration of equation
/// (3). Answers are exactly those of a per-replica history that was fed the
/// same records (oracles::QuerySession).
///
/// Concurrency contract (DESIGN.md §13): a group and its cursors are driven
/// by one pump shard worker at a time.
class FilterGroup {
 public:
  explicit FilterGroup(ldap::Query query,
                       const ldap::Schema& schema = ldap::Schema::default_instance());

  /// The grouping key of `query`: normalized base, scope, canonical filter
  /// IR key and attribute selection. Equal keys answer identically.
  static std::string key_of(const ldap::Query& query, const ldap::Schema& schema);

  const ContentTracker& tracker() const { return tracker_; }

  /// (Re)computes the content from the DIT and drops the log. Only valid
  /// while no cursor is attached.
  void initialize(const server::Dit& dit);

  /// Absolute index one past the last logged event.
  std::uint64_t end() const noexcept { return base_ + log_.size() - head_; }

  /// Attaches `cursor` at the log end (the replica holds the content). An
  /// ungoverned (walk) cursor starts off the log.
  void attach(GroupCursor& cursor);
  void detach(GroupCursor& cursor);
  std::size_t cursors() const noexcept { return cursors_; }

  /// The entire current content as adds (a full reload's payload).
  UpdateBatch content_batch() const;

  /// Feeds one journaled change: updates the content, logs the events and
  /// returns them (the master mirrors its routing index from them).
  std::vector<ContentEvent> on_change(const server::ChangeRecord& record,
                                      ldap::NormalizedValueCache* cache = nullptr);

  /// Re-anchors the content on the DIT after journal compaction left a gap,
  /// logging Enter/Update/Leave for every difference; returns the events.
  std::vector<ContentEvent> rebase(const server::Dit& dit);

  /// Minimal updates since the cursor (equation (2)); degraded cursors get
  /// poll_with_retains(). Advances the cursor to the log end.
  UpdateBatch poll(GroupCursor& cursor);

  /// Equation (3): the whole content, entries touched since the cursor (or
  /// every entry, once collapsed) in full, the rest retained by DN. Heals a
  /// degraded cursor back to complete-history tracking.
  UpdateBatch poll_with_retains(GroupCursor& cursor);

  /// Reconciliation round 2 for a walk whose cursor was attached at round 1:
  /// for `buckets`, the exact fingerprint diff against the current content
  /// (missing or mismatched entries as adds, fingerprinted entries absent
  /// from the content as deletes); for every other bucket, where the replica
  /// held the round-1 content, the equation (2) delta of the changes since.
  UpdateBatch diff_batch(GroupCursor& cursor,
                         const std::vector<EntryFingerprint>& fingerprints,
                         const std::vector<std::uint32_t>& buckets);

  /// Takes the cursor off the log, keeping only the touched DN keys and its
  /// view difference (equation (3) degradation); the next poll enumerates
  /// with retains.
  void degrade(GroupCursor& cursor);
  /// Second stage: drops the touched keys too; the next poll ships every
  /// content entry in full.
  void collapse(GroupCursor& cursor);

  /// History accounting units of one cursor: pending events while complete,
  /// touched keys while degraded, zero once collapsed.
  std::size_t units(const GroupCursor& cursor) const noexcept {
    return cursor.degraded ? cursor.touched.size() : end() - cursor.pos;
  }
  /// Sum of units() over the governed cursors, kept in O(1).
  std::size_t units() const noexcept {
    return complete_ * end() - pos_sum_ + touched_;
  }
  /// Events the log still holds: those after the slowest on-log cursor.
  std::size_t retained() const noexcept { return log_.size() - head_; }

 private:
  /// Applies one event to an off-log view: its touched keys (unless
  /// collapsed) and its difference from the content. True when the event
  /// touched a new key.
  static bool note(GroupCursor& view, const ContentEvent& event);
  /// Appends events to the log and notes them in every off-log cursor.
  void log(const std::vector<ContentEvent>& events);
  /// Notes log[pos, end) in `view`: the suffix an on-log cursor at `pos`
  /// has yet to see, as a view difference.
  void replay(std::uint64_t pos, GroupCursor& view) const;
  /// The equation (2) delta of every key `view` touched, outside the
  /// buckets in `skip`: E01 add, E11 mod, E10 delete.
  void delta(const GroupCursor& view, const std::set<std::uint32_t>& skip,
             UpdateBatch& batch) const;
  /// Puts `cursor` back on the log at its end (the replica holds the
  /// content) and trims what no cursor still needs.
  void advance(GroupCursor& cursor);
  /// Adds (or removes) the cursor's log pin or off-log registration and a
  /// governed cursor's share of the unit aggregates, as its current state
  /// dictates; every state change is bracketed by it.
  void account(GroupCursor& cursor, bool add);
  void trim();

  ContentTracker tracker_;
  std::vector<ContentEvent> log_;  // live events are log_[head_, size)
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;         // absolute index of log_[head_]
  std::map<std::uint64_t, std::size_t> positions_;  // on-log pos -> count
  std::vector<GroupCursor*> off_log_;
  std::size_t cursors_ = 0;
  std::size_t complete_ = 0;   // governed cursors tracking complete history
  std::uint64_t pos_sum_ = 0;  // sum of their positions
  std::size_t touched_ = 0;    // touched keys across governed degraded cursors
};

}  // namespace fbdr::sync
