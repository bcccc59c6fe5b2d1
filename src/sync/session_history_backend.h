#pragma once

#include <memory>
#include <vector>

#include "server/dit.h"
#include "sync/backend.h"
#include "sync/filter_group.h"

namespace fbdr::sync {

/// The ReSync computation (§5.2) behind the SyncBackend interface: the master
/// keeps, per replicated query, a content tracker plus the session history —
/// the events accumulated since the replica's last poll. Each poll returns
/// the minimal update set of equation (2). Each registered query is one
/// cursor on its own FilterGroup; see FilterGroup for the compaction rules.
class SessionHistoryBackend : public SyncBackend {
 public:
  explicit SessionHistoryBackend(
      const server::Dit& master_dit,
      const ldap::Schema& schema = ldap::Schema::default_instance());

  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override;
  void on_change(const server::ChangeRecord& record) override;
  std::string name() const override { return "session-history"; }

  /// Entries currently tracked for a query (the master-side content view).
  const ContentTracker& tracker(std::size_t id) const;

  /// Number of pending (unpolled) events across all queries — the "size of
  /// historical data" the protocol must maintain.
  std::size_t pending_events() const;

  /// Drops a replicated query (sync_end).
  void unregister_query(std::size_t id);

 private:
  struct Slot {
    std::unique_ptr<FilterGroup> group;
    GroupCursor cursor;
    bool initialized = false;
    bool active = true;
  };

  const server::Dit* dit_;
  const ldap::Schema* schema_;
  std::vector<Slot> slots_;
};

}  // namespace fbdr::sync
