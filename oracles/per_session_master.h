#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/stats.h"
#include "oracles/query_session.h"
#include "resync/endpoint.h"
#include "resync/governor.h"
#include "resync/protocol.h"
#include "server/directory_server.h"

namespace fbdr::oracles {

/// Reference ReSync master: one QuerySession (its own tracker, history and
/// acknowledged view) per session, every journal record fed to every
/// session, one serial pump. It speaks the whole protocol of
/// resync::ReSyncMaster — cookies and replays, persist pushes in session-id
/// order, paging, the resource governor, compaction rebases and
/// reconciliation walks — and is what the grouped, routed and sharded
/// production master is proven bit-identical against
/// (tests/resync_group_equivalence_test.cpp). Routing statistics are not
/// modelled: production counts candidate groups, which have no per-session
/// counterpart.
class PerSessionMaster : public resync::ReSyncEndpoint {
 public:
  using NotificationSink = std::function<void(
      const std::string& cookie, const std::vector<resync::EntryPdu>&)>;

  explicit PerSessionMaster(server::DirectoryServer& master);

  void set_resource_limits(const resync::ResourceLimits& limits);
  const resync::GovernorStats& governor_stats() const noexcept {
    return governor_.stats();
  }
  void set_reconcile_fallback_fraction(double fraction) {
    reconcile_fallback_fraction_ = fraction;
  }
  void set_session_time_limit(std::uint64_t ticks) { time_limit_ = ticks; }
  void set_notification_sink(NotificationSink sink) { sink_ = std::move(sink); }

  resync::ReSyncResponse handle(const ldap::Query& query,
                                const resync::ReSyncControl& control) override;
  const std::string& url() const override { return master_->url(); }
  void pump();
  void tick(std::uint64_t delta = 1) override;
  void reset() override;
  void abandon(const std::string& cookie) override;

  std::size_t pending_reconciles() const;
  std::uint64_t replays_suppressed() const noexcept { return replays_; }
  std::size_t session_count() const noexcept { return sessions_.size(); }
  std::size_t open_connections() const;
  std::size_t history_size() const;
  std::size_t history_units() const;
  std::size_t replay_cache_bytes() const;
  std::size_t degraded_sessions() const;
  const net::TrafficStats& traffic() const noexcept { return traffic_; }

 private:
  struct Session {
    std::unique_ptr<QuerySession> session;
    resync::Mode mode = resync::Mode::Poll;
    std::uint64_t last_active = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t last_seq = 0;
    resync::ReSyncResponse last_response;
    std::size_t replay_bytes = 0;
    bool replay_stripped = false;
    std::string current_cookie;
    bool dirty = false;
    std::vector<resync::EntryPdu> overflow;
    std::size_t overflow_pos = 0;
    bool overflow_enum = false;
    bool overflow_reload = false;
  };

  /// A walk between rounds: its provisional session is fed every pumped
  /// record, so round 2 can ship what changed since round 1.
  struct PendingReconcile {
    std::unique_ptr<QuerySession> session;
    resync::Mode mode = resync::Mode::Poll;
    std::vector<std::uint32_t> need_buckets;
    std::uint64_t last_active = 0;
    std::uint64_t expected_seq = 2;
    std::uint64_t last_seq = 0;
    resync::ReSyncResponse last_response;
    bool completed = false;
  };

  struct CookieParts {
    std::string id;
    std::uint64_t seq = 0;
    bool has_seq = false;
  };
  static CookieParts parse_cookie(const std::string& cookie);
  static std::string make_cookie(const std::string& id, std::uint64_t seq);

  resync::ReSyncResponse busy();
  void account(const std::vector<resync::EntryPdu>& pdus);
  void enforce_session_history(Session& session);
  void enforce_global_history();
  void paginate(Session& session, std::vector<resync::EntryPdu> pdus,
                bool full_reload, bool complete_enumeration,
                resync::ReSyncResponse& response);
  void serve_overflow(Session& session, resync::ReSyncResponse& response);
  void cache_response(Session& session, const resync::ReSyncResponse& response);
  void finalize(Session& session, const resync::ReSyncControl& control,
                resync::ReSyncResponse& response);
  /// Pumps unpumped records before an admission, as the grouped master does
  /// before joining a filter group.
  void catch_up();
  Session& adopt(std::unique_ptr<QuerySession> qs, resync::Mode mode,
                 std::string& id);
  resync::ReSyncResponse reconcile_round1(const ldap::Query& query,
                                          const resync::ReSyncControl& control);
  resync::ReSyncResponse reconcile_round2(PendingReconcile& pending,
                                          const CookieParts& parts,
                                          const resync::ReSyncControl& control);
  resync::ReSyncResponse reconcile_fallback(
      std::unique_ptr<QuerySession> qs, const resync::ReSyncControl& control);

  server::DirectoryServer* master_;
  std::map<std::string, Session> sessions_;
  std::map<std::string, PendingReconcile> pending_reconciles_;
  NotificationSink sink_;
  net::LogicalClock clock_;
  net::TrafficStats traffic_;
  resync::ResourceGovernor governor_;
  std::uint64_t last_pumped_seq_ = 0;
  std::uint64_t time_limit_ = 0;
  std::uint64_t cookie_counter_ = 0;
  std::uint64_t reconcile_counter_ = 0;
  std::uint64_t replays_ = 0;
  double reconcile_fallback_fraction_ = 0.5;
};

}  // namespace fbdr::oracles
