#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ldap/query.h"
#include "resync/protocol.h"
#include "server/directory_server.h"
#include "oracles/query_session.h"

namespace fbdr::oracles {

/// Reference ReSync change stream: one QuerySession per query, each fed
/// every journal record, answered through resync::to_pdus. It has no change
/// routing, no shards, no governor and no cookies, which is what makes it a
/// reference for the routed, sharded resync::ReSyncMaster (the equivalence
/// suite) and the O(records x sessions) baseline bench_master_scaling gates
/// the routed pump against.
///
/// Precondition: the journal is never compacted past an unpumped record.
class ExhaustiveFanout {
 public:
  using SessionId = std::size_t;

  /// Starts at the journal's tail, as a freshly constructed master does.
  explicit ExhaustiveFanout(const server::DirectoryServer& master);

  struct Opened {
    SessionId id = 0;
    std::vector<resync::EntryPdu> pdus;  // the initial full content
  };

  /// Opens a session over `query`, anchored on the current DIT.
  Opened open(const ldap::Query& query, resync::Mode mode);

  void close(SessionId id);

  /// Feeds every record journaled since the last pump into every open
  /// session, then drains the persist sessions: the returned map holds the
  /// non-empty pushes by session id.
  std::map<SessionId, std::vector<resync::EntryPdu>> pump();

  /// The minimal updates a poll session accumulated since its last answer.
  std::vector<resync::EntryPdu> poll(SessionId id);

  std::size_t session_count() const noexcept { return sessions_.size(); }

 private:
  struct Session {
    std::unique_ptr<QuerySession> session;
    resync::Mode mode = resync::Mode::Poll;
  };

  const server::DirectoryServer* master_;
  std::map<SessionId, Session> sessions_;
  SessionId next_id_ = 0;
  std::uint64_t last_pumped_seq_ = 0;
};

}  // namespace fbdr::oracles
