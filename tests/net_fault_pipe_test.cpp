// Deterministic unit cases for the in-process fault injector: one fault at a
// time, with probability 0 or 1.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "ldap/error.h"
#include "net/fault_injector.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "topology/runtime.h"

namespace fbdr::net {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using resync::Mode;

ldap::EntryPtr person(const std::string& cn) {
  return make_entry("cn=" + cn + ",o=xyz",
                    {{"objectclass", "person"}, {"dept", "42"}});
}

std::shared_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_shared<server::DirectoryServer>("ldap://master");
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  master->load(person("E1"));
  return master;
}

/// A master behind a framed link over a FaultyPipe, quiet until set_config.
struct FaultyLink {
  std::shared_ptr<server::DirectoryServer> master = make_master();
  resync::ReSyncMaster resync{*master};
  std::shared_ptr<FaultyPipe> pipe =
      std::make_shared<FaultyPipe>(resync, FaultConfig{});
  FramedChannel channel{pipe};
};

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

// A protocol rejection crosses a framed link as an error frame, so the
// response-side faults apply to it like to any answer: a lost stale-cookie
// reply is a transport failure (retry), not a stale cookie (reload).
TEST(FaultyPipe, LostStaleCookieReplySurfacesAsTransportError) {
  FaultyLink link;
  const std::string cookie =
      link.channel.exchange(kQuery, {Mode::Poll, ""}).cookie;
  link.resync.reset();  // the cookie is now unrecognised (§5.2)
  EXPECT_THROW(link.channel.exchange(kQuery, {Mode::Poll, cookie}),
               ldap::StaleCookieError);

  link.pipe->set_config({.drop_response = 1.0});
  EXPECT_THROW(link.channel.exchange(kQuery, {Mode::Poll, cookie}),
               TransportError);
  EXPECT_EQ(link.pipe->counters().dropped_responses, 1u);
}

TEST(FaultyPipe, CrashedEndpointRejectsExchangesAndDropsAbandons) {
  FaultyLink link;
  link.pipe->crash_master();
  EXPECT_TRUE(link.pipe->master_down());
  EXPECT_THROW(link.channel.exchange(kQuery, {Mode::Poll, ""}),
               TransportError);
  EXPECT_EQ(link.pipe->counters().rejected_while_down, 1u);

  // A session opened behind the link's back survives an abandon sent while
  // the link is down, and is dropped by one sent after the restart.
  const std::string cookie =
      link.resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  link.channel.abandon(cookie);
  EXPECT_EQ(link.resync.session_count(), 1u);
  link.pipe->restart_master();
  link.channel.abandon(cookie);
  EXPECT_EQ(link.resync.session_count(), 0u);
}

TEST(FaultyPipe, DuplicateIsReplayedOnceAndSuppressedByTheMaster) {
  FaultyLink link;
  const std::string cookie =
      link.channel.exchange(kQuery, {Mode::Poll, ""}).cookie;
  link.master->add(person("E2"));
  link.resync.pump();

  link.pipe->set_config({.duplicate = 1.0});
  const resync::ReSyncResponse first =
      link.channel.exchange(kQuery, {Mode::Poll, cookie});
  EXPECT_EQ(first.entries_sent(), 1u);
  link.pipe->set_config({});
  link.pipe->flush_replays();
  link.pipe->flush_replays();  // already drained: nothing more to deliver
  EXPECT_EQ(link.pipe->counters().duplicated, 1u);
  EXPECT_EQ(link.pipe->counters().replayed, 1u);
  EXPECT_EQ(link.resync.replays_suppressed(), 1u);

  // The replay consumed no session history: polling on from the first
  // answer's cookie finds nothing new.
  EXPECT_EQ(link.channel.exchange(kQuery, {Mode::Poll, first.cookie})
                .entries_sent(),
            0u);
}

// Seeded faults live in the byte pipe, so a faulty tree cannot have a
// direct hop: asking for one is an error, not a silently different link.
TEST(FaultyPipe, FaultyTopologyRefusesAnUnframedLink) {
  topology::TopologyRuntime::Options options;
  options.faults = FaultConfig{};
  topology::TopologyRuntime runtime(make_master(), options);
  EXPECT_THROW(runtime.add_node("direct", "", {kQuery}, false),
               std::invalid_argument);
  EXPECT_FALSE(runtime.has_node("direct"));

  runtime.add_node("framed", "", {kQuery});
  EXPECT_NE(runtime.fault_pipe("framed"), nullptr);
  EXPECT_NE(runtime.framed_link("framed"), nullptr);
  EXPECT_TRUE(runtime.node("framed").framed_upstream());
}

}  // namespace
}  // namespace fbdr::net
