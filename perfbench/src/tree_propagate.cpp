// tree_propagate: the root-write -> leaf-visible path through a depth-3,
// fan-out-2 relay tree. The root's two children reach it over a Unix socket
// served by an in-process EpollServer; every deeper hop is a framed link
// over an EndpointPipe. One op is a seeded batch of root writes followed by
// sync rounds in TopologyRuntime::tick's deepest-first order until every
// leaf's content reflects the batch.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "inputs.h"
#include "netio/epoll_server.h"
#include "netio/socket_pipe.h"
#include "resync/master.h"
#include "seams.h"
#include "topology/relay_node.h"
#include "workload.h"

namespace perfbench {
namespace {

using fbdr::ldap::Query;

constexpr std::size_t kDivisions = 8;
constexpr std::size_t kBatch = 8;        // root writes per op
constexpr std::size_t kMaxRounds = 12;   // a batch must land well before this
constexpr std::size_t kCheckEvery = 8;
constexpr const char* kDepthSpans[] = {"", "topology.relay_sync.d1",
                                       "topology.relay_sync.d2",
                                       "topology.relay_sync.d3"};

fbdr::workload::DirectoryConfig directory_config() {
  fbdr::workload::DirectoryConfig config;
  config.employees = 8000;
  config.countries = 4;
  config.geo_countries = 2;
  config.divisions = kDivisions;
  config.depts_per_division = 4;
  config.locations = 8;
  return config;
}

std::string two_digits(std::size_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "%02zu", value);
  return text;
}

Query division_filter(std::size_t division) {
  return Query::parse("", fbdr::ldap::Scope::Subtree,
                      "(serialnumber=" + two_digits(division) + "*)");
}

/// One filter for divisions [first, first + count): the depth-1 relays hold
/// a single session each, so an op makes few socket round trips and its
/// latency depends less on how fast the host wakes the server thread.
Query divisions_filter(std::size_t first, std::size_t count) {
  std::string filter = "(|";
  for (std::size_t d = first; d < first + count; ++d) {
    filter += "(serialnumber=" + two_digits(d) + "*)";
  }
  return Query::parse("", fbdr::ldap::Scope::Subtree, filter + ")");
}

/// Department filters conjoin the division's serial prefix, which is what
/// lets the parent relay prove them contained in its division filter.
Query department_filter(std::size_t division, const std::string& dept) {
  return Query::parse("", fbdr::ldap::Scope::Subtree,
                      "(&(serialnumber=" + two_digits(division) +
                          "*)(departmentnumber=" + dept + "))");
}

/// UpdateGenerator's mix without hires and leavers: its new hires carry no
/// departmentNumber, so over a run's ~20k writes the default mix would
/// delete a quarter of the employees and drain the leaves' department
/// filters, and ops late in a run would move less content than early ones.
/// Renames still move entries out of and into every replica.
fbdr::workload::UpdateConfig stationary_mix(std::uint64_t seed) {
  fbdr::workload::UpdateConfig mix;
  mix.p_modify_employee = 0.85;
  mix.p_add_employee = 0.0;
  mix.p_delete_employee = 0.0;
  mix.p_rename_employee = 0.10;
  mix.p_modify_dept = 0.05;
  mix.seed = derive_seed32(seed, 1);
  return mix;
}

struct Node {
  std::size_t depth = 0;
  std::size_t parent = SIZE_MAX;  // index into nodes; SIZE_MAX = the root
  std::vector<Query> filters;
};

/// The tree shape: 2 relays with one 4-division filter each, 4 with two
/// division filters each, and 8 leaves replicating two departments of one
/// division each.
std::vector<Node> tree_shape(
    const std::vector<std::vector<std::string>>& division_depts) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < 2; ++i) {
    nodes.push_back(Node{1, SIZE_MAX, {divisions_filter(4 * i, 4)}});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    Node node{2, i / 2, {}};
    for (std::size_t d = 2 * i; d < 2 * i + 2; ++d) {
      node.filters.push_back(division_filter(d));
    }
    nodes.push_back(node);
  }
  for (std::size_t d = 0; d < kDivisions; ++d) {
    Node node{3, 2 + d / 2, {}};
    node.filters.push_back(department_filter(d, division_depts[d][0]));
    node.filters.push_back(department_filter(d, division_depts[d][1]));
    nodes.push_back(node);
  }
  return nodes;
}

/// One built tree. Members are declared so that destruction runs leaves
/// first, then the socket server (joining its loop thread), then the root.
struct System {
  fbdr::workload::EnterpriseDirectory dir;
  std::unique_ptr<fbdr::resync::ReSyncMaster> root;
  std::unique_ptr<TimedEndpoint> root_endpoint;
  std::unique_ptr<fbdr::netio::EpollServer> server;
  std::string socket_path;
  std::vector<std::unique_ptr<TimedEndpoint>> endpoints;  // per relay
  std::vector<fbdr::net::FramedChannel*> links;            // per relay
  std::vector<std::unique_ptr<fbdr::topology::RelayNode>> relays;

  ~System() {
    relays.clear();
    endpoints.clear();
    server.reset();
    if (!socket_path.empty()) {
      std::error_code ignored;
      std::filesystem::remove(socket_path, ignored);
    }
  }
};

class TreePropagate final : public Workload {
 public:
  std::size_t threads() const override { return 2; }  // generator + epoll loop
  double ops_per_second() const override { return 235.0; }

  void generate(std::uint64_t seed, std::size_t ops) override {
    const fbdr::workload::EnterpriseDirectory dir =
        fbdr::workload::generate_directory(directory_config());
    shape_ = tree_shape(dir.division_depts);
    records_ = record_updates(directory_config(), ops * kBatch, stationary_mix(seed));
    std::mt19937_64 rng(derive_seed(seed, 2));
    checked_leaf_ = balanced_sequence(ops, kDivisions, rng);
    hash_ = InputHash{};
    for (const auto& record : records_) hash_.add(record.to_string());
    for (const std::size_t leaf : checked_leaf_) hash_.add(leaf);
  }

  std::uint64_t inputs_hash() const override { return hash_.value(); }

  void setup() override {
    ++setup_count_;
    auto sys = std::make_unique<System>();
    sys->dir = fbdr::workload::generate_directory(directory_config());
    sys->root = std::make_unique<fbdr::resync::ReSyncMaster>(*sys->dir.master);
    sys->root_endpoint = std::make_unique<TimedEndpoint>(*sys->root);
    sys->server = std::make_unique<fbdr::netio::EpollServer>(*sys->root_endpoint);
    sys->socket_path = ".bench_run/tree-" + std::to_string(::getpid()) + "-" +
                       std::to_string(setup_count_) + ".sock";
    const fbdr::netio::SocketAddr bound =
        sys->server->listen(fbdr::netio::SocketAddr::unix_path(sys->socket_path));
    sys->server->start();

    const fbdr::ldap::Dn suffix = sys->dir.master->contexts().front().suffix;
    for (std::size_t i = 0; i < shape_.size(); ++i) {
      const Node& node = shape_[i];
      fbdr::topology::RelayNode::Config config;
      config.name = "relay-d" + std::to_string(node.depth) + "-" + std::to_string(i);
      config.suffix = suffix;
      config.framed = true;
      auto relay = std::make_unique<fbdr::topology::RelayNode>(
          std::move(config), sys->dir.master->schema());
      for (const Query& filter : node.filters) relay->add_filter(filter);

      fbdr::net::FramedChannel* framed = nullptr;
      if (node.parent == SIZE_MAX) {
        fbdr::netio::SocketPipe::Options options;
        options.addr = bound;
        auto channel = std::make_shared<fbdr::net::FramedChannel>(
            std::make_shared<TimedPipe>(
                std::make_shared<fbdr::netio::SocketPipe>(options), "netio.socket"));
        framed = channel.get();
        relay->connect(std::make_shared<TimedChannel>(channel, "wire.client_codec"),
                       sys->root->url());
      } else {
        relay->connect(timed_framed_link(*sys->endpoints[node.parent], &framed),
                       sys->relays[node.parent]->url());
      }
      sys->links.push_back(framed);
      if (!relay->install_all()) {
        throw std::runtime_error("tree_propagate: relay " + relay->url() +
                                 " failed to install its filters");
      }
      sys->endpoints.push_back(std::make_unique<TimedEndpoint>(*relay));
      sys->relays.push_back(std::move(relay));
    }
    system_ = std::move(sys);
  }

  void teardown() override { system_.reset(); }

  bool run(std::size_t i) override {
    System& sys = *system_;
    std::uint64_t written_at = 0;
    {
      std::lock_guard<std::mutex> lock(sys.server->endpoint_mutex());
      for (std::size_t k = 0; k < kBatch; ++k) {
        ScopedSpan span("server.write");
        replay(*sys.dir.master, records_[i * kBatch + k]);
      }
      written_at = sys.root->now();
    }
    for (std::size_t round = 0; round < kMaxRounds; ++round) {
      if (all_leaves_reached(written_at + 1)) return true;
      tick();
    }
    std::fprintf(stderr, "tree_propagate: op %zu not visible at the leaves "
                         "after %zu rounds\n", i, kMaxRounds);
    return false;
  }

  bool verify(std::size_t i) override {
    // Every kCheckEvery-th op checks one seeded leaf (leaves occupy the last
    // kDivisions slots of the shape); a check evaluates its filters at the
    // root, which costs a few ops.
    if (i % kCheckEvery != 0) return true;
    return check_node(shape_.size() - kDivisions + checked_leaf_[i]);
  }

  bool verify_final() override {
    for (std::size_t n = 0; n < shape_.size(); ++n) {
      if (!check_node(n)) return false;
    }
    return true;
  }

  Counters counters() const override {
    const System& sys = *system_;
    Counters out;
    double frames = 0.0;
    for (const fbdr::net::FramedChannel* link : sys.links) {
      out.wire_bytes += static_cast<double>(link->traffic().bytes);
      frames += static_cast<double>(link->traffic().frames);
    }
    out.lookups = static_cast<double>(sys.root_endpoint->handled());
    out.hits = static_cast<double>(sys.root_endpoint->empty());
    for (const auto& endpoint : sys.endpoints) {
      out.lookups += static_cast<double>(endpoint->handled());
      out.hits += static_cast<double>(endpoint->empty());
    }
    const fbdr::netio::EpollServer::Stats stats = sys.server->stats();
    const fbdr::sync::ChangeRouter::Stats routing = sys.root->routing_stats();
    out.layer["wire.frames"] = frames;
    out.layer["wire.bytes"] = out.wire_bytes;
    out.layer["netio.frames_in"] = static_cast<double>(stats.frames_in);
    out.layer["netio.backpressure_pauses"] =
        static_cast<double>(stats.backpressure_pauses);
    out.layer["sync.router_candidates"] = static_cast<double>(routing.candidates);
    out.layer["sync.router_exhaustive"] = static_cast<double>(routing.exhaustive);
    return out;
  }

  std::size_t changes_in_op(std::size_t) const override { return kBatch; }

 private:
  /// One TopologyRuntime::tick round: relays deepest first, then the root
  /// pumps and advances its clock.
  void tick() {
    System& sys = *system_;
    for (std::size_t depth = 3; depth >= 1; --depth) {
      for (std::size_t n = 0; n < shape_.size(); ++n) {
        if (shape_[n].depth != depth) continue;
        ScopedSpan span(kDepthSpans[depth]);
        sys.relays[n]->sync();
      }
    }
    std::lock_guard<std::mutex> lock(sys.server->endpoint_mutex());
    {
      ScopedSpan span("resync.pump");
      sys.root->pump();
    }
    sys.root->tick(1);
  }

  bool all_leaves_reached(std::uint64_t root_time) const {
    for (std::size_t n = shape_.size() - kDivisions; n < shape_.size(); ++n) {
      if (system_->relays[n]->root_time() < root_time) return false;
    }
    return true;
  }

  /// The node's content for each of its filters equals the root's
  /// evaluation of that filter.
  bool check_node(std::size_t n) {
    System& sys = *system_;
    for (const Query& filter : shape_[n].filters) {
      std::vector<fbdr::ldap::EntryPtr> want;
      {
        std::lock_guard<std::mutex> lock(sys.server->endpoint_mutex());
        want = sys.dir.master->evaluate(filter);
      }
      std::string what;
      if (!same_entries(sys.relays[n]->mirror().evaluate(filter), want, &what)) {
        std::fprintf(stderr, "tree_propagate: %s %s: %s\n",
                     sys.relays[n]->url().c_str(), filter.to_string().c_str(),
                     what.c_str());
        return false;
      }
    }
    return true;
  }

  std::vector<Node> shape_;
  std::vector<fbdr::server::ChangeRecord> records_;
  std::vector<std::size_t> checked_leaf_;
  InputHash hash_;
  std::unique_ptr<System> system_;
  std::size_t setup_count_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tree_propagate() {
  return std::make_unique<TreePropagate>();
}

}  // namespace perfbench
