// stale_recovery: one stale replica session healed per op. Sixteen replicas
// each hold one division (250 entries) over framed links to one master.
// Before each op the master loses every session (reset()) and a seeded
// share of the chosen replica's entries, drawn from the grid {1%, 20%, 60%},
// changes at the master. The op is the replica's next poll, which recovers
// through the digest walk or, past the divergence threshold, a full reload.
// This is the only workload that runs sync::ContentDigest and the walk.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "inputs.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "seams.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using fbdr::ldap::Query;

constexpr std::size_t kReplicas = 16;  // one per division
constexpr double kStalePct[] = {1.0, 20.0, 60.0};
constexpr std::size_t kJournalRecords = 4096;  // > one op's 300 writes

fbdr::workload::DirectoryConfig directory_config() {
  fbdr::workload::DirectoryConfig config;
  config.employees = 4000;
  config.countries = 4;
  config.geo_countries = 2;
  config.divisions = kReplicas;
  config.depts_per_division = 4;
  config.locations = 8;
  return config;
}

Query division_query(std::size_t division) {
  char prefix[8];
  std::snprintf(prefix, sizeof prefix, "%02zu", division);
  return Query::parse("", fbdr::ldap::Scope::Subtree,
                      std::string("(serialnumber=") + prefix + "*)");
}

struct Replica {
  std::unique_ptr<fbdr::resync::ReSyncReplica> client;
  fbdr::net::FramedChannel* link = nullptr;
  std::shared_ptr<fbdr::net::Channel> channel;
  double reload_bytes = 0.0;  // bytes of its initial full load
};

struct System {
  fbdr::workload::EnterpriseDirectory dir;
  std::unique_ptr<fbdr::resync::ReSyncMaster> master;
  std::unique_ptr<TimedEndpoint> endpoint;
  std::vector<Replica> replicas;
};

/// One op's input: which replica heals, and which of its entries change.
struct StaleOp {
  std::size_t replica = 0;
  std::vector<fbdr::ldap::Dn> stale;
};

class StaleRecovery final : public Workload {
 public:
  std::size_t threads() const override { return 1; }
  double ops_per_second() const override { return 84.0; }

  void generate(std::uint64_t seed, std::size_t ops) override {
    const fbdr::workload::EnterpriseDirectory dir =
        fbdr::workload::generate_directory(directory_config());
    std::mt19937_64 rng(derive_seed(seed, 2));
    // Every (replica, staleness) pair equally often: replicas differ in
    // size, so drawing the two apart would let the seed shift the mix.
    const std::vector<std::size_t> pair = balanced_sequence(ops, kReplicas * 3, rng);
    ops_.assign(ops, {});
    hash_ = InputHash{};
    for (std::size_t i = 0; i < ops; ++i) {
      StaleOp& op = ops_[i];
      op.replica = pair[i] / 3;
      std::vector<std::size_t> members = dir.division_members[op.replica];
      const auto count = static_cast<std::size_t>(std::ceil(
          kStalePct[pair[i] % 3] / 100.0 * static_cast<double>(members.size())));
      std::shuffle(members.begin(), members.end(), rng);
      for (std::size_t k = 0; k < count; ++k) {
        op.stale.push_back(dir.employees[members[k]].dn);
        hash_.add(op.stale.back().to_string());
      }
      hash_.add(op.replica);
    }
  }

  std::uint64_t inputs_hash() const override { return hash_.value(); }

  void setup() override {
    auto sys = std::make_unique<System>();
    sys->dir = fbdr::workload::generate_directory(directory_config());
    // Every op starts with a reset(), so no session ever replays the
    // journal; a bounded one keeps memory flat over a run's ~300k writes.
    sys->dir.master->journal().set_retention(kJournalRecords);
    sys->master = std::make_unique<fbdr::resync::ReSyncMaster>(*sys->dir.master);
    sys->endpoint = std::make_unique<TimedEndpoint>(*sys->master);
    sys->replicas.resize(kReplicas);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      Replica& replica = sys->replicas[r];
      replica.channel = timed_framed_link(*sys->endpoint, &replica.link);
      replica.client = std::make_unique<fbdr::resync::ReSyncReplica>(
          *replica.channel, division_query(r));
      replica.client->set_auto_recover(true);
      replica.client->start(fbdr::resync::Mode::Poll);
      replica.reload_bytes = static_cast<double>(replica.link->traffic().bytes);
    }
    system_ = std::move(sys);
    recover_bytes_ = 0.0;
    reload_bytes_ = 0.0;
  }

  /// Every session is lost, then the chosen replica's share goes stale.
  void prepare(std::size_t i) override {
    System& sys = *system_;
    sys.master->reset();
    for (std::size_t k = 0; k < ops_[i].stale.size(); ++k) {
      sys.dir.master->modify(
          ops_[i].stale[k],
          {{fbdr::server::Modification::Op::Replace, "title",
            {"op" + std::to_string(i) + "-" + std::to_string(k)}}});
    }
    bytes_before_ = static_cast<double>(
        sys.replicas[ops_[i].replica].link->traffic().bytes);
  }

  void teardown() override { system_.reset(); }

  bool run(std::size_t i) override {
    ScopedSpan span("resync.poll");
    system_->replicas[ops_[i].replica].client->poll();
    return true;
  }

  bool verify(std::size_t i) override {
    const Replica& replica = system_->replicas[ops_[i].replica];
    recover_bytes_ += static_cast<double>(replica.link->traffic().bytes) - bytes_before_;
    reload_bytes_ += replica.reload_bytes;
    return check_replica(ops_[i].replica);
  }

  bool verify_final() override {
    // Each op stales only the replica it heals, so every replica must
    // equal the master at the end.
    for (std::size_t r = 0; r < kReplicas; ++r) {
      if (!check_replica(r)) return false;
    }
    return true;
  }

  Counters counters() const override {
    const System& sys = *system_;
    Counters out;
    double entries = 0.0;
    double frames = 0.0;
    double content = 0.0;
    for (const Replica& replica : sys.replicas) {
      const fbdr::net::TrafficStats& traffic = replica.link->traffic();
      out.wire_bytes += static_cast<double>(traffic.bytes);
      entries += static_cast<double>(traffic.entries);
      frames += static_cast<double>(traffic.frames);
      content += static_cast<double>(replica.client->recoveries()) *
                 static_cast<double>(replica.client->content().size());
      out.layer["resync.reconcile_entries_shipped"] +=
          static_cast<double>(replica.client->reconcile_entries_shipped());
      out.layer["resync.full_reloads"] +=
          static_cast<double>(replica.client->full_reloads());
      out.layer["resync.reconcile_fallbacks"] +=
          static_cast<double>(replica.client->reconcile_fallbacks());
    }
    // hit_ratio: replica entries a recovery kept instead of reshipping.
    out.lookups = content;
    out.hits = content - entries;
    out.layer["wire.frames"] = frames;
    out.layer["wire.bytes"] = out.wire_bytes;
    out.layer["resync.recover_bytes"] = recover_bytes_;
    out.layer["resync.reload_bytes"] = reload_bytes_;
    return out;
  }

 private:
  bool check_replica(std::size_t r) {
    const System& sys = *system_;
    std::string what;
    if (!same_entries(sys.replicas[r].client->content().entries(),
                      sys.dir.master->evaluate(division_query(r)), &what)) {
      std::fprintf(stderr, "stale_recovery: replica %zu: %s\n", r, what.c_str());
      return false;
    }
    return true;
  }

  std::vector<StaleOp> ops_;
  InputHash hash_;
  std::unique_ptr<System> system_;
  double bytes_before_ = 0.0;
  double recover_bytes_ = 0.0;
  double reload_bytes_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_stale_recovery() {
  return std::make_unique<StaleRecovery>();
}

}  // namespace perfbench
