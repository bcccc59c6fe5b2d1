// replica_serve: the paper's case study (§7). One op serves one client query
// of the Table 1 mix (Zipf popularity, temporal re-reference) at a
// core::FilterReplicationService with dynamic filter selection and a
// query-cache window. Every kWriteEvery-th op also applies a small root
// write batch, pumps and syncs the replica before serving, so a read-path
// gain that costs the write path shows in the same numbers.

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/replication_service.h"
#include "inputs.h"
#include "ldap/query_template.h"
#include "seams.h"
#include "select/generalize.h"
#include "trace.h"
#include "workload.h"
#include "workload/workload_gen.h"

namespace perfbench {
namespace {

using fbdr::ldap::Query;

constexpr std::size_t kWriteEvery = 50;  // ops between write+pump+sync rounds
constexpr std::size_t kBatch = 4;        // root writes per round
constexpr std::size_t kTraining = 500;  // set-up queries: the first selection
// One op in kCheckEvery is checked against a master search, a full DIT
// scan that costs a hundred ops.
constexpr std::size_t kCheckEvery = 1024;

fbdr::workload::DirectoryConfig directory_config() {
  fbdr::workload::DirectoryConfig config;
  config.employees = 5000;
  config.countries = 12;
  config.geo_countries = 3;
  config.divisions = 40;
  config.depts_per_division = 25;
  config.locations = 45;
  return config;
}

/// The Table 1 query templates and their generalized forms (§6.1).
std::shared_ptr<fbdr::ldap::TemplateRegistry> case_study_registry() {
  auto registry = std::make_shared<fbdr::ldap::TemplateRegistry>();
  for (const char* pattern :
       {"(serialnumber=_)", "(serialnumber=_*)", "(mail=_)", "(mail=*_)",
        "(&(dept=_)(div=_))", "(&(div=_)(dept=*))", "(location=_)",
        "(location=*)"}) {
    registry->add(pattern);
  }
  return registry;
}

/// Serial numbers generalize to 100-serial blocks; department queries to
/// their whole division.
fbdr::select::Generalizer case_study_generalizer() {
  fbdr::select::Generalizer generalizer;
  generalizer.add_rule("(serialnumber=_)", "(serialnumber=_*)",
                       fbdr::select::prefix_transform(4));
  generalizer.add_rule("(&(dept=_)(div=_))", "(&(div=_)(dept=*))",
                       fbdr::select::keep_slots({1}));
  return generalizer;
}

struct System {
  fbdr::workload::EnterpriseDirectory dir;
  std::unique_ptr<fbdr::core::FilterReplicationService> service;
  std::unique_ptr<TimedEndpoint> endpoint;
};

class ReplicaServe final : public Workload {
 public:
  std::size_t threads() const override { return 1; }
  double ops_per_second() const override { return 4000.0; }

  void generate(std::uint64_t seed, std::size_t ops) override {
    training_.clear();
    queries_.clear();
    queries_.reserve(ops);
    hash_ = InputHash{};
    {
      // Freed before record_updates builds its own copy of the directory.
      const fbdr::workload::EnterpriseDirectory dir =
          fbdr::workload::generate_directory(directory_config());
      fbdr::workload::WorkloadConfig config;
      config.seed = derive_seed32(seed, 3);
      fbdr::workload::WorkloadGenerator generator(dir, config);
      for (std::size_t i = 0; i < kTraining + ops; ++i) {
        auto& out = i < kTraining ? training_ : queries_;
        out.push_back(generator.next().query);
        hash_.add(out.back().to_string());
      }
    }
    // UpdateGenerator's default mix: a run's few thousand writes change
    // the 10000-employee population by a few percent at most.
    fbdr::workload::UpdateConfig mix;
    mix.seed = derive_seed32(seed, 1);
    records_ = record_updates(directory_config(), (ops / kWriteEvery + 1) * kBatch, mix);
    for (const auto& record : records_) hash_.add(record.to_string());
    std::mt19937_64 rng(derive_seed(seed, 2));
    std::bernoulli_distribution coin(1.0 / static_cast<double>(kCheckEvery));
    checked_.assign(ops, false);
    for (std::size_t i = 0; i < ops; ++i) checked_[i] = coin(rng);
  }

  std::uint64_t inputs_hash() const override { return hash_.value(); }

  void setup() override {
    auto sys = std::make_unique<System>();
    sys->dir = fbdr::workload::generate_directory(directory_config());
    fbdr::core::FilterReplicationService::Config config;
    config.query_cache_window = 64;
    fbdr::select::FilterSelector::Config selection;
    selection.revolution_interval = 500;
    selection.budget_entries = 2500;
    config.selection = selection;
    sys->service = std::make_unique<fbdr::core::FilterReplicationService>(
        sys->dir.master, config, case_study_registry(), case_study_generalizer());
    sys->endpoint = std::make_unique<TimedEndpoint>(sys->service->resync());
    sys->service->set_channel(
        std::make_shared<fbdr::net::DirectChannel>(*sys->endpoint));
    // Train the selector through its first revolution, so every op runs
    // against a replica that already holds selected filters.
    for (const Query& query : training_) sys->service->serve(query);
    system_ = std::move(sys);
    hits_ = 0;
    served_ = 0;
    answers_.assign(queries_.size(), Answer::Miss);
  }

  void teardown() override { system_.reset(); }

  bool run(std::size_t i) override {
    System& sys = *system_;
    if (i % kWriteEvery == kWriteEvery - 1) {
      const std::size_t round = i / kWriteEvery;
      for (std::size_t k = 0; k < kBatch; ++k) {
        ScopedSpan span("server.write");
        replay(*sys.dir.master, records_[round * kBatch + k]);
      }
      {
        ScopedSpan span("resync.pump");
        sys.service->resync().pump();
      }
      ScopedSpan span("core.sync");
      sys.service->sync();
    }
    ScopedSpan span("core.serve_miss");
    const fbdr::core::ServeOutcome outcome = sys.service->serve(queries_[i]);
    ++served_;
    if (outcome.hit) {
      span.rename("core.serve_hit");
      ++hits_;
      answers_[i] = outcome.from_cache ? Answer::Cache : Answer::Filter;
    }
    return true;
  }

  /// A sampled answer from a replicated filter must equal the master's.
  /// Misses were answered by the master itself, and cached user queries
  /// have no update session, so their answers may lag writes by design.
  bool verify(std::size_t i) override {
    if (!checked_[i] || answers_[i] != Answer::Filter) return true;
    const System& sys = *system_;
    std::string what;
    if (!same_entries(sys.service->filter_replica().answer(queries_[i]),
                      sys.dir.master->search(queries_[i]).entries, &what)) {
      std::fprintf(stderr, "replica_serve: %s: %s\n",
                   queries_[i].to_string().c_str(), what.c_str());
      return false;
    }
    return true;
  }

  bool verify_final() override {
    // Every replicated filter's content equals the master's answer.
    const fbdr::replica::FilterReplica& replica = system_->service->filter_replica();
    for (const std::size_t id : replica.query_ids()) {
      const Query& query = replica.query_at(id);
      std::string what;
      if (!same_entries(replica.query_content(id),
                        system_->dir.master->evaluate(query), &what)) {
        std::fprintf(stderr, "replica_serve: filter %s: %s\n",
                     query.to_string().c_str(), what.c_str());
        return false;
      }
    }
    return true;
  }

  Counters counters() const override {
    const System& sys = *system_;
    Counters out;
    out.wire_bytes = static_cast<double>(sys.service->traffic().bytes);
    out.hits = static_cast<double>(hits_);
    out.lookups = static_cast<double>(served_);
    out.layer["select.revolutions"] = static_cast<double>(sys.service->revolutions());
    const fbdr::sync::ChangeRouter::Stats routing =
        sys.service->resync().routing_stats();
    out.layer["sync.router_candidates"] = static_cast<double>(routing.candidates);
    out.layer["sync.router_exhaustive"] = static_cast<double>(routing.exhaustive);
    return out;
  }

  std::size_t changes_in_op(std::size_t i) const override {
    return i % kWriteEvery == kWriteEvery - 1 ? kBatch : 0;
  }

 private:
  enum class Answer { Miss, Filter, Cache };

  std::vector<Query> training_;
  std::vector<Query> queries_;
  std::vector<fbdr::server::ChangeRecord> records_;
  std::vector<bool> checked_;
  std::vector<Answer> answers_;
  InputHash hash_;
  std::unique_ptr<System> system_;
  std::uint64_t hits_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_replica_serve() {
  return std::make_unique<ReplicaServe>();
}

}  // namespace perfbench
