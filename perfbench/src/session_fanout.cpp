// session_fanout: one root ReSyncMaster with 1000 admitted poll sessions on
// department filters (ten per department), 8 pump shards run inline, direct
// in-process channels only. One op is a seeded write batch, one pump(), and
// polls of every session the batch changed plus a seeded sample of idle
// ones. Admission dominates set-up; routing and the sharded pump dominate
// each op; no wire, socket or topology code is on the path.
//
// The shards run on the calling thread: with pump worker threads, waking
// the workers on a host shared with other tenants took milliseconds often
// enough that every timing of this workload swung by 2-4x from run to run.
//
// The writes are this workload's own stationary mix rather than
// workload::UpdateGenerator's: that generator's new hires carry no
// departmentNumber, so over a run's tens of thousands of writes the
// department sessions would drain and the ops would stop touching them.

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "inputs.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "seams.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using fbdr::ldap::Query;

constexpr std::size_t kSessions = 1000;
constexpr std::size_t kBatch = 2;        // employees written per op
constexpr std::size_t kIdleSample = 16;  // idle sessions polled per op
constexpr std::size_t kShards = 8;
constexpr std::size_t kPumpThreads = 0;

fbdr::workload::DirectoryConfig directory_config() {
  fbdr::workload::DirectoryConfig config;
  config.employees = 1000;
  config.countries = 4;
  config.geo_countries = 2;
  config.divisions = 10;
  config.depts_per_division = 10;
  config.locations = 10;
  return config;
}

/// One server write of the generated stream.
struct Write {
  enum class Kind { Modify, Add, Remove };
  Kind kind = Kind::Modify;
  fbdr::ldap::Dn dn;
  std::vector<fbdr::server::Modification> mods;  // Modify
  fbdr::ldap::EntryPtr entry;                     // Add
};

void apply(fbdr::server::DirectoryServer& master, const Write& write) {
  switch (write.kind) {
    case Write::Kind::Modify:
      master.modify(write.dn, write.mods);
      break;
    case Write::Kind::Add:
      master.add(write.entry);
      break;
    case Write::Kind::Remove:
      master.remove(write.dn);
      break;
  }
}

struct System {
  fbdr::workload::EnterpriseDirectory dir;
  std::unique_ptr<fbdr::resync::ReSyncMaster> master;
  std::unique_ptr<TimedEndpoint> endpoint;
  std::unique_ptr<fbdr::net::DirectChannel> channel;
  std::vector<std::unique_ptr<fbdr::resync::ReSyncReplica>> sessions;
};

class SessionFanout final : public Workload {
 public:
  std::size_t threads() const override { return 1 + kPumpThreads; }
  double ops_per_second() const override { return 1400.0; }

  void generate(std::uint64_t seed, std::size_t ops) override {
    const fbdr::workload::EnterpriseDirectory dir =
        fbdr::workload::generate_directory(directory_config());
    depts_.clear();
    for (const auto& division : dir.division_depts) {
      depts_.insert(depts_.end(), division.begin(), division.end());
    }
    std::map<std::string, std::vector<std::size_t>> by_dept;
    for (std::size_t s = 0; s < kSessions; ++s) {
      by_dept[session_dept(s)].push_back(s);
    }

    // Live employees and their departments, tracked while generating so
    // every write targets an entry that exists at that point of the stream.
    struct Live {
      fbdr::ldap::Dn dn;
      std::string dept;
    };
    std::vector<Live> live;
    for (const fbdr::workload::EmployeeInfo& info : dir.employees) {
      const fbdr::ldap::EntryPtr entry = dir.master->dit().find(info.dn);
      live.push_back({info.dn, std::string(entry->first("departmentnumber"))});
    }

    std::mt19937_64 rng(derive_seed(seed, 2));
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick_dept(0, depts_.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_session(0, kSessions - 1);
    std::uniform_int_distribution<int> phone(1000000, 9999999);
    writes_.clear();
    op_writes_.assign(ops + 1, 0);
    polls_.assign(ops, {});
    hash_ = InputHash{};
    std::size_t hires = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      std::set<std::string> touched;
      for (std::size_t k = 0; k < kBatch; ++k) {
        std::uniform_int_distribution<std::size_t> pick_live(0, live.size() - 1);
        Live& target = live[pick_live(rng)];
        touched.insert(target.dept);
        const double kind = coin(rng);
        Write write;
        write.dn = target.dn;
        if (kind < 0.6) {  // routine attribute change
          write.mods = {{fbdr::server::Modification::Op::Replace, "telephonenumber",
                         {std::to_string(phone(rng))}}};
        } else if (kind < 0.85) {  // transfer to another department
          target.dept = depts_[pick_dept(rng)];
          touched.insert(target.dept);
          write.mods = {{fbdr::server::Modification::Op::Replace, "departmentnumber",
                         {target.dept}}};
        } else {  // leaver replaced by a new hire in the same country
          write.kind = Write::Kind::Remove;
          writes_.push_back(write);
          hash_.add(write.dn.to_string());
          const std::string cn = "h" + std::to_string(hires++);
          auto entry = std::make_shared<fbdr::ldap::Entry>(
              target.dn.parent().child(fbdr::ldap::Rdn("cn", cn)));
          entry->add_value("objectclass", "inetOrgPerson");
          entry->add_value("cn", cn);
          entry->add_value("sn", "hire" + cn);
          entry->add_value("serialNumber", cn);
          target.dept = depts_[pick_dept(rng)];
          entry->add_value("departmentNumber", target.dept);
          touched.insert(target.dept);
          target.dn = entry->dn();
          write = Write{};
          write.kind = Write::Kind::Add;
          write.dn = entry->dn();
          write.entry = std::move(entry);
        }
        hash_.add(write.dn.to_string());
        writes_.push_back(std::move(write));
      }
      op_writes_[i + 1] = writes_.size();

      std::set<std::size_t> changed;
      for (const std::string& dept : touched) {
        const auto it = by_dept.find(dept);
        if (it != by_dept.end()) changed.insert(it->second.begin(), it->second.end());
      }
      std::vector<std::size_t>& poll = polls_[i];
      poll.assign(changed.begin(), changed.end());
      std::set<std::size_t> idle;
      while (idle.size() < kIdleSample) {
        const std::size_t s = pick_session(rng);
        if (changed.count(s) == 0) idle.insert(s);
      }
      poll.insert(poll.end(), idle.begin(), idle.end());
      for (const std::size_t s : poll) hash_.add(s);
    }
  }

  std::uint64_t inputs_hash() const override { return hash_.value(); }

  void setup() override {
    auto sys = std::make_unique<System>();
    sys->dir = fbdr::workload::generate_directory(directory_config());
    sys->master = std::make_unique<fbdr::resync::ReSyncMaster>(*sys->dir.master);
    sys->master->set_pump_shards(kShards);
    sys->master->set_pump_threads(kPumpThreads);
    sys->endpoint = std::make_unique<TimedEndpoint>(*sys->master);
    sys->channel = std::make_unique<fbdr::net::DirectChannel>(*sys->endpoint);
    const std::int64_t start = Tracer::now_ns();
    for (std::size_t s = 0; s < kSessions; ++s) {
      auto session = std::make_unique<fbdr::resync::ReSyncReplica>(
          *sys->channel, session_query(s));
      session->start(fbdr::resync::Mode::Poll);
      sys->sessions.push_back(std::move(session));
    }
    admit_us_.push_back(static_cast<double>(Tracer::now_ns() - start) / 1e3 /
                        static_cast<double>(kSessions));
    system_ = std::move(sys);
  }

  void teardown() override { system_.reset(); }

  bool run(std::size_t i) override {
    System& sys = *system_;
    for (std::size_t w = op_writes_[i]; w < op_writes_[i + 1]; ++w) {
      ScopedSpan span("server.write");
      apply(*sys.dir.master, writes_[w]);
    }
    {
      ScopedSpan span("resync.pump");
      sys.master->pump();
    }
    for (const std::size_t s : polls_[i]) {
      ScopedSpan span("resync.poll");
      sys.sessions[s]->poll();
    }
    return true;
  }

  bool verify(std::size_t i) override {
    // Every 16th op: one DIT pass answers every department at once, which
    // keeps the checks a fraction of the op time.
    if (i % 16 != 0) return true;
    const auto truth = evaluate_all();
    for (const std::size_t s : polls_[i]) {
      if (!check_session(s, truth)) return false;
    }
    return true;
  }

  bool verify_final() override {
    const auto truth = evaluate_all();
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!check_session(s, truth)) return false;
    }
    return true;
  }

  Counters counters() const override {
    const System& sys = *system_;
    Counters out;
    out.wire_bytes = static_cast<double>(sys.master->traffic().bytes);
    out.lookups = static_cast<double>(sys.endpoint->handled());
    out.hits = static_cast<double>(sys.endpoint->empty());
    const fbdr::sync::ChangeRouter::Stats routing = sys.master->routing_stats();
    out.layer["sync.router_candidates"] = static_cast<double>(routing.candidates);
    out.layer["sync.router_exhaustive"] = static_cast<double>(routing.exhaustive);
    return out;
  }

  std::size_t changes_in_op(std::size_t i) const override {
    return op_writes_[i + 1] - op_writes_[i];
  }
  double admit_us_per_session() const override { return median(admit_us_); }

 private:
  const std::string& session_dept(std::size_t s) const {
    return depts_[s % depts_.size()];
  }

  Query session_query(std::size_t s) const {
    return Query::parse("o=ibm", fbdr::ldap::Scope::Subtree,
                        "(departmentnumber=" + session_dept(s) + ")");
  }

  /// The master's answer for every department filter, from one DIT pass.
  std::map<std::string, std::vector<fbdr::ldap::EntryPtr>> evaluate_all() const {
    std::map<std::string, std::vector<fbdr::ldap::EntryPtr>> out;
    system_->dir.master->dit().for_each([&](const fbdr::ldap::EntryPtr& entry) {
      if (const auto* values = entry->get("departmentnumber")) {
        for (const std::string& value : *values) out[value].push_back(entry);
      }
    });
    return out;
  }

  bool check_session(
      std::size_t s,
      const std::map<std::string, std::vector<fbdr::ldap::EntryPtr>>& truth) {
    const auto it = truth.find(session_dept(s));
    std::vector<fbdr::ldap::EntryPtr> want;
    if (it != truth.end()) want = it->second;
    std::string what;
    if (!same_entries(system_->sessions[s]->content().entries(), want, &what)) {
      std::fprintf(stderr, "session_fanout: session %zu (%s): %s\n", s,
                   session_dept(s).c_str(), what.c_str());
      return false;
    }
    return true;
  }

  std::vector<std::string> depts_;
  std::vector<Write> writes_;
  std::vector<std::size_t> op_writes_;  // op i applies writes [op_writes_[i], op_writes_[i+1])
  std::vector<std::vector<std::size_t>> polls_;
  InputHash hash_;
  std::unique_ptr<System> system_;
  std::vector<double> admit_us_;  // per set-up
};

}  // namespace

std::unique_ptr<Workload> make_session_fanout() {
  return std::make_unique<SessionFanout>();
}

}  // namespace perfbench
