// Benchmark runner. One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// It generates every input from the seed, then runs ten passes, each with
// all its threads pinned to the next CPU in turn. Each pass sets the system
// up afresh (timed; setup_s is the median over the passes), warms up, then
// runs the same fixed sequence of timed ops, each followed by an untimed
// correctness check. A run executes S x the workload's nominal rate timed
// ops in all, at least 2000, split evenly over the passes. Every op's
// latency is its best over the passes, so a slow spell of the host (other
// tenants contending for caches and memory, which makes memory-bound code
// up to twice as slow for seconds at a time) moves the figures only where
// it covers the same op in every pass. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 one op of each consecutive pair (a
// seeded pick, the same in every pass) records spans and it reports
// per-layer metrics instead, its latency figures taken from the untraced
// half. The last stdout line is the result JSON; a fuller report (host, op
// counts, threads, sample counts) and, when tracing, the spans go to
// .bench_run/ under the working directory. Exit status 1 on any failed or
// mis-verified op, 2 on bad arguments.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

/// Reports, spans and Unix sockets live here, relative to the working
/// directory (a relative path keeps socket paths short).
constexpr const char* kOutDir = ".bench_run";

/// Passes per run: each sets the system up afresh and replays the same ops.
constexpr std::size_t kPasses = 10;

/// Timed op executions per run, over all passes, at the least: the 1000
/// untraced ones of a traced run leave ten samples beyond their p99.
constexpr std::size_t kMinExecutions = 2000;

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      const unsigned long long seconds = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || seconds == 0 || seconds > 3600) {
        return false;
      }
      args.seconds = static_cast<std::size_t>(seconds);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "tree_propagate") return make_tree_propagate();
  if (name == "session_fanout") return make_session_fanout();
  if (name == "replica_serve") return make_replica_serve();
  if (name == "stale_recovery") return make_stale_recovery();
  return nullptr;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// The CPUs the process may run on.
std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread, and so every thread it starts later, to one
/// CPU. The generator and a server thread then hand each call over on that
/// CPU: a hand-over to another, idle CPU waits for the hypervisor to wake
/// that virtual CPU, a delay of tens of microseconds that follows the
/// host's load rather than the program. Returns false when refused.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Starts peak-RSS tracking afresh from the current resident set, so the
/// peak covers set-up and ops but not input generation. Returns false when
/// the kernel refuses, leaving the whole process's peak in place.
bool reset_peak_rss() {
  malloc_trim(0);  // hand the generators' freed memory back first
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Peak resident set in MB since the last reset_peak_rss() (the process's
/// VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // VmHWM is kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Adds what the counters grew by between `before` and `after` to `total`.
void accumulate(Counters& total, const Counters& before, const Counters& after) {
  total.wire_bytes += after.wire_bytes - before.wire_bytes;
  total.hits += after.hits - before.hits;
  total.lookups += after.lookups - before.lookups;
  for (const auto& [name, value] : after.layer) {
    const auto b = before.layer.find(name);
    total.layer[name] += value - (b == before.layer.end() ? 0.0 : b->second);
  }
}

double layer_count(const Counters& counters, const std::string& name) {
  const auto it = counters.layer.find(name);
  return it == counters.layer.end() ? 0.0 : it->second;
}

/// Span name -> per-layer metric reporting its self time per traced op.
const std::map<std::string, std::string>& layer_spans() {
  static const std::map<std::string, std::string> spans = {
      {"op", "bench.unattributed_us"},
      {"server.write", "server.write_us"},
      {"resync.pump", "resync.pump_us"},
      {"resync.handle", "resync.handle_us"},
      {"resync.poll", "resync.poll_us"},
      {"wire.client_codec", "wire.client_codec_us"},
      {"wire.server_codec", "wire.server_codec_us"},
      {"netio.socket", "netio.socket_us"},
      {"topology.relay_sync.d1", "topology.relay_sync_us.d1"},
      {"topology.relay_sync.d2", "topology.relay_sync_us.d2"},
      {"topology.relay_sync.d3", "topology.relay_sync_us.d3"},
      {"core.serve_hit", "core.serve_hit_us"},
      {"core.serve_miss", "core.serve_miss_us"},
      {"core.sync", "core.sync_us"},
  };
  return spans;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(kOutDir);
  const std::vector<int> cpus = usable_cpus();

  const std::size_t passes = kPasses;
  const std::size_t executions = std::max<std::size_t>(
      kMinExecutions, static_cast<std::size_t>(workload->ops_per_second() *
                                               static_cast<double>(args.seconds)));
  const std::size_t timed_ops = (executions + passes - 1) / passes;
  const std::size_t warmup_ops = std::max<std::size_t>(20, timed_ops / 10);
  const std::size_t total_ops = warmup_ops + timed_ops;

  const std::int64_t gen_start = Tracer::now_ns();
  workload->generate(args.seed, total_ops);
  const double generate_s = static_cast<double>(Tracer::now_ns() - gen_start) / 1e9;
  std::fprintf(stderr, "# %s inputs of %zu ops: %.3f s\n", args.workload.c_str(),
               total_ops, generate_s);
  const bool rss_from_setup = reset_peak_rss();
  if (!rss_from_setup) {
    std::fprintf(stderr, "# cannot reset the peak RSS: peak_rss_mb includes "
                         "input generation\n");
  }

  std::size_t failed = 0;
  std::int64_t verify_ns = 0;
  const auto attempt = [&](std::size_t i, const std::function<bool()>& op) {
    bool ok = false;
    try {
      ok = op();
      const std::int64_t start = Tracer::now_ns();
      ok = workload->verify(i) && ok;
      verify_ns += Tracer::now_ns() - start;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: op %zu threw: %s\n", args.workload.c_str(), i,
                   error.what());
    }
    if (!ok) ++failed;
  };

  // A traced run traces one op of each consecutive pair, a seeded pick, so
  // exactly half the ops are traced without aliasing with a workload's
  // periodic ops. The other half runs untraced: it gives the latency
  // figures and, against the traced half, the tracing overhead.
  std::vector<bool> traced(timed_ops, false);
  if (args.trace) {
    std::mt19937_64 rng(derive_seed(args.seed, 99));
    std::bernoulli_distribution coin(0.5);
    for (std::size_t j = 0; j + 1 < timed_ops; j += 2) {
      traced[coin(rng) ? j + 1 : j] = true;
    }
  }
  Tracer& tracer = Tracer::global();
  tracer.bind_generator_thread();

  std::vector<double> setup_times;
  std::string pass_cpus;                // the CPU of each pass, for the report
  std::vector<double> best_us;          // per timed op, its best over the passes
  std::vector<double> untraced_all_us;  // every untraced execution, for the p99
  double traced_sum_us = 0.0;           // every traced execution
  Counters grown;                       // counter growth summed over the passes
  double timed_wall_s = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    workload->teardown();
    // Each pass runs on the next CPU in turn: on a shared host one virtual
    // CPU can run slower than the others for tens of seconds, and an op's
    // best over the passes then comes from another.
    int cpu = -1;
    if (!cpus.empty() && pin_to(cpus[pass % cpus.size()])) cpu = cpus[pass % cpus.size()];
    pass_cpus += (pass > 0 ? ", " : "") + std::to_string(cpu);
    const std::int64_t setup_start = Tracer::now_ns();
    workload->setup();
    setup_times.push_back(static_cast<double>(Tracer::now_ns() - setup_start) / 1e9);
    std::fprintf(stderr, "# %s pass %zu on cpu %d set-up: %.3f s\n",
                 args.workload.c_str(), pass + 1, cpu, setup_times.back());

    for (std::size_t i = 0; i < warmup_ops; ++i) {
      workload->prepare(i);
      attempt(i, [&] { return workload->run(i); });
    }

    const Counters before = workload->counters();
    const std::int64_t timed_start = Tracer::now_ns();
    std::vector<double> latency_us(timed_ops, 0.0);
    for (std::size_t j = 0; j < timed_ops; ++j) {
      const std::size_t i = warmup_ops + j;
      workload->prepare(i);
      attempt(i, [&] {
        const std::int64_t start = Tracer::now_ns();
        bool ok = false;
        if (traced[j]) {
          tracer.set_op(pass * total_ops + i + 1);
          {
            ScopedSpan span("op");
            ok = workload->run(i);
          }
          tracer.set_op(0);
        } else {
          ok = workload->run(i);
        }
        latency_us[j] = static_cast<double>(Tracer::now_ns() - start) / 1e3;
        return ok;
      });
    }
    timed_wall_s += static_cast<double>(Tracer::now_ns() - timed_start) / 1e9;
    accumulate(grown, before, workload->counters());
    for (std::size_t j = 0; j < timed_ops; ++j) {
      if (traced[j]) {
        traced_sum_us += latency_us[j];
      } else {
        untraced_all_us.push_back(latency_us[j]);
      }
    }
    keep_fastest(best_us, latency_us);
    std::fprintf(stderr, "# %s pass %zu: p50 %.1f us, best-so-far p50 %.1f us\n",
                 args.workload.c_str(), pass + 1, nearest_rank(latency_us, 50.0).value,
                 nearest_rank(best_us, 50.0).value);

    bool final_ok = false;
    try {
      final_ok = workload->verify_final();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: final check threw: %s\n", args.workload.c_str(),
                   error.what());
    }
    if (!final_ok) {
      std::fprintf(stderr, "%s: final content check failed in pass %zu\n",
                   args.workload.c_str(), pass + 1);
      ++failed;
    }
  }
  const double peak_mb = peak_rss_mb();
  workload->teardown();

  // Latency figures cover the untraced ops only: all of them in an
  // untraced run, half in a traced one.
  std::vector<double> untraced_best_us;
  std::vector<double> traced_best_us;
  for (std::size_t j = 0; j < timed_ops; ++j) {
    (traced[j] ? traced_best_us : untraced_best_us).push_back(best_us[j]);
  }
  const Percentile p50 = nearest_rank(untraced_best_us, 50.0);
  const Percentile p90 = nearest_rank(untraced_best_us, 90.0);
  const Percentile p99 = nearest_rank(untraced_all_us, 99.0);
  if (!p90.ok || !p99.ok) {
    std::fprintf(stderr, "%s: %zu untraced ops are too few for a p90 or p99\n",
                 args.workload.c_str(), untraced_best_us.size());
    return 2;
  }
  double best_sum_s = 0.0;
  for (const double us : untraced_best_us) best_sum_s += us / 1e6;
  std::fprintf(stderr, "# %s timed phases: %.3f s wall, %.3f s in checks\n",
               args.workload.c_str(), timed_wall_s,
               static_cast<double>(verify_ns) / 1e9);
  const auto runs = static_cast<double>(timed_ops * passes);
  const auto per_pass = static_cast<double>(passes);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"latency_p50_us", p50.value, "us"},
        {"wire_bytes_per_op", grown.wire_bytes / runs, "bytes"},
        {"hit_ratio", ratio(grown.hits, grown.lookups), "ratio"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"setup_s", median(setup_times), "s"},
    };
  } else {
    std::vector<SpanRecord> spans = tracer.take();
    const std::map<std::string, std::int64_t> self = self_time_by_name(spans);
    double traced_changes = 0.0;
    double timed_changes = 0.0;
    for (std::size_t j = 0; j < timed_ops; ++j) {
      const auto changes = static_cast<double>(workload->changes_in_op(warmup_ops + j));
      timed_changes += changes * per_pass;
      if (traced[j]) traced_changes += changes * per_pass;
    }
    const double traced_runs = static_cast<double>(traced_best_us.size()) * per_pass;
    const auto self_us = [&](const std::string& span) {
      const auto it = self.find(span);
      return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e3;
    };
    for (const auto& [span, metric] : layer_spans()) {
      metrics.push_back({metric, ratio(self_us(span), traced_runs), "us"});
    }
    const double candidates = layer_count(grown, "sync.router_candidates");
    const double exhaustive = layer_count(grown, "sync.router_exhaustive");
    const double frames = layer_count(grown, "wire.frames");
    const std::vector<Metric> more = {
        {"bench.op_mean_us", ratio(traced_sum_us, traced_runs), "us"},
        {"bench.latency_p90_us", p90.value, "us"},
        {"bench.latency_p99_us", p99.value, "us"},
        {"bench.ops_per_s", ratio(static_cast<double>(untraced_best_us.size()), best_sum_s),
         "1/s"},
        // Medians: a rare heavy op (a replica_serve revolution) lands in
        // one half or the other and would swamp a difference of means.
        {"bench.tracing_overhead_us", median(traced_best_us) - median(untraced_best_us),
         "us"},
        {"resync.pump_us_per_change", ratio(self_us("resync.pump"), traced_changes),
         "us"},
        {"resync.admit_us_per_session", workload->admit_us_per_session(), "us"},
        {"sync.router_candidates_per_change", ratio(candidates, timed_changes),
         "count"},
        {"sync.router_prune_ratio",
         exhaustive > 0.0 ? 1.0 - candidates / exhaustive : 0.0, "ratio"},
        {"wire.frames_per_op", frames / runs, "count"},
        {"wire.bytes_per_frame", ratio(layer_count(grown, "wire.bytes"), frames),
         "bytes"},
        // Counts per pass: every pass replays the same ops.
        {"netio.frames_in", layer_count(grown, "netio.frames_in") / per_pass, "count"},
        {"netio.backpressure_pauses",
         layer_count(grown, "netio.backpressure_pauses") / per_pass, "count"},
        {"select.revolutions", layer_count(grown, "select.revolutions") / per_pass,
         "count"},
        {"resync.reconcile_entries_shipped",
         layer_count(grown, "resync.reconcile_entries_shipped") / per_pass, "count"},
        {"resync.full_reloads", layer_count(grown, "resync.full_reloads") / per_pass,
         "count"},
        {"resync.reconcile_fallbacks",
         layer_count(grown, "resync.reconcile_fallbacks") / per_pass, "count"},
        {"resync.recover_bytes_vs_reload",
         ratio(layer_count(grown, "resync.recover_bytes"),
               layer_count(grown, "resync.reload_bytes")),
         "ratio"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());

    const std::string span_path = std::string(kOutDir) + "/spans-" + args.workload + "-seed" +
                                  std::to_string(args.seed) + ".csv";
    if (!write_spans(span_path, spans)) {
      std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
    }
    // Layer self times of the traced ops add up to their op time by
    // construction (the op span's own self time is the unattributed part).
    double accounted_us = 0.0;
    for (const auto& [name, ns] : self) accounted_us += static_cast<double>(ns) / 1e3;
    std::printf("# spans=%zu traced_executions=%.0f accounted_us_per_op=%.3f "
                "op_mean_us=%.3f unattributed_share=%.4f\n",
                spans.size(), traced_runs, ratio(accounted_us, traced_runs),
                ratio(traced_sum_us, traced_runs),
                unattributed_share(static_cast<std::int64_t>(self_us("op") * 1e3),
                                   static_cast<std::int64_t>(accounted_us * 1e3)));
  }

  const bool correct = failed == 0;
  const std::size_t attempted = total_ops * passes;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  // The full report: host, inputs, op counts and sample counts.
  std::string setups = "[";
  for (std::size_t k = 0; k < setup_times.size(); ++k) {
    setups += (k > 0 ? ", " : "") + json_number(setup_times[k]);
  }
  setups += "]";
  char inputs_hash[32];
  std::snprintf(inputs_hash, sizeof inputs_hash, "%016llx",
                static_cast<unsigned long long>(workload->inputs_hash()));
  const std::string host =
      "{\"git_sha\": " + json_string(args.git_sha) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + json_string(cpu_model()) + "}";
  const std::string report =
      "{\"workload\": " + json_string(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "true" : "false") +
      ", \"host\": " + host +
      ", \"threads\": " + std::to_string(workload->threads()) +
      ", \"pass_cpus\": [" + pass_cpus + "]" +
      ", \"inputs_hash\": " + json_string(inputs_hash) +
      ", \"passes\": " + std::to_string(passes) +
      ", \"warmup_ops\": " + std::to_string(warmup_ops) +
      ", \"timed_ops\": " + std::to_string(timed_ops) +
      ", \"latency_samples\": " + std::to_string(p50.samples) +
      ", \"best_p50_us\": " + json_number(p50.value) +
      ", \"best_p90_us\": " + json_number(p90.value) +
      ", \"all_p99_us\": " + json_number(p99.value) +
      ", \"p99_samples\": " + std::to_string(p99.samples) +
      ", \"p99_samples_beyond\": " + std::to_string(p99.beyond) +
      ", \"generate_s\": " + json_number(generate_s) +
      ", \"peak_rss_excludes_generation\": " + (rss_from_setup ? "true" : "false") +
      ", \"setup_s_each\": " + setups +
      ", \"failed_op_ratio\": " + json_number(static_cast<double>(failed) /
                                              static_cast<double>(attempted)) +
      ", \"result\": " + result + "}";
  const std::string report_path = std::string(kOutDir) + "/report-" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream(report_path) << report << "\n";

  std::printf("# host %s\n", host.c_str());
  std::printf("# workload=%s seed=%llu threads=%zu inputs_hash=%s passes=%zu "
              "warmup_ops=%zu timed_ops=%zu failed=%zu report=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              workload->threads(), inputs_hash, passes, warmup_ops, timed_ops, failed,
              report_path.c_str());
  for (const Metric& metric : metrics) {
    std::printf("# %-36s %16.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
