#pragma once

// The contract between the runner (main.cpp) and one benchmark workload.
// The runner generates inputs, then runs several passes: each sets the
// system up afresh (setup_s is their median), runs a warm-up, then the same
// fixed sequence of timed ops, each followed by an untimed correctness
// check.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Cumulative counts read from the library's public stats before and after
/// the timed phase; the metrics are their differences.
struct Counters {
  double wire_bytes = 0.0;  // replication bytes on the workload's links
  double hits = 0.0;        // hit_ratio numerator
  double lookups = 0.0;     // hit_ratio denominator
  /// Per-layer counts by raw name (see main.cpp for the metrics built from
  /// them): wire.frames, wire.bytes, netio.frames_in,
  /// netio.backpressure_pauses, sync.router_candidates,
  /// sync.router_exhaustive, select.revolutions,
  /// resync.reconcile_entries_shipped, resync.full_reloads,
  /// resync.reconcile_fallbacks, resync.recover_bytes, resync.reload_bytes.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads this workload runs in total, the generator included.
  virtual std::size_t threads() const = 0;
  /// Timed ops per requested second, fixed per workload so a run's work
  /// depends only on its arguments, never on how fast the host is.
  virtual double ops_per_second() const = 0;

  /// Builds the inputs of `ops` ops from `seed`. Untimed.
  virtual void generate(std::uint64_t seed, std::size_t ops) = 0;
  /// Digest of the generated inputs.
  virtual std::uint64_t inputs_hash() const = 0;
  /// Builds a fresh system under test. Timed.
  virtual void setup() = 0;
  /// Destroys the system under test, if any. Untimed: the runner calls it
  /// between set-ups, so a set-up's time never includes tearing down the
  /// previous one.
  virtual void teardown() = 0;
  /// Untimed preparation of op `i`.
  virtual void prepare(std::size_t i) { (void)i; }
  /// Op `i`; the whole call is timed. False when the op failed.
  virtual bool run(std::size_t i) = 0;
  /// Untimed check of op `i`'s outputs. False when they are wrong.
  virtual bool verify(std::size_t i) = 0;
  /// Check of the whole system after the last op.
  virtual bool verify_final() = 0;
  virtual Counters counters() const = 0;
  /// Journal records op `i` applies at the root (pump cost denominator).
  virtual std::size_t changes_in_op(std::size_t i) const { (void)i; return 0; }
  /// Mean admission time per session, median over the set-ups, in µs (0
  /// when the workload admits no sessions in bulk).
  virtual double admit_us_per_session() const { return 0.0; }
};

std::unique_ptr<Workload> make_tree_propagate();
std::unique_ptr<Workload> make_session_fanout();
std::unique_ptr<Workload> make_replica_serve();
std::unique_ptr<Workload> make_stale_recovery();

}  // namespace perfbench
