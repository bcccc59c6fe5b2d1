#pragma once

// Summary statistics of the benchmark: nearest-rank percentiles that refuse
// to report a tail they have too few samples for, interval-union coverage
// (the basis of span self time), the unattributed share of an op and the
// per-op best over repeated passes.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One percentile read from a sample set by nearest rank.
struct Percentile {
  bool ok = false;          // false: refused, too few samples beyond the rank
  double value = 0.0;       // meaningful only when ok
  std::size_t samples = 0;  // sample count the percentile was read from
  std::size_t beyond = 0;   // samples strictly above the chosen rank
};

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `samples`, which need
/// not be sorted: the value at rank ceil(pct/100 * n) of the ascending
/// order. Refused (ok = false) when fewer than `min_beyond` samples lie
/// beyond that rank, so a p99 needs at least 1000 samples by default.
Percentile nearest_rank(std::vector<double> samples, double pct,
                        std::size_t min_beyond = 10);

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the union of `parts`, each clipped to [start, end). Parts may
/// overlap each other (children running on different threads) and may
/// stick out of the window; neither is counted twice or outside.
std::int64_t covered(std::int64_t start, std::int64_t end,
                     std::vector<Interval> parts);

/// Share of `total_ns` that no layer covered: `unattributed_ns / total_ns`,
/// 0 when nothing was measured.
double unattributed_share(std::int64_t unattributed_ns, std::int64_t total_ns);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Folds one pass over the timed ops into `best`: each op keeps the lowest
/// latency any pass measured for it. Every pass replays the same ops on a
/// freshly set-up system, so an op's best is its latency when no other
/// tenant of the host held its caches; a slow spell of the host that covers
/// a stretch of one pass is dropped unless it covers that op in every pass.
/// `best` starts empty and takes the first pass as it is.
void keep_fastest(std::vector<double>& best, const std::vector<double>& pass);

}  // namespace perfbench
