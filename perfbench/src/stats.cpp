#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, double pct,
                        std::size_t min_beyond) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty() || !(pct > 0.0) || pct > 100.0) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.beyond = samples.size() - rank;
  if (out.beyond < min_beyond) return out;
  out.ok = true;
  out.value = samples[rank - 1];
  return out;
}

std::int64_t covered(std::int64_t start, std::int64_t end,
                     std::vector<Interval> parts) {
  std::vector<Interval> clipped;
  clipped.reserve(parts.size());
  for (const Interval& part : parts) {
    const std::int64_t lo = std::max(part.start, start);
    const std::int64_t hi = std::min(part.end, end);
    if (hi > lo) clipped.push_back({lo, hi});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& part : clipped) {
    if (open && part.start <= run_end) {
      run_end = std::max(run_end, part.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = part.start;
    run_end = part.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

double unattributed_share(std::int64_t unattributed_ns, std::int64_t total_ns) {
  if (total_ns <= 0) return 0.0;
  return static_cast<double>(unattributed_ns) / static_cast<double>(total_ns);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

void keep_fastest(std::vector<double>& best, const std::vector<double>& pass) {
  if (best.empty()) {
    best = pass;
    return;
  }
  for (std::size_t i = 0; i < best.size() && i < pass.size(); ++i) {
    best[i] = std::min(best[i], pass[i]);
  }
}

}  // namespace perfbench
