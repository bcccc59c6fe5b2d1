#pragma once

// In-memory span recorder for the traced run. Spans are opened around calls
// into the library's public functions and seams (see seams.h); each carries
// a name, start, end, its parent span and the id of the op it belongs to.
// Nothing is recorded while no op is active, so set-up, warm-up and
// verification leave no spans. Records stay in memory until take().

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span (the op itself)
  std::uint64_t op = 0;
  const char* name = "";     // static string: span names are literals
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& global();

  /// Marks the calling thread as the load generator. A span opened on any
  /// other thread with nothing open there (the epoll loop serving a socket
  /// request) is parented to the generator's innermost open span: the load
  /// is closed-loop, so the generator is blocked inside that span while the
  /// other thread serves it.
  void bind_generator_thread();

  /// Starts attributing spans to op `op`; 0 stops recording.
  void set_op(std::uint64_t op) { op_.store(op, std::memory_order_release); }
  std::uint64_t op() const { return op_.load(std::memory_order_acquire); }

  /// Moves the recorded spans out.
  std::vector<SpanRecord> take();

  static std::int64_t now_ns();

 private:
  friend class ScopedSpan;
  void record(const SpanRecord& span);

  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> generator_top_{0};
  std::mutex mutex_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// Records one span from construction to destruction when an op is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Renames the span before it closes (hit/miss known only afterwards).
  void rename(const char* name) { record_.name = name; }

 private:
  SpanRecord record_;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the length of the union of its children's intervals inside it.
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

/// Self time summed per span name.
std::map<std::string, std::int64_t> self_time_by_name(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as CSV (id,parent,op,name,start_ns,end_ns). Returns
/// false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
