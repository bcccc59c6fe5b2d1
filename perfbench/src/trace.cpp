#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_open;  // open span ids, innermost last
thread_local bool t_generator = false;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::bind_generator_thread() { t_generator = true; }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& tracer = Tracer::global();
  record_.op = tracer.op();
  if (record_.op == 0) return;
  record_.name = name;
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  if (!t_open.empty()) {
    record_.parent = t_open.back();
  } else if (!t_generator) {
    record_.parent = tracer.generator_top_.load(std::memory_order_acquire);
  }
  t_open.push_back(record_.id);
  if (t_generator) {
    tracer.generator_top_.store(record_.id, std::memory_order_release);
  }
  record_.start_ns = Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (record_.id == 0) return;
  record_.end_ns = Tracer::now_ns();
  Tracer& tracer = Tracer::global();
  t_open.pop_back();
  if (t_generator) {
    tracer.generator_top_.store(t_open.empty() ? 0 : t_open.back(),
                                std::memory_order_release);
  }
  tracer.record(record_);
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto it = children.find(span.id);
    const std::int64_t inside =
        it == children.end() ? 0 : covered(span.start_ns, span.end_ns, it->second);
    out.push_back(duration - inside);
  }
  return out;
}

std::map<std::string, std::int64_t> self_time_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,op,name,start_ns,end_ns\n");
  for (const SpanRecord& span : spans) {
    std::fprintf(file, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
