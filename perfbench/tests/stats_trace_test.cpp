// Unit tests of the benchmark's statistics and span accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = n; i >= 1; --i) out.push_back(static_cast<double>(i));
  return out;  // descending: nearest_rank must sort
}

TEST(NearestRank, PicksTheCeilRankOfTheSortedSamples) {
  const Percentile p50 = nearest_rank(one_to(100), 50.0);
  ASSERT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p90 = nearest_rank(one_to(101), 90.0);  // rank ceil(90.9) = 91
  ASSERT_TRUE(p90.ok);
  EXPECT_EQ(p90.value, 91.0);
  EXPECT_EQ(p90.beyond, 10u);
}

TEST(NearestRank, RefusesATailWithFewerThanTenSamplesBeyond) {
  const Percentile p90 = nearest_rank(one_to(99), 90.0);  // rank 90, 9 beyond
  EXPECT_FALSE(p90.ok);
  EXPECT_EQ(p90.samples, 99u);
  EXPECT_EQ(p90.beyond, 9u);

  EXPECT_FALSE(nearest_rank(one_to(999), 99.0).ok);
  const Percentile p99 = nearest_rank(one_to(1000), 99.0);
  ASSERT_TRUE(p99.ok);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);

  EXPECT_FALSE(nearest_rank({}, 50.0).ok);
  EXPECT_TRUE(nearest_rank(one_to(3), 50.0, 1).ok);
}

TEST(Covered, MergesOverlapsAndClipsToTheWindow) {
  EXPECT_EQ(covered(0, 100, {}), 0);
  EXPECT_EQ(covered(0, 100, {{10, 20}, {30, 40}}), 20);
  EXPECT_EQ(covered(0, 100, {{10, 50}, {20, 30}, {40, 60}}), 50);  // nested + overlap
  EXPECT_EQ(covered(0, 100, {{-10, 10}, {90, 120}}), 20);          // clipped
  EXPECT_EQ(covered(0, 100, {{10, 20}, {20, 30}}), 20);            // touching
  EXPECT_EQ(covered(0, 100, {{200, 300}}), 0);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                std::int64_t start, std::int64_t end) {
  SpanRecord out;
  out.id = id;
  out.parent = parent;
  out.op = 1;
  out.name = name;
  out.start_ns = start;
  out.end_ns = end;
  return out;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenIncludingOverlaps) {
  // op [0,100) with two overlapping children (other threads) [10,50) and
  // [30,70): the union covers 60, so the op's own time is 40. The first
  // child has a grandchild [20,25).
  const std::vector<SpanRecord> spans = {
      span(1, 0, "op", 0, 100),
      span(2, 1, "a", 10, 50),
      span(3, 1, "b", 30, 70),
      span(4, 2, "c", 20, 25),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 35);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 5);

  const auto by_name = self_time_by_name(spans);
  EXPECT_EQ(by_name.at("op"), 40);
  // Overlapping siblings each keep their own self time, so the layer sum
  // exceeds the op's duration only by the overlap (30..50 counted twice).
  std::int64_t total = 0;
  for (const auto& [name, ns] : by_name) total += ns;
  EXPECT_EQ(total, 120);
}

TEST(SelfTime, SerialChildrenAccountExactlyForTheOp) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, "op", 0, 100), span(2, 1, "a", 0, 30), span(3, 1, "a", 30, 60),
      span(4, 3, "b", 40, 50)};
  const auto by_name = self_time_by_name(spans);
  EXPECT_EQ(by_name.at("op"), 40);
  EXPECT_EQ(by_name.at("a"), 50);
  EXPECT_EQ(by_name.at("b"), 10);
  EXPECT_EQ(by_name.at("op") + by_name.at("a") + by_name.at("b"), 100);
}

TEST(Unattributed, IsTheOpsOwnShareOfItsTime) {
  EXPECT_DOUBLE_EQ(unattributed_share(40, 100), 0.4);
  EXPECT_DOUBLE_EQ(unattributed_share(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(unattributed_share(5, 0), 0.0);
}

TEST(Median, HandlesOddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(KeepFastest, KeepsEachOpsBestSoASlowSpellInOnePassCannotMoveIt) {
  // Three passes over 100 ops of latency 1..100; each pass has a different
  // stretch of 30 ops ten times slower.
  std::vector<double> best;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    std::vector<double> latency;
    for (std::size_t i = 0; i < 100; ++i) {
      const bool slow = i >= 30 * pass && i < 30 * pass + 30;
      latency.push_back((slow ? 10.0 : 1.0) * static_cast<double>(i + 1));
    }
    keep_fastest(best, latency);
  }
  ASSERT_EQ(best.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(best[i], static_cast<double>(i + 1)) << "op " << i;
  }
  const Percentile p50 = nearest_rank(best, 50.0);
  ASSERT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 50.0);
}

TEST(Tracer, RecordsOnlyInsideAnOpAndParentsAcrossThreads) {
  Tracer& tracer = Tracer::global();
  tracer.take();
  tracer.bind_generator_thread();
  { ScopedSpan outside("ignored"); }
  EXPECT_TRUE(tracer.take().empty());

  tracer.set_op(7);
  {
    ScopedSpan op("op");
    ScopedSpan call("call");
    // A server thread serving the generator's blocked call.
    std::thread server([] { ScopedSpan handle("handle"); });
    server.join();
  }
  tracer.set_op(0);
  const std::vector<SpanRecord> spans = tracer.take();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* op = nullptr;
  const SpanRecord* call = nullptr;
  const SpanRecord* handle = nullptr;
  for (const SpanRecord& record : spans) {
    EXPECT_EQ(record.op, 7u);
    const std::string name = record.name;
    if (name == "op") op = &record;
    if (name == "call") call = &record;
    if (name == "handle") handle = &record;
  }
  ASSERT_TRUE(op != nullptr && call != nullptr && handle != nullptr);
  EXPECT_EQ(op->parent, 0u);
  EXPECT_EQ(call->parent, op->id);
  EXPECT_EQ(handle->parent, call->id);
  EXPECT_LE(call->start_ns, handle->start_ns);
  EXPECT_LE(handle->end_ns, call->end_ns);
}

}  // namespace
}  // namespace perfbench
