#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace anonsafe {
namespace exec {
namespace {

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  const int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  // The caller lends a hand, then waits for the workers to finish.
  while (pool.TryRunOneTask()) {
  }
  while (count.load() < kTasks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(pool.ApproxPendingTasks(), 0u);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesCallers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  std::atomic<bool> saw_worker{false};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    saw_worker.store(ThreadPool::OnWorkerThread());
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_worker.load());
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// ------------------------------------------------------ ParallelForChunks

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ExecOptions options;
  options.threads = 4;
  ExecContext ctx(options);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  Status st = ParallelForChunks(&ctx, n, 17,
                                [&](size_t begin, size_t end) -> Status {
                                  for (size_t i = begin; i < end; ++i) {
                                    hits[i].fetch_add(1);
                                  }
                                  return Status::OK();
                                });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, NullContextRunsSequentiallyInOrder) {
  std::vector<size_t> begins;
  Status st = ParallelForChunks(nullptr, 10, 3,
                                [&](size_t begin, size_t) -> Status {
                                  begins.push_back(begin);
                                  return Status::OK();
                                });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(begins, (std::vector<size_t>{0, 3, 6, 9}));
}

TEST(ParallelForTest, ZeroItemsNeverInvokesBody) {
  ExecOptions options;
  options.threads = 4;
  ExecContext ctx(options);
  bool called = false;
  Status st = ParallelForChunks(&ctx, 0, 8, [&](size_t, size_t) -> Status {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, LowestChunkErrorWins) {
  ExecOptions options;
  options.threads = 4;
  ExecContext ctx(options);
  Status st = ParallelForChunks(&ctx, 8, 1,
                                [&](size_t begin, size_t) -> Status {
                                  if (begin >= 2) {
                                    return Status::InvalidArgument(
                                        "chunk " + std::to_string(begin));
                                  }
                                  return Status::OK();
                                });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("chunk 2"), std::string::npos) << st;
}

TEST(ParallelForTest, LowestChunkExceptionRethrownOnCaller) {
  ExecOptions options;
  options.threads = 4;
  ExecContext ctx(options);
  try {
    (void)ParallelForChunks(&ctx, 8, 1,
                            [&](size_t begin, size_t) -> Status {
                              if (begin == 3 || begin == 6) {
                                throw std::runtime_error(
                                    "boom " + std::to_string(begin));
                              }
                              return Status::OK();
                            });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ParallelForTest, NestedRegionRunsInlineWithoutDeadlock) {
  ExecOptions options;
  options.threads = 2;
  ExecContext ctx(options);
  std::atomic<int> inner_total{0};
  Status st = ParallelForChunks(&ctx, 4, 1,
                                [&](size_t, size_t) -> Status {
                                  // A nested region on the same context
                                  // must run inline on pool workers.
                                  return ParallelForChunks(
                                      &ctx, 8, 2,
                                      [&](size_t b, size_t e) -> Status {
                                        inner_total.fetch_add(
                                            static_cast<int>(e - b));
                                        return Status::OK();
                                      });
                                });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

// A nested region runs inline on whichever thread runs its enclosing
// chunk, the caller helping to drain the outer region included: none of
// its chunks lands on another thread.
TEST(ParallelForTest, NestedChunksRunOnTheThreadOfTheirOuterChunk) {
  ExecOptions options;
  options.threads = 2;
  ExecContext ctx(options);
  constexpr size_t kOuter = 3;
  constexpr size_t kInner = 8;
  const std::thread::id caller = std::this_thread::get_id();
  // Each worker holds its first outer chunk until the caller has taken
  // one, so the caller runs at least one of the three. Only the caller's
  // nested chunks take time, so idle workers would take them if the
  // caller fanned them out.
  std::atomic<bool> caller_started{false};
  std::vector<std::thread::id> outer_ids(kOuter);
  std::vector<std::vector<std::thread::id>> inner_ids(
      kOuter, std::vector<std::thread::id>(kInner));
  Status st = ParallelForChunks(
      &ctx, kOuter, 1, [&](size_t c, size_t) -> Status {
        outer_ids[c] = std::this_thread::get_id();
        const bool on_caller = outer_ids[c] == caller;
        if (on_caller) caller_started.store(true);
        for (int waited = 0; !caller_started.load() && waited < 5000;
             ++waited) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return ParallelForChunks(
            &ctx, kInner, 1, [&, c, on_caller](size_t b, size_t) -> Status {
              inner_ids[c][b] = std::this_thread::get_id();
              if (on_caller) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              return Status::OK();
            });
      });
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(caller_started.load());
  for (size_t c = 0; c < kOuter; ++c) {
    for (size_t b = 0; b < kInner; ++b) {
      EXPECT_EQ(inner_ids[c][b], outer_ids[c])
          << "outer chunk " << c << ", nested chunk " << b
          << (outer_ids[c] == caller ? " (caller)" : " (worker)");
    }
  }
}

TEST(ParallelForTest, CancellationSkipsRemainingChunks) {
  // Sequential context: cancellation after the first chunk must skip
  // every later chunk deterministically.
  ExecOptions options;
  options.threads = 1;
  ExecContext ctx(options);
  int executed = 0;
  Status st = ParallelForChunks(&ctx, 10, 1,
                                [&](size_t, size_t) -> Status {
                                  ++executed;
                                  ctx.RequestCancel();
                                  return Status::OK();
                                });
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(executed, 1);
}

// ----------------------------------------------------- Reductions & seeds

TEST(PairwiseSumTest, MatchesSequentialSum) {
  std::vector<double> values;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) values.push_back(rng.UniformDouble());
  double naive = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(PairwiseSum(values), naive, 1e-9);
  EXPECT_EQ(PairwiseSum(nullptr, 0), 0.0);
  EXPECT_EQ(PairwiseSum(values.data(), 1), values[0]);
}

TEST(ParallelSumTest, BitIdenticalAcrossThreadCounts) {
  std::vector<double> values;
  Rng rng(5);
  for (int i = 0; i < 4096; ++i) values.push_back(rng.UniformDouble() - 0.5);
  auto sum_with = [&](size_t threads) {
    ExecOptions options;
    options.threads = threads;
    ExecContext ctx(options);
    auto r = ParallelSumChunks(&ctx, values.size(), 64,
                               [&](size_t b, size_t e) -> Result<double> {
                                 double s = 0.0;
                                 for (size_t i = b; i < e; ++i) {
                                   s += values[i];
                                 }
                                 return s;
                               });
    EXPECT_TRUE(r.ok());
    return *r;
  };
  double t1 = sum_with(1);
  double t2 = sum_with(2);
  double t8 = sum_with(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ParallelSumTest, FirstChunkErrorWins) {
  ExecOptions options;
  options.threads = 4;
  ExecContext ctx(options);
  auto r = ParallelSumChunks(&ctx, 6, 1,
                             [&](size_t b, size_t) -> Result<double> {
                               if (b >= 1) {
                                 return Status::OutOfRange(
                                     "bad " + std::to_string(b));
                               }
                               return 1.0;
                             });
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad 1"), std::string::npos);
}

TEST(SplitSeedTest, StreamsAreDistinctAndDeterministic) {
  std::set<uint64_t> seen;
  for (uint64_t s = 0; s < 256; ++s) seen.insert(SplitSeed(42, s));
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(SplitSeed(42, 7), SplitSeed(42, 7));
  EXPECT_NE(SplitSeed(42, 7), SplitSeed(43, 7));
}

TEST(ExecContextTest, StreamRngReproducible) {
  ExecOptions options;
  options.seed = 99;
  ExecContext a(options), b(options);
  Rng ra = a.StreamRng(3), rb = b.StreamRng(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ra.UniformUint64(1u << 30), rb.UniformUint64(1u << 30));
  }
}

TEST(ExecContextTest, ResolvesThreadsAndGrain) {
  ExecOptions seq;
  seq.threads = 1;
  ExecContext a(seq);
  EXPECT_EQ(a.num_threads(), 1u);
  EXPECT_EQ(a.pool(), nullptr);
  EXPECT_EQ(a.ResolveGrain(128), 128u);

  ExecOptions all;
  all.threads = 0;  // hardware concurrency
  ExecContext b(all);
  EXPECT_GE(b.num_threads(), 1u);

  ExecOptions pinned;
  pinned.threads = 3;
  pinned.grain = 7;
  ExecContext c(pinned);
  EXPECT_EQ(c.num_threads(), 3u);
  ASSERT_NE(c.pool(), nullptr);
  EXPECT_EQ(c.pool()->num_threads(), 3u);
  EXPECT_EQ(c.ResolveGrain(128), 7u);
}

TEST(NumChunksTest, DependsOnlyOnSizeAndGrain) {
  EXPECT_EQ(NumChunks(0, 8), 0u);
  EXPECT_EQ(NumChunks(1, 8), 1u);
  EXPECT_EQ(NumChunks(8, 8), 1u);
  EXPECT_EQ(NumChunks(9, 8), 2u);
  EXPECT_EQ(NumChunks(5, 0), 5u);  // grain 0 clamps to 1
}

}  // namespace
}  // namespace exec
}  // namespace anonsafe
