#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
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
  while (count.load() < kTasks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
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

TEST(ParallelForTest, DeadlineSkipsChunksClaimedAfterIt) {
  ExecOptions options;
  options.threads = 1;
  int executed = 0;

  // A deadline already past: no chunk of the region runs.
  ExecContext past(options);
  past.set_deadline(std::chrono::steady_clock::now());
  ASSERT_TRUE(ParallelForChunks(&past, 10, 1, [&](size_t, size_t) -> Status {
                ++executed;
                return Status::OK();
              }).ok());
  EXPECT_TRUE(past.cancelled());
  EXPECT_EQ(executed, 0);

  // A deadline reached while the first chunk runs: every chunk claimed
  // after it is skipped.
  ExecContext mid(options);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  mid.set_deadline(deadline);
  EXPECT_FALSE(mid.cancelled());
  ASSERT_TRUE(ParallelForChunks(&mid, 10, 1, [&](size_t, size_t) -> Status {
                ++executed;
                std::this_thread::sleep_until(deadline +
                                              std::chrono::milliseconds(1));
                return Status::OK();
              }).ok());
  EXPECT_TRUE(mid.cancelled());
  EXPECT_EQ(executed, 1);
}

// No context starts a thread: serve builds one context per request, and
// the chunks of every context's regions run on their callers and the
// process pool's workers only. Kernel thread ids are not reused as soon
// as `std::thread::id`s may be.
TEST(ParallelForTest, ContextsStartNoThreads) {
  std::mutex mu;
  std::set<long> tids;
  for (int i = 0; i < 20; ++i) {
    ExecOptions options;
    options.threads = 4;
    ExecContext ctx(options);
    Status st = ParallelForChunks(&ctx, 64, 1, [&](size_t, size_t) -> Status {
      // Long enough that every thread the region can use runs a chunk.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      const long tid = syscall(SYS_gettid);
      std::lock_guard<std::mutex> lock(mu);
      tids.insert(tid);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
  }
  EXPECT_LE(tids.size(), std::max(1u, std::thread::hardware_concurrency()));
}

// Two callers run regions at once on the one pool: each caller runs only
// chunks of its own region, every chunk runs once, and both sums equal
// the null-context sum.
TEST(ParallelForTest, ConcurrentRegionsShareThePool) {
  constexpr size_t kChunks = 256;
  constexpr size_t kGrain = 4;
  std::vector<double> values;
  Rng rng(13);
  for (size_t i = 0; i < kChunks * kGrain; ++i) {
    values.push_back(rng.UniformDouble() - 0.5);
  }
  auto chunk_sum = [&](size_t b, size_t e) {
    double s = 0.0;
    for (size_t i = b; i < e; ++i) s += values[i];
    return s;
  };
  std::atomic<int> ready{0};
  std::thread::id callers[2];
  std::vector<std::thread::id> runners[2];
  std::vector<std::atomic<int>> hits[2];
  double sums[2] = {0.0, 0.0};
  auto run = [&](int r) {
    callers[r] = std::this_thread::get_id();
    runners[r].resize(kChunks);
    hits[r] = std::vector<std::atomic<int>>(kChunks);
    ExecOptions options;
    options.threads = 0;
    ExecContext ctx(options);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    Result<double> sum = ParallelSumChunks(
        &ctx, values.size(), kGrain,
        [&, r](size_t b, size_t e) -> Result<double> {
          runners[r][b / kGrain] = std::this_thread::get_id();
          hits[r][b / kGrain].fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return chunk_sum(b, e);
        });
    ASSERT_TRUE(sum.ok());
    sums[r] = *sum;
  };
  std::thread first(run, 0);
  std::thread second(run, 1);
  first.join();
  second.join();

  Result<double> expected = ParallelSumChunks(
      nullptr, values.size(), kGrain,
      [&](size_t b, size_t e) -> Result<double> { return chunk_sum(b, e); });
  ASSERT_TRUE(expected.ok());
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(sums[r], *expected) << "region " << r;
    for (size_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(hits[r][c].load(), 1) << "region " << r << ", chunk " << c;
      EXPECT_NE(runners[r][c], callers[1 - r])
          << "region " << r << ", chunk " << c << " ran on the other caller";
    }
  }
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

  ExecOptions all;
  all.threads = 0;  // hardware concurrency
  ExecContext b(all);
  EXPECT_GE(b.num_threads(), 1u);

  ExecOptions pinned;
  pinned.threads = 3;
  ExecContext c(pinned);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(c.num_threads(), std::min<size_t>(3, cores));
}

// `threads` 0 and every count above the host's cores resolve to the
// host's cores. Building a context starts no thread, so asking for 1024
// is harmless.
TEST(ExecContextTest, CapsThreadsAtTheHostCores) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  for (size_t asked : {size_t{0}, size_t{1}, size_t{3}, cores, cores + 1,
                       size_t{1024}}) {
    SCOPED_TRACE("threads " + std::to_string(asked));
    ExecOptions options;
    options.threads = asked;
    ExecContext ctx(options);
    EXPECT_EQ(ctx.num_threads(), asked == 0 ? cores : std::min(asked, cores));
  }
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
