#include "runtime/parallel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace polyast::runtime {
namespace {

TEST(ThreadPool, RunsOnAllThreads) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  pool.runOnAll([&](unsigned tid) { hits[tid]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable across invocations.
  pool.runOnAll([&](unsigned tid) { hits[tid]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, SingleThreadDegenerate) {
  ThreadPool pool(1);
  int calls = 0;
  pool.runOnAll([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(100);
  for (auto& t : touched) t = 0;
  parallelFor(pool, 5, 95, [&](std::int64_t i) { touched[i]++; });
  for (std::int64_t i = 0; i < 100; ++i)
    EXPECT_EQ(touched[i].load(), (i >= 5 && i < 95) ? 1 : 0) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallelFor(pool, 10, 10, [&](std::int64_t) { ++calls; });
  parallelFor(pool, 10, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForBlocked, ChunksPartitionRange) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallelForBlocked(pool, 0, 103, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> g(m);
    chunks.push_back({lo, hi});
  });
  std::sort(chunks.begin(), chunks.end());
  std::int64_t expectNext = 0;
  for (auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expectNext);
    EXPECT_GT(hi, lo);
    expectNext = hi;
  }
  EXPECT_EQ(expectNext, 103);
}

TEST(ParallelReduce, MatchesSequentialSum) {
  ThreadPool pool(4);
  std::int64_t n = 1000;
  std::vector<double> data(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    data[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i % 17);
  // Array reduction: hist[i % 8] += data[i].
  std::vector<double> hist(8, 1.0);  // pre-existing values must be kept
  std::vector<double> want = hist;
  for (std::int64_t i = 0; i < n; ++i)
    want[static_cast<std::size_t>(i % 8)] += data[static_cast<std::size_t>(i)];
  parallelReduce(pool, 0, n, hist.data(), hist.size(),
                 [&](double* priv, std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t i = lo; i < hi; ++i)
                     priv[i % 8] += data[static_cast<std::size_t>(i)];
                 });
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(hist[k], want[k], 1e-9);
}

/// Pipeline correctness: every cell must observe the completed values of
/// its north and west neighbours.
TEST(Pipeline2D, RespectsCellDependences) {
  ThreadPool pool(4);
  std::int64_t R = 37, C = 29;
  std::vector<std::int64_t> grid(static_cast<std::size_t>(R * C), 0);
  auto at = [&](std::int64_t r, std::int64_t c) -> std::int64_t& {
    return grid[static_cast<std::size_t>(r * C + c)];
  };
  pipeline2D(pool, R, C, [&](std::int64_t r, std::int64_t c) {
    std::int64_t north = r > 0 ? at(r - 1, c) : 0;
    std::int64_t west = c > 0 ? at(r, c - 1) : 0;
    at(r, c) = std::max(north, west) + 1;
  });
  // The recurrence computes r + c + 1 when dependences are respected.
  for (std::int64_t r = 0; r < R; ++r)
    for (std::int64_t c = 0; c < C; ++c)
      ASSERT_EQ(at(r, c), r + c + 1) << r << "," << c;
}

TEST(Wavefront2D, ComputesSameRecurrence) {
  ThreadPool pool(4);
  std::int64_t R = 23, C = 31;
  std::vector<std::int64_t> grid(static_cast<std::size_t>(R * C), 0);
  auto at = [&](std::int64_t r, std::int64_t c) -> std::int64_t& {
    return grid[static_cast<std::size_t>(r * C + c)];
  };
  SyncStats stats = wavefront2D(pool, R, C, [&](std::int64_t r,
                                                std::int64_t c) {
    std::int64_t north = r > 0 ? at(r - 1, c) : 0;
    std::int64_t west = c > 0 ? at(r, c - 1) : 0;
    at(r, c) = std::max(north, west) + 1;
  });
  for (std::int64_t r = 0; r < R; ++r)
    for (std::int64_t c = 0; c < C; ++c)
      ASSERT_EQ(at(r, c), r + c + 1);
  // One barrier per diagonal: R + C - 1 of them (Fig. 6's all-to-all
  // barriers).
  EXPECT_EQ(stats.barriers, static_cast<std::uint64_t>(R + C - 1));
}

TEST(Fig6, PipelineUsesNoBarriers) {
  ThreadPool pool(4);
  auto noop = [](std::int64_t, std::int64_t) {};
  SyncStats p2p = pipeline2D(pool, 16, 16, noop);
  SyncStats wf = wavefront2D(pool, 16, 16, noop);
  EXPECT_EQ(p2p.barriers, 0u);
  EXPECT_EQ(wf.barriers, 31u);
  // The wavefront's waiting happens inside the barrier; only the
  // point-to-point executors spin.
  EXPECT_EQ(wf.spinIterations, 0u);
}

TEST(SpinBackoff, BoundedSpinThenYield) {
  SpinBackoff backoff(/*spinLimit=*/4);
  for (int i = 0; i < 10; ++i) backoff.pause();  // 4 relaxes + 6 yields
  EXPECT_EQ(backoff.iterations(), 10u);
  backoff.reset();  // progress observed: spin phase re-arms
  backoff.pause();
  EXPECT_EQ(backoff.iterations(), 11u);
}

TEST(SpinBackoff, PipelineCountsSpinIterations) {
  ThreadPool pool(4);
  if (pool.threadCount() < 2) GTEST_SKIP() << "needs a real waiter";
  // A tall grid with slow upper rows forces row r to wait on row r-1, so
  // the backoff loop must actually run and be accounted.
  std::atomic<std::uint64_t> sink{0};
  SyncStats stats =
      pipeline2D(pool, 8, 64, [&](std::int64_t r, std::int64_t) {
        volatile std::uint64_t acc = 0;
        for (std::int64_t i = 0; i < (r == 0 ? 20000 : 10); ++i) acc = acc + i;
        sink.fetch_add(acc, std::memory_order_relaxed);
      });
  // A wait counts only after its first backoff pause, so every counted
  // wait has recorded spinning.
  if (stats.pointToPointWaits > 0) {
    EXPECT_GT(stats.spinIterations, 0u);
  }
  EXPECT_LE(stats.pointToPointWaits, stats.spinIterations);
}

TEST(Pipeline2D, DegenerateShapes) {
  ThreadPool pool(2);
  int cells = 0;
  std::mutex m;
  auto count = [&](std::int64_t, std::int64_t) {
    std::lock_guard<std::mutex> g(m);
    ++cells;
  };
  pipeline2D(pool, 1, 10, count);
  EXPECT_EQ(cells, 10);
  cells = 0;
  pipeline2D(pool, 10, 1, count);
  EXPECT_EQ(cells, 10);
  cells = 0;
  pipeline2D(pool, 0, 10, count);
  EXPECT_EQ(cells, 0);
}

TEST(Pipeline3D, RespectsAllThreePredecessors) {
  ThreadPool pool(4);
  std::int64_t P = 9, R = 11, C = 13;
  std::vector<std::int64_t> grid(static_cast<std::size_t>(P * R * C), 0);
  auto at = [&](std::int64_t p, std::int64_t r, std::int64_t c)
      -> std::int64_t& {
    return grid[static_cast<std::size_t>((p * R + r) * C + c)];
  };
  pipeline3D(pool, P, R, C, [&](std::int64_t p, std::int64_t r,
                                std::int64_t c) {
    std::int64_t up = p > 0 ? at(p - 1, r, c) : 0;
    std::int64_t north = r > 0 ? at(p, r - 1, c) : 0;
    std::int64_t west = c > 0 ? at(p, r, c - 1) : 0;
    at(p, r, c) = std::max({up, north, west}) + 1;
  });
  for (std::int64_t p = 0; p < P; ++p)
    for (std::int64_t r = 0; r < R; ++r)
      for (std::int64_t c = 0; c < C; ++c)
        ASSERT_EQ(at(p, r, c), p + r + c + 1);
}

TEST(Pipeline3D, DegenerateShapes) {
  ThreadPool pool(2);
  std::atomic<int> cells{0};
  auto count = [&](std::int64_t, std::int64_t, std::int64_t) { ++cells; };
  pipeline3D(pool, 1, 1, 50, count);
  EXPECT_EQ(cells.load(), 50);
  cells = 0;
  pipeline3D(pool, 0, 5, 5, count);
  EXPECT_EQ(cells.load(), 0);
  cells = 0;
  pipeline3D(pool, 3, 1, 1, count);
  EXPECT_EQ(cells.load(), 3);
}

/// Stress the pipeline with many shapes and threads (property test).
class PipelineShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PipelineShapes, RecurrenceHolds) {
  auto [threads, R, C] = GetParam();
  ThreadPool pool(static_cast<unsigned>(threads));
  std::vector<std::int64_t> grid(static_cast<std::size_t>(R * C), 0);
  auto at = [&](std::int64_t r, std::int64_t c) -> std::int64_t& {
    return grid[static_cast<std::size_t>(r * C + c)];
  };
  pipeline2D(pool, R, C, [&](std::int64_t r, std::int64_t c) {
    std::int64_t north = r > 0 ? at(r - 1, c) : 0;
    std::int64_t west = c > 0 ? at(r, c - 1) : 0;
    at(r, c) = std::max(north, west) + 1;
  });
  for (std::int64_t r = 0; r < R; ++r)
    for (std::int64_t c = 0; c < C; ++c)
      ASSERT_EQ(at(r, c), r + c + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineShapes,
    ::testing::Values(std::make_tuple(1, 8, 8), std::make_tuple(2, 5, 40),
                      std::make_tuple(3, 40, 5), std::make_tuple(4, 64, 64),
                      std::make_tuple(8, 33, 17)));

TEST(ThreadPool, CurrentTidMatchesWorkerIdentity) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> bad(4);
  for (auto& b : bad) b = 0;
  pool.runOnAll([&](unsigned tid) {
    if (ThreadPool::currentTid() != tid) bad[tid]++;
  });
  for (auto& b : bad) EXPECT_EQ(b.load(), 0);
  // The calling thread is pinned to tid 0 during runOnAll; outside it the
  // binding is restored (0 for a thread that never joined a pool).
  EXPECT_EQ(ThreadPool::currentTid(), 0u);
}

TEST(ParallelForBlocked, GuidedCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(200);
  for (auto& t : touched) t = 0;
  ForOptions opts;
  opts.schedule = Schedule::Guided;
  opts.minBlock = 3;
  parallelForBlocked(
      pool, 7, 193,
      [&](unsigned tid, std::int64_t lo, std::int64_t hi) {
        EXPECT_LT(tid, pool.threadCount());
        EXPECT_EQ(ThreadPool::currentTid(), tid);
        for (std::int64_t i = lo; i < hi; ++i)
          touched[static_cast<std::size_t>(i)]++;
      },
      opts);
  for (std::int64_t i = 0; i < 200; ++i)
    EXPECT_EQ(touched[static_cast<std::size_t>(i)].load(),
              (i >= 7 && i < 193) ? 1 : 0)
        << i;
}

TEST(ParallelForBlocked, GuidedShrinksBlocksAndHonorsFloor) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::int64_t> sizes;
  ForOptions opts;
  opts.schedule = Schedule::Guided;
  opts.minBlock = 4;
  parallelForBlocked(
      pool, 0, 1000,
      [&](unsigned, std::int64_t lo, std::int64_t hi) {
        std::lock_guard<std::mutex> g(m);
        sizes.push_back(hi - lo);
      },
      opts);
  std::int64_t total = 0;
  for (std::int64_t s : sizes) {
    total += s;
    EXPECT_GE(s, 1);
  }
  EXPECT_EQ(total, 1000);
  // Guided claims start at remaining/(2*threads) = 125 and decay toward
  // the floor, so there must be more chunks than a static split but each
  // no smaller than minBlock except possibly the final remainder.
  EXPECT_GT(sizes.size(), 4u);
  std::int64_t subFloor = 0;
  for (std::int64_t s : sizes)
    if (s < 4) ++subFloor;
  EXPECT_LE(subFloor, 1);
}

TEST(ParallelForBlocked, StaticTidOverloadPartitionsRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(64);
  for (auto& t : touched) t = 0;
  parallelForBlocked(
      pool, 0, 64,
      [&](unsigned tid, std::int64_t lo, std::int64_t hi) {
        EXPECT_EQ(ThreadPool::currentTid(), tid);
        for (std::int64_t i = lo; i < hi; ++i)
          touched[static_cast<std::size_t>(i)]++;
      },
      ForOptions{});
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelReduce, MultiTargetMatchesSequential) {
  ThreadPool pool(4);
  const std::int64_t n = 500;
  std::vector<double> a(8, 0.5), b(5, 0.25);
  std::vector<double> wantA = a, wantB = b;
  auto fa = [](std::int64_t i) { return 0.125 * static_cast<double>(i % 11); };
  auto fb = [](std::int64_t i) { return 0.25 * static_cast<double>(i % 7); };
  for (std::int64_t i = 0; i < n; ++i) {
    wantA[static_cast<std::size_t>(i % 8)] += fa(i);
    wantB[static_cast<std::size_t>(i % 5)] -= fb(i);
  }
  parallelReduce(
      pool, 0, n,
      {{a.data(), a.size()}, {b.data(), b.size()}},
      [&](unsigned tid, const std::vector<double*>& priv, std::int64_t lo,
          std::int64_t hi) {
        EXPECT_EQ(ThreadPool::currentTid(), tid);
        ASSERT_EQ(priv.size(), 2u);
        for (std::int64_t i = lo; i < hi; ++i) {
          priv[0][i % 8] += fa(i);
          priv[1][i % 5] -= fb(i);
        }
      });
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(a[k], wantA[k], 1e-9);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_NEAR(b[k], wantB[k], 1e-9);
}

/// Runs pipelineDynamic2D over ragged rows in *value space* (row r covers
/// values [rowLo[r], rowLo[r] + rowCols[r])) and counts ordering
/// violations: a cell observing an incomplete previous-row cell of value
/// <= its own, or an incomplete left neighbour. This is exactly the
/// componentwise non-negative dependence pattern the executor maps onto
/// the primitive. Run under -DPOLYAST_SANITIZE=thread to also check the
/// synchronization itself for data races.
int dynamicOrderViolations(ThreadPool& pool,
                           const std::vector<std::int64_t>& rowLo,
                           const std::vector<std::int64_t>& rowCols) {
  std::vector<std::size_t> rowBase(rowCols.size() + 1, 0);
  for (std::size_t r = 0; r < rowCols.size(); ++r)
    rowBase[r + 1] = rowBase[r] + static_cast<std::size_t>(rowCols[r]);
  std::vector<std::atomic<int>> done(rowBase.back());
  for (auto& d : done) d = 0;
  std::atomic<int> violations{0};
  pipelineDynamic2D(
      pool, rowCols,
      [&](std::int64_t r, std::int64_t c) {
        return rowLo[static_cast<std::size_t>(r)] + c -
               rowLo[static_cast<std::size_t>(r - 1)] + 1;
      },
      [&](std::int64_t r, std::int64_t c) {
        const std::size_t ur = static_cast<std::size_t>(r);
        if (r > 0 && rowCols[ur - 1] > 0) {
          const std::int64_t j = rowLo[ur] + c;
          const std::int64_t prev = std::min<std::int64_t>(
              rowCols[ur - 1],
              std::max<std::int64_t>(0, j - rowLo[ur - 1] + 1));
          for (std::int64_t k = 0; k < prev; ++k)
            if (!done[rowBase[ur - 1] + static_cast<std::size_t>(k)].load())
              ++violations;
        }
        if (c > 0 &&
            !done[rowBase[ur] + static_cast<std::size_t>(c) - 1].load())
          ++violations;
        done[rowBase[ur] + static_cast<std::size_t>(c)].fetch_add(1);
      });
  int unfinished = 0, repeated = 0;
  for (auto& d : done) {
    if (!d.load()) ++unfinished;
    if (d.load() > 1) ++repeated;
  }
  EXPECT_EQ(unfinished, 0);
  EXPECT_EQ(repeated, 0);
  return violations.load();
}

TEST(StressPipelineDynamic2D, GrowingTriangle) {
  ThreadPool pool(4);
  const std::int64_t R = 24;
  std::vector<std::int64_t> rowLo(R, 0), rowCols(R);
  for (std::int64_t r = 0; r < R; ++r)
    rowCols[static_cast<std::size_t>(r)] = r + 1;
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(StressPipelineDynamic2D, ShrinkingTriangleWithShiftingOrigin) {
  ThreadPool pool(4);
  const std::int64_t R = 24;
  std::vector<std::int64_t> rowLo(R), rowCols(R);
  for (std::int64_t r = 0; r < R; ++r) {
    rowLo[static_cast<std::size_t>(r)] = r;
    rowCols[static_cast<std::size_t>(r)] = R - r;
  }
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(StressPipelineDynamic2D, EmptyEdgeRows) {
  ThreadPool pool(3);
  std::vector<std::int64_t> rowLo{0, 0, 1, 1, 2, 0};
  std::vector<std::int64_t> rowCols{0, 0, 4, 7, 5, 0};
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(StressPipelineDynamic2D, ThreadsExceedRows) {
  ThreadPool pool(8);
  std::vector<std::int64_t> rowLo{0, 1, 2};
  std::vector<std::int64_t> rowCols{30, 28, 26};
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(StressPipelineDynamic2D, SingleThreadPool) {
  ThreadPool pool(1);
  const std::int64_t R = 12;
  std::vector<std::int64_t> rowLo(R, 0), rowCols(R);
  for (std::int64_t r = 0; r < R; ++r)
    rowCols[static_cast<std::size_t>(r)] = r + 1;
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(StressPipelineDynamic2D, DegenerateShapes) {
  ThreadPool pool(2);
  std::atomic<int> cells{0};
  auto need = [](std::int64_t, std::int64_t c) { return c + 1; };
  auto count = [&](std::int64_t, std::int64_t) { ++cells; };
  pipelineDynamic2D(pool, {}, need, count);
  EXPECT_EQ(cells.load(), 0);
  pipelineDynamic2D(pool, {0, 0, 0}, need, count);
  EXPECT_EQ(cells.load(), 0);
  pipelineDynamic2D(pool, {5}, need, count);
  EXPECT_EQ(cells.load(), 5);
}

TEST(StressPipeline3D, UnbalancedCellWorkKeepsOrder) {
  ThreadPool pool(4);
  const std::int64_t P = 6, R = 7, C = 8;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(P * R * C));
  for (auto& d : done) d = 0;
  auto idx = [&](std::int64_t p, std::int64_t r, std::int64_t c) {
    return static_cast<std::size_t>((p * R + r) * C + c);
  };
  std::atomic<int> violations{0};
  pipeline3D(pool, P, R, C,
             [&](std::int64_t p, std::int64_t r, std::int64_t c) {
               // Skewed per-cell work to force real waiting on all axes.
               volatile std::int64_t acc = 0;
               for (std::int64_t i = 0; i < ((p + 2 * r + 3 * c) % 5) * 400;
                    ++i)
                 acc = acc + i;
               if (p > 0 && !done[idx(p - 1, r, c)].load()) ++violations;
               if (r > 0 && !done[idx(p, r - 1, c)].load()) ++violations;
               if (c > 0 && !done[idx(p, r, c - 1)].load()) ++violations;
               done[idx(p, r, c)].store(1);
             });
  EXPECT_EQ(violations.load(), 0);
  for (auto& d : done) EXPECT_EQ(d.load(), 1);
}

TEST(Pipeline3D, WaitHistogramCountsEpisodesNotPauses) {
  ThreadPool pool(4);
  if (pool.threadCount() < 2) GTEST_SKIP() << "needs a real waiter";
  // Slow first plane: later planes must wait. Episode accounting means
  // the waits counter equals the number of observed wait *durations*, not
  // the (much larger) number of backoff pauses.
  std::atomic<std::uint64_t> sink{0};
  SyncStats stats = pipeline3D(
      pool, 4, 4, 16, [&](std::int64_t p, std::int64_t, std::int64_t) {
        volatile std::uint64_t acc = 0;
        for (std::int64_t i = 0; i < (p == 0 ? 20000 : 10); ++i) acc = acc + i;
        sink.fetch_add(acc, std::memory_order_relaxed);
      });
  if (stats.pointToPointWaits > 0) {
    EXPECT_GT(stats.spinIterations, 0u);
    EXPECT_LE(stats.pointToPointWaits, stats.spinIterations);
  }
}

/// Busy work that makes the first line of a grid the slow producer, so
/// the lines after it must really wait (and take the consumer lag).
void slowIfFirst(std::int64_t line) {
  volatile std::int64_t acc = 0;
  for (std::int64_t i = 0; i < (line == 0 ? 3000 : 20); ++i) acc = acc + i;
}

/// Runs pipeline3D over a P x R x C grid and returns the number of cells
/// that ran before one of their three predecessors. The run counts are
/// plain ints, so a TSan build also checks that every predecessor's write
/// happens-before its successor's read. Every cell must run exactly once.
int pipeline3DOrderViolations(ThreadPool& pool, std::int64_t P,
                              std::int64_t R, std::int64_t C) {
  std::vector<int> runs(static_cast<std::size_t>(P * R * C), 0);
  auto at = [&](std::int64_t p, std::int64_t r, std::int64_t c) -> int& {
    return runs[static_cast<std::size_t>((p * R + r) * C + c)];
  };
  std::atomic<int> violations{0};
  pipeline3D(pool, P, R, C,
             [&](std::int64_t p, std::int64_t r, std::int64_t c) {
               slowIfFirst(p * R + r);
               if ((p > 0 && at(p - 1, r, c) != 1) ||
                   (r > 0 && at(p, r - 1, c) != 1) ||
                   (c > 0 && at(p, r, c - 1) != 1))
                 ++violations;
               ++at(p, r, c);
             });
  for (int n : runs) EXPECT_EQ(n, 1);
  return violations.load();
}

/// pipeline2D counterpart of pipeline3DOrderViolations.
int pipeline2DOrderViolations(ThreadPool& pool, std::int64_t R,
                              std::int64_t C) {
  std::vector<int> runs(static_cast<std::size_t>(R * C), 0);
  auto at = [&](std::int64_t r, std::int64_t c) -> int& {
    return runs[static_cast<std::size_t>(r * C + c)];
  };
  std::atomic<int> violations{0};
  pipeline2D(pool, R, C, [&](std::int64_t r, std::int64_t c) {
    slowIfFirst(r);
    if ((r > 0 && at(r - 1, c) != 1) || (c > 0 && at(r, c - 1) != 1))
      ++violations;
    ++at(r, c);
  });
  for (int n : runs) EXPECT_EQ(n, 1);
  return violations.load();
}

/// A consumer that must wait waits for cols/16 more predecessor cells,
/// clamped to the predecessor's length: lengths 15, 16, 17 and 33 lag 0,
/// 1, 1 and 2 cells, and near a line's end the clamp must stop the lag
/// from waiting for cells that do not exist.
TEST(Doacross, LaggingConsumerAroundTheLagDivisor) {
  ThreadPool pool(4);
  for (std::int64_t C : {15, 16, 17, 33}) {
    EXPECT_EQ(pipeline2DOrderViolations(pool, 9, C), 0) << C;
    EXPECT_EQ(pipeline3DOrderViolations(pool, 3, 4, C), 0) << C;
  }
}

TEST(Doacross, SingleColumn) {
  ThreadPool pool(4);
  EXPECT_EQ(pipeline2DOrderViolations(pool, 23, 1), 0);
  EXPECT_EQ(pipeline3DOrderViolations(pool, 5, 7, 1), 0);
  EXPECT_EQ(dynamicOrderViolations(pool, std::vector<std::int64_t>(9, 0),
                                   std::vector<std::int64_t>(9, 1)),
            0);
}

TEST(Doacross, Pipeline3DSinglePlaneOrSingleRow) {
  ThreadPool pool(4);
  EXPECT_EQ(pipeline3DOrderViolations(pool, 1, 9, 20), 0);
  EXPECT_EQ(pipeline3DOrderViolations(pool, 9, 1, 20), 0);
}

/// need() past the previous row's last cell is clamped to that row's
/// length: in the growing triangle the last cell of each row needs one
/// more cell than the row above has, and in the shrinking triangle whose
/// origin moves two values per row it needs two.
TEST(Doacross, DynamicNeedBeyondPreviousRow) {
  ThreadPool pool(4);
  const std::int64_t R = 40;
  std::vector<std::int64_t> rowLo(R, 0), rowCols(R);
  for (std::int64_t r = 0; r < R; ++r)
    rowCols[static_cast<std::size_t>(r)] = r + 1;
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
  for (std::int64_t r = 0; r < R; ++r) {
    rowLo[static_cast<std::size_t>(r)] = 2 * r;
    rowCols[static_cast<std::size_t>(r)] = R - r;
  }
  EXPECT_EQ(dynamicOrderViolations(pool, rowLo, rowCols), 0);
}

TEST(Doacross, OneThreadAndMoreThreadsThanLines) {
  for (unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pipeline2DOrderViolations(pool, 3, 40), 0) << threads;
    EXPECT_EQ(pipeline3DOrderViolations(pool, 2, 2, 40), 0) << threads;
    EXPECT_EQ(dynamicOrderViolations(pool, {0, 1, 2}, {30, 28, 26}), 0)
        << threads;
  }
}

/// A wait episode counts only after it paused, and every counted episode
/// is timed once into the per-thread wait histograms.
TEST(Doacross, EveryCountedWaitPausedAndWasTimed) {
  ThreadPool pool(4);
  obs::Registry& reg = obs::Registry::global();
  const bool timing = reg.timingEnabled();
  reg.setTimingEnabled(true);
  auto timed = [&] {
    std::uint64_t n = 0;
    for (unsigned t = 0; t < pool.threadCount(); ++t)
      n += reg.histogram("runtime.pipeline.wait_ns.t" + std::to_string(t),
                         obs::waitLatencyBounds())
               .count();
    return n;
  };
  const std::uint64_t before = timed();
  SyncStats stats = pipeline2D(pool, 8, 64, [](std::int64_t r,
                                               std::int64_t) {
    slowIfFirst(r);
  });
  const std::uint64_t after = timed();
  reg.setTimingEnabled(timing);
  EXPECT_LE(stats.pointToPointWaits, stats.spinIterations);
  EXPECT_EQ(after - before, stats.pointToPointWaits);
}

}  // namespace
}  // namespace polyast::runtime
