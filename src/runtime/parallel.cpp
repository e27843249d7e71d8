#include "runtime/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace polyast::runtime {

namespace {

/// Sink for the executors' synchronization counters: every SyncStats the
/// runtime returns is also absorbed into the metrics registry, so traces
/// and metrics files carry the same numbers the benches print.
void absorbSyncStats(const SyncStats& stats) {
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& waits = reg.counter("runtime.sync.p2p_waits");
  static obs::Counter& barriers = reg.counter("runtime.sync.barriers");
  static obs::Counter& spins = reg.counter("runtime.sync.spin_iterations");
  if (stats.pointToPointWaits)
    waits.add(static_cast<std::int64_t>(stats.pointToPointWaits));
  if (stats.barriers) barriers.add(static_cast<std::int64_t>(stats.barriers));
  if (stats.spinIterations)
    spins.add(static_cast<std::int64_t>(stats.spinIterations));
}

/// Per-worker wait-latency histogram (`runtime.pipeline.wait_ns.t<tid>`),
/// resolved once per worker invocation; nullptr when detailed timing is
/// off so wait loops pay no clock reads.
obs::Histogram* waitHistogram(unsigned tid) {
  if (!obs::Registry::global().timingEnabled()) return nullptr;
  return &obs::Registry::global().histogram(
      "runtime.pipeline.wait_ns.t" + std::to_string(tid),
      obs::waitLatencyBounds());
}

/// Worker id of the thread inside the current runOnAll job (see
/// ThreadPool::currentTid). Pool workers are permanent, so workerLoop sets
/// this once; the caller thread is pinned to 0 for the span of each job.
thread_local unsigned g_currentTid = 0;

}  // namespace

unsigned ThreadPool::currentTid() { return g_currentTid; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  obs::Tracer::global().nameCurrentThread("main");
  for (unsigned t = 1; t < threads_; ++t)
    workers_.emplace_back([this, t] { workerLoop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop(unsigned tid) {
  obs::Tracer::global().nameCurrentThread("worker-" + std::to_string(tid));
  g_currentTid = tid;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(tid);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) doneCv_.notify_all();
    }
  }
}

void ThreadPool::runOnAll(const std::function<void(unsigned)>& fn) {
  const unsigned savedTid = g_currentTid;
  g_currentTid = 0;
  if (threads_ == 1) {
    fn(0);
    g_currentTid = savedTid;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    remaining_ = threads_ - 1;
    ++generation_;
  }
  cv_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(mutex_);
  doneCv_.wait(lock, [&] { return remaining_ == 0; });
  g_currentTid = savedTid;
}

void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  std::int64_t n = end - begin;
  if (n <= 0) return;
  static obs::Counter& chunks =
      obs::Registry::global().counter("runtime.doall.chunks");
  std::int64_t threads = static_cast<std::int64_t>(pool.threadCount());
  std::int64_t chunk = (n + threads - 1) / threads;
  pool.runOnAll([&](unsigned tid) {
    std::int64_t lo = begin + static_cast<std::int64_t>(tid) * chunk;
    std::int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) {
      obs::Span span("doall.chunk", "runtime");
      span.attr("tid", static_cast<std::int64_t>(tid));
      span.attr("lo", lo);
      span.attr("hi", hi);
      chunks.add();
      fn(lo, hi);
    }
  });
}

void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::function<void(unsigned, std::int64_t, std::int64_t)>& fn,
    const ForOptions& opts) {
  std::int64_t n = end - begin;
  if (n <= 0) return;
  static obs::Counter& chunks =
      obs::Registry::global().counter("runtime.doall.chunks");
  std::int64_t threads = static_cast<std::int64_t>(pool.threadCount());
  if (opts.schedule == Schedule::Static) {
    std::int64_t chunk = (n + threads - 1) / threads;
    pool.runOnAll([&](unsigned tid) {
      std::int64_t lo = begin + static_cast<std::int64_t>(tid) * chunk;
      std::int64_t hi = std::min(end, lo + chunk);
      if (lo < hi) {
        obs::Span span("doall.chunk", "runtime");
        span.attr("tid", static_cast<std::int64_t>(tid));
        span.attr("lo", lo);
        span.attr("hi", hi);
        chunks.add();
        fn(tid, lo, hi);
      }
    });
    return;
  }
  static obs::Counter& guidedBlocks =
      obs::Registry::global().counter("runtime.doall.guided_blocks");
  const std::int64_t minBlock = std::max<std::int64_t>(1, opts.minBlock);
  std::atomic<std::int64_t> next{begin};
  pool.runOnAll([&](unsigned tid) {
    obs::Span span("doall.guided", "runtime");
    span.attr("tid", static_cast<std::int64_t>(tid));
    std::int64_t blocks = 0;
    for (;;) {
      std::int64_t lo = next.load(std::memory_order_relaxed);
      std::int64_t hi = lo;
      bool claimed = false;
      while (lo < end) {
        // Guided: half the fair share of what remains, never below the
        // floor — big blocks while there is slack, small ones to balance
        // the tail.
        const std::int64_t remaining = end - lo;
        const std::int64_t block = std::min(
            remaining, std::max(minBlock, remaining / (2 * threads)));
        hi = lo + block;
        if (next.compare_exchange_weak(lo, hi, std::memory_order_relaxed)) {
          claimed = true;
          break;
        }
      }
      if (!claimed) break;
      chunks.add();
      guidedBlocks.add();
      fn(tid, lo, hi);
      ++blocks;
    }
    span.attr("blocks", blocks);
  });
}

void parallelFor(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& fn) {
  parallelForBlocked(pool, begin, end,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) fn(i);
                     });
}

void parallelReduce(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                    double* target, std::size_t size,
                    const std::function<void(double*, std::int64_t,
                                             std::int64_t)>& body) {
  POLYAST_CHECK(target != nullptr, "parallelReduce without a target");
  parallelReduce(pool, begin, end, std::vector<ReduceTarget>{{target, size}},
                 [&](unsigned, const std::vector<double*>& priv,
                     std::int64_t lo, std::int64_t hi) {
                   body(priv.front(), lo, hi);
                 });
}

void parallelReduce(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::vector<ReduceTarget>& targets,
    const std::function<void(unsigned, const std::vector<double*>&,
                             std::int64_t, std::int64_t)>& body) {
  POLYAST_CHECK(!targets.empty(), "parallelReduce without targets");
  for (const auto& t : targets)
    POLYAST_CHECK(t.data != nullptr, "parallelReduce with a null target");
  std::int64_t n = end - begin;
  if (n <= 0) return;
  static obs::Counter& reductions =
      obs::Registry::global().counter("runtime.reduce.calls");
  reductions.add();
  unsigned threads = pool.threadCount();
  // Privatized accumulation buffers, one per target per thread.
  std::vector<std::vector<std::vector<double>>> priv(threads);
  std::vector<std::vector<double*>> ptrs(threads);
  for (unsigned t = 0; t < threads; ++t) {
    priv[t].resize(targets.size());
    ptrs[t].reserve(targets.size());
    for (std::size_t k = 0; k < targets.size(); ++k) {
      priv[t][k].assign(targets[k].size, 0.0);
      ptrs[t].push_back(priv[t][k].data());
    }
  }
  std::int64_t chunk =
      (n + static_cast<std::int64_t>(threads) - 1) /
      static_cast<std::int64_t>(threads);
  pool.runOnAll([&](unsigned tid) {
    std::int64_t lo = begin + static_cast<std::int64_t>(tid) * chunk;
    std::int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) {
      obs::Span span("reduce.accumulate", "runtime");
      span.attr("tid", static_cast<std::int64_t>(tid));
      span.attr("lo", lo);
      span.attr("hi", hi);
      body(tid, ptrs[tid], lo, hi);
    }
  });
  // Merge phase (parallel over each array when large).
  for (std::size_t k = 0; k < targets.size(); ++k) {
    obs::Span combine("reduce.combine", "runtime");
    combine.attr("size", static_cast<std::int64_t>(targets[k].size));
    double* target = targets[k].data;
    parallelForBlocked(pool, 0, static_cast<std::int64_t>(targets[k].size),
                       [&](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           double sum = 0.0;
                           for (unsigned t = 0; t < threads; ++t)
                             sum += priv[t][k][static_cast<std::size_t>(i)];
                           target[i] += sum;
                         }
                       });
  }
}

namespace {

/// Completed-cell count of one doacross line, alone on its cache line so
/// that the release stores of lines run by different workers do not
/// false-share.
struct alignas(64) LineProgress {
  std::atomic<std::int64_t> done{0};
};

/// Consumer lag: a worker that has to wait for a predecessor line waits
/// until that line is cols/kLagDivisor cells past the cell it needs
/// (clamped to the line's length), not just one cell past it. Otherwise
/// consumer and producer move in lockstep, one cache-line round trip per
/// cell.
constexpr std::int64_t kLagDivisor = 16;

/// A predecessor line as one consumer sees it: its counter, its length
/// (the lag's clamp) and the last value the consumer read from it.
struct Pred {
  const std::atomic<std::int64_t>* done = nullptr;
  std::int64_t cols = 0;
  std::int64_t seen = 0;
};

/// One worker's wait accounting.
struct WaitState {
  SpinBackoff backoff;
  obs::Histogram* hist = nullptr;  ///< null when timing is off
  std::uint64_t episodes = 0;
};

/// Returns once `pred` has completed `want` cells. The cached `seen`
/// answers most calls without touching the shared counter; a stale cache
/// costs one acquire load. A wait that is still unavoidable spins until
/// the lag target and counts as one episode (counted and timed only after
/// its first pause, so episodes never exceed spin iterations).
void awaitProgress(Pred& pred, std::int64_t want, WaitState& ws) {
  if (pred.seen >= want) return;
  pred.seen = pred.done->load(std::memory_order_acquire);
  if (pred.seen >= want) return;
  const std::int64_t target =
      std::min(pred.cols, want + pred.cols / kLagDivisor);
  const auto start = ws.hist ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point();
  ws.backoff.reset();
  do {
    ws.backoff.pause();
    pred.seen = pred.done->load(std::memory_order_acquire);
  } while (pred.seen < target);
  ++ws.episodes;
  if (ws.hist)
    ws.hist->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
}

/// One doacross line: its cell count and the lower lines it awaits (-1
/// for none; an empty line is awaited by nobody).
struct LineShape {
  std::int64_t cols = 0;
  std::int64_t pred[2] = {-1, -1};
};

/// The doacross core of the three pipelines. Lines are claimed in
/// increasing order off one atomic counter and each runs left to right on
/// the worker that claimed it; cell c of line l first awaits want(l, c)
/// completed cells of every predecessor in shape(l), runs cell(l, c), then
/// publishes c + 1 on the line's counter.
template <class Shape, class Want, class Cell>
SyncStats doacross(ThreadPool& pool, std::int64_t lines, const char* span,
                   const Shape& shape, const Want& want, const Cell& cell) {
  SyncStats stats;
  if (lines <= 0) return stats;
  std::vector<LineProgress> progress(static_cast<std::size_t>(lines));
  std::atomic<std::int64_t> nextLine{0};
  std::atomic<std::uint64_t> waits{0};
  std::atomic<std::uint64_t> spinIters{0};
  pool.runOnAll([&](unsigned tid) {
    obs::Span worker(span, "runtime");
    worker.attr("tid", static_cast<std::int64_t>(tid));
    WaitState ws;
    ws.hist = waitHistogram(tid);
    std::int64_t linesDone = 0;
    for (;;) {
      const std::int64_t l = nextLine.fetch_add(1, std::memory_order_relaxed);
      if (l >= lines) break;
      const LineShape ls = shape(l);
      if (ls.cols <= 0) continue;
      ++linesDone;
      Pred preds[2];
      int npreds = 0;
      for (std::int64_t p : ls.pred) {
        const std::int64_t pcols = p >= 0 ? shape(p).cols : 0;
        if (pcols > 0)
          preds[npreds++] = {&progress[static_cast<std::size_t>(p)].done,
                             pcols, 0};
      }
      auto& mine = progress[static_cast<std::size_t>(l)].done;
      for (std::int64_t c = 0; c < ls.cols; ++c) {
        // await (l, c-1) is implicit: the same worker runs the line left
        // to right.
        if (npreds > 0) {
          const std::int64_t w = want(l, c);
          for (int k = 0; k < npreds; ++k) awaitProgress(preds[k], w, ws);
        }
        cell(l, c);
        mine.store(c + 1, std::memory_order_release);
      }
    }
    worker.attr("lines", linesDone);
    waits.fetch_add(ws.episodes, std::memory_order_relaxed);
    spinIters.fetch_add(ws.backoff.iterations(), std::memory_order_relaxed);
  });
  stats.pointToPointWaits = waits.load();
  stats.spinIterations = spinIters.load();
  absorbSyncStats(stats);
  return stats;
}

}  // namespace

SyncStats pipeline2D(ThreadPool& pool, std::int64_t rows, std::int64_t cols,
                     const std::function<void(std::int64_t, std::int64_t)>&
                         cell) {
  if (cols <= 0) return {};
  // await source(r-1, c): the previous row must have completed c+1 cells.
  return doacross(
      pool, rows, "pipeline.worker",
      [&](std::int64_t r) { return LineShape{cols, {r - 1, -1}}; },
      [](std::int64_t, std::int64_t c) { return c + 1; }, cell);
}

SyncStats pipelineDynamic2D(
    ThreadPool& pool, const std::vector<std::int64_t>& rowCols,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& need,
    const std::function<void(std::int64_t, std::int64_t)>& cell) {
  // await: the previous row must have completed the first need(r, c) of
  // its cells (clamped: a short predecessor row cannot owe more than it
  // has).
  return doacross(
      pool, static_cast<std::int64_t>(rowCols.size()), "pipeline.worker",
      [&](std::int64_t r) {
        return LineShape{rowCols[static_cast<std::size_t>(r)], {r - 1, -1}};
      },
      [&](std::int64_t r, std::int64_t c) {
        return std::min(rowCols[static_cast<std::size_t>(r - 1)],
                        std::max<std::int64_t>(0, need(r, c)));
      },
      cell);
}

SyncStats wavefront2D(ThreadPool& pool, std::int64_t rows, std::int64_t cols,
                      const std::function<void(std::int64_t, std::int64_t)>&
                          cell) {
  SyncStats stats;
  if (rows <= 0 || cols <= 0) return stats;
  obs::Span span("wavefront2d", "runtime");
  span.attr("rows", rows);
  span.attr("cols", cols);
  for (std::int64_t d = 0; d <= rows + cols - 2; ++d) {
    std::int64_t rLo = std::max<std::int64_t>(0, d - cols + 1);
    std::int64_t rHi = std::min(rows - 1, d);
    // Doall over the diagonal, implicit all-to-all barrier at the end of
    // each parallelFor (runOnAll joins every thread).
    parallelFor(pool, rLo, rHi + 1,
                [&](std::int64_t r) { cell(r, d - r); });
    stats.barriers += 1;
  }
  absorbSyncStats(stats);
  return stats;
}

SyncStats pipeline3D(
    ThreadPool& pool, std::int64_t planes, std::int64_t rows,
    std::int64_t cols,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>&
        cell) {
  if (planes <= 0 || rows <= 0 || cols <= 0) return {};
  // Line l = p * rows + r; cell (p, r, c) awaits lines (p-1, r) and
  // (p, r-1) up to column c, and (p, r, c-1) by running the line in order.
  return doacross(
      pool, planes * rows, "pipeline3d.worker",
      [&](std::int64_t l) {
        return LineShape{
            cols, {l >= rows ? l - rows : -1, l % rows > 0 ? l - 1 : -1}};
      },
      [](std::int64_t, std::int64_t c) { return c + 1; },
      [&](std::int64_t l, std::int64_t c) { cell(l / rows, l % rows, c); });
}

}  // namespace polyast::runtime
