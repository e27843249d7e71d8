// Shared-memory parallel runtime — the substrate for Sec. IV-A/IV-D.
//
// The paper's generated code relies on OpenMP plus two extensions: array
// reductions in C [31] and point-to-point synchronization for pipeline
// parallelism [19]. This runtime provides the same constructs on plain
// std::thread:
//
//   * ThreadPool — persistent worker threads,
//   * parallelFor — doall loops (static chunking),
//   * parallelReduce — privatized array reductions with a merge phase,
//   * pipeline2D / pipelineDynamic2D / pipeline3D — the `await source(i-1,j)
//     source(i,j-1)` construct of Fig. 6 (left), with no all-to-all
//     barrier,
//   * wavefront2D — the comparator of Fig. 6 (right): diagonal sweeps with
//     a barrier between diagonals (the classic skewed doall).
//
// The three pipelines share one doacross core that synchronizes per
// *line*. A line is a row of the 2-D grids or a (plane, row) pair of the
// 3-D one. Workers claim lines in increasing (lexicographic) order off one
// atomic counter and run each line's cells left to right. Each line
// publishes its completed-cell count on a counter padded to its own cache
// line. Before cell c, a worker awaits the lower lines the cell depends
// on: the previous row, and in 3-D also the previous plane's same row. It
// reads a predecessor's counter only when its cached copy is too small for
// c. A wait that cannot be avoided spins (then yields) until the
// predecessor is 1/16 of its length past the cell needed, clamped to that
// length (the consumer lag). That keeps producer and consumer from moving
// in lockstep, one cache-line round trip per cell. So a cell awaits at
// least its predecessors, sometimes more.
//
// No deadlock: lines are claimed in increasing order, every worker runs
// its line to the end before claiming another, and a line awaits only
// lower lines. So the lowest unfinished line has every predecessor
// finished and can always progress. The lag raises a wait target at most
// to the predecessor's own length, which a finished line has reached.
//
// Instrumentation counters (synchronization operations, barrier count) are
// exposed so tests and the Fig. 6 benchmark can compare the two schemes
// analytically as well as by wall clock. Every SyncStats is also absorbed
// into the obs metrics registry (`runtime.sync.*`), the executors emit
// per-thread spans (doall chunks, reduction accumulate/combine, pipeline
// workers) when the global tracer is enabled, and pipeline wait latencies
// feed per-thread `runtime.pipeline.wait_ns.t<tid>` histograms when
// Registry timing is on — see docs/OBSERVABILITY.md. All of it is a single
// relaxed atomic load per construct when observability is off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace polyast::runtime {

/// Persistent pool of worker threads. Thread 0 is the caller.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threadCount() const { return threads_; }

  /// Runs fn(tid) on every thread (0..threads-1) and waits for all.
  void runOnAll(const std::function<void(unsigned)>& fn);

  /// Worker id of the calling thread *inside* a runOnAll job (0 for the
  /// caller thread, 1.. for pool workers). Lets cell callbacks of the
  /// pipeline executors recover their worker identity — e.g. to index
  /// per-thread scratch state — without widening every cell signature.
  /// Returns 0 outside any pool job.
  static unsigned currentTid();

 private:
  void workerLoop(unsigned tid);

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool shutdown_ = false;
};

/// Doall loop: fn(i) for i in [begin, end), statically chunked.
void parallelFor(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& fn);

/// Chunking policy for blocked doall loops.
enum class Schedule {
  Static,  ///< one contiguous chunk per thread (ceil(n/threads))
  Guided,  ///< atomic work counter; shrinking blocks with a size floor
};

struct ForOptions {
  Schedule schedule = Schedule::Static;
  /// Guided schedule never hands out a block smaller than this (bounds
  /// the counter contention when the tail drains).
  std::int64_t minBlock = 1;
};

/// Blocked doall: fn(chunkBegin, chunkEnd) per contiguous chunk.
void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Blocked doall with an explicit schedule. fn(tid, chunkBegin, chunkEnd)
/// runs once per block; under Schedule::Guided threads claim blocks of
/// max(minBlock, remaining / (2 * threads)) iterations off a shared atomic
/// counter, so imbalanced trip spaces (triangular loops, guarded bodies)
/// do not leave threads idle behind one overloaded static chunk.
void parallelForBlocked(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::function<void(unsigned, std::int64_t, std::int64_t)>& fn,
    const ForOptions& opts);

/// Array reduction (the OpenMP-C array-reduction extension [31]): each
/// thread accumulates into a private zero-initialized buffer of `size`
/// doubles via body(tid, priv, begin, end); the private buffers are then
/// summed into `target`.
void parallelReduce(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                    double* target, std::size_t size,
                    const std::function<void(double*, std::int64_t,
                                             std::int64_t)>& body);

/// One accumulator array of a multi-target reduction.
struct ReduceTarget {
  double* data = nullptr;
  std::size_t size = 0;
};

/// Multi-target array reduction: one privatized zero-initialized buffer
/// *per target per thread*. body(tid, priv, begin, end) receives the
/// thread's private buffers in target order; after all chunks drain, each
/// private buffer is summed into its target (merge parallel over the
/// array). This is what a loop accumulating into several arrays at once
/// (e.g. mvt's x1/x2 after fusion) lowers to.
void parallelReduce(
    ThreadPool& pool, std::int64_t begin, std::int64_t end,
    const std::vector<ReduceTarget>& targets,
    const std::function<void(unsigned, const std::vector<double*>&,
                             std::int64_t, std::int64_t)>& body);

/// Counters for comparing synchronization schemes (Fig. 6).
struct SyncStats {
  std::uint64_t pointToPointWaits = 0;  ///< await episodes that paused
  std::uint64_t barriers = 0;           ///< all-to-all barriers executed
  std::uint64_t spinIterations = 0;     ///< backoff iterations while waiting
};

/// Bounded spin-then-yield backoff of the pipelines' wait: the first
/// `spinLimit` iterations issue a CPU relax hint (cheap polling that keeps
/// the waited-on cache line hot); every iteration past the bound yields to
/// the scheduler so oversubscribed waiters do not starve the producers
/// they wait on. Iterations are counted so benches report spin traffic
/// alongside sync-op counts.
class SpinBackoff {
 public:
  explicit SpinBackoff(std::uint32_t spinLimit = 64)
      : spinLimit_(spinLimit) {}

  /// One backoff step: relax while under the spin bound, yield after.
  void pause() {
    ++iterations_;
    if (spins_ < spinLimit_) {
      ++spins_;
      cpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

  /// Re-arms the spin phase after observed progress.
  void reset() { spins_ = 0; }

  std::uint64_t iterations() const { return iterations_; }

  static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
  }

 private:
  std::uint32_t spinLimit_;
  std::uint32_t spins_ = 0;
  std::uint64_t iterations_ = 0;
};

/// Point-to-point pipeline over a 2-D cell grid (rows x cols): cell (r, c)
/// runs after (r-1, c) and (r, c-1). Each row is one doacross line (see
/// the file comment), giving the behaviour of the proposed OpenMP `await`
/// extension without any barrier.
SyncStats pipeline2D(ThreadPool& pool, std::int64_t rows, std::int64_t cols,
                     const std::function<void(std::int64_t, std::int64_t)>&
                         cell);

/// Point-to-point pipeline over a *ragged* 2-D grid: row r has rowCols[r]
/// cells (row lengths may differ — triangular/trapezoidal iteration
/// spaces). Cell (r, c) runs after cells (r-1, 0..need(r,c)-1) of the
/// previous row and (r, c-1) of its own row; need(r, c) returns the number
/// of previous-row cells cell (r, c) depends on, in *row-relative* column
/// counts (clamped to [0, rowCols[r-1]] here). Each row is one doacross
/// line, as in pipeline2D.
///
/// Precondition (holds for unit-step affine loop nests, whose row
/// intervals are convex): rows with zero cells appear only as a prefix
/// and/or suffix of the row range, never between non-empty rows — a row
/// in the middle would break the chain of per-row counters the sync
/// relies on.
SyncStats pipelineDynamic2D(
    ThreadPool& pool, const std::vector<std::int64_t>& rowCols,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& need,
    const std::function<void(std::int64_t, std::int64_t)>& cell);

/// Wavefront doall over the same grid: diagonals d = r + c executed in
/// order with an all-to-all barrier between diagonals (the skewed-doall
/// scheme the paper argues against; start-up/draining phases underutilize
/// the threads).
SyncStats wavefront2D(ThreadPool& pool, std::int64_t rows, std::int64_t cols,
                      const std::function<void(std::int64_t, std::int64_t)>&
                          cell);

/// Three-dimensional doacross: cell (p, r, c) runs after (p-1, r, c),
/// (p, r-1, c) and (p, r, c-1) — the construct needed for *time-tiled*
/// stencil pipelines, where the first dimension is the time step within a
/// tile and the other two are skewed space blocks. Each (p, r) pair is one
/// doacross line, claimed in lexicographic order: cell (p, r, c) awaits
/// lines (p-1, r) and (p, r-1) up to column c (no barriers).
SyncStats pipeline3D(
    ThreadPool& pool, std::int64_t planes, std::int64_t rows,
    std::int64_t cols,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>&
        cell);

}  // namespace polyast::runtime
