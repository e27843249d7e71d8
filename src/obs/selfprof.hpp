// Compile-time self-profiling (src/obs): cheap always-on operation
// counters and sampled timing for the compiler's *own* hot paths — the
// Fourier–Motzkin core, IntSet emptiness/projection/bound queries,
// dependence tests by outcome, and the affine selection search — plus
// process-RSS gauges, aggregated per SCoP and exported as the
// schema-versioned `polyast-compile-profile-v1` artifact
// (`polyastc --compile-profile-out`, `bench_compile_scale --out`).
//
// Cost model: the counters are a fixed enum-indexed array of relaxed
// atomics bumped inline at the call site — no registry lookup, no lock,
// no branch on a mode flag. That keeps them cheap enough to leave on
// unconditionally (the FM inner loop is combinatorial; one relaxed
// fetch_add per *elimination*, not per row operation). Timing is
// sampled: every `kSampleEvery`-th dependence emptiness test reads the
// steady clock so average per-test cost is recoverable without paying
// two clock reads on every test.
//
// Aggregation model: counters are process-global and monotone. A
// `Collector` snapshots them at `beginScop()` and stores the delta at
// `endScop()`, one row per SCoP; `finish()` reads the final totals and
// computes `residual = totals - sum(rows)` (work outside any SCoP
// bracket: pipeline setup, validation reruns, tests). Compilation is
// single-threaded and scopes are disjoint in time, so
// `residual + sum(rows) == totals` holds *exactly* per counter — the
// telescoping invariant `obs_validate --compile-profile` enforces,
// mirroring the attrib artifact's per-construct discipline.
//
// Layering: like the rest of src/obs this depends only on src/support,
// so the innermost layers (src/intset) can link it without cycles.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace polyast::obs {
class Registry;
}  // namespace polyast::obs

namespace polyast::obs::selfprof {

/// The instrumented operations. Stable artifact names in opName();
/// docs/OBSERVABILITY.md carries the glossary. Append only — consumers
/// key on names, but tests iterate allOps().
enum class Op : int {
  FmEliminations,      ///< fm.eliminations — variables eliminated (FM or Gaussian)
  FmConstraintsIn,     ///< fm.constraints_in — constraint rows entering an elimination
  FmConstraintsOut,    ///< fm.constraints_out — rows surviving (post-prune)
  FmCapHits,           ///< fm.cap_hits — conservative bails at kFmConstraintCap
  IntsetEmptyTests,    ///< intset.empty_tests — isEmpty() answers run by FM, not memo hits
  IntsetProjects,      ///< intset.projects — IntSet::project() calls
  IntsetBoundQueries,  ///< intset.bound_queries — minOf/maxOf answers run by FM, not memo hits
  DepTests,            ///< dep.tests — per-level dependence candidate tests
  DepProven,           ///< dep.proven — tests whose candidate set was non-empty
  DepDisproven,        ///< dep.disproven — tests proven empty
  DepSampledTests,     ///< dep.sampled_tests — dependence tests that were timed
  DepSampledNs,        ///< dep.sampled_ns — wall ns summed over the timed tests
  SelCandidates,       ///< sel.candidates — permutations enumerated by selection
  SelCapHits,          ///< sel.cap_hits — selection searches stopped at maxCombos
  SelFallbacks,        ///< sel.fallbacks — groups falling back to original order
};

inline constexpr int kOpCount = 15;

/// Artifact/glossary name of an op (e.g. "fm.eliminations").
const char* opName(Op op);

/// All ops in enum order, for iteration.
const std::array<Op, kOpCount>& allOps();

namespace detail {
struct OpCounters {
  std::atomic<std::int64_t> v[kOpCount] = {};
};
inline OpCounters gOps;  // one instance across TUs (C++17 inline variable)
}  // namespace detail

/// Hot path: bump an operation counter. Inline relaxed fetch_add on a
/// global array — safe from any thread, never allocates or locks.
inline void count(Op op, std::int64_t n = 1) {
  detail::gOps.v[static_cast<int>(op)].fetch_add(n,
                                                 std::memory_order_relaxed);
}

/// Current process-lifetime value of one counter.
inline std::int64_t value(Op op) {
  return detail::gOps.v[static_cast<int>(op)].load(std::memory_order_relaxed);
}

/// Sampling period for timed hot-path operations (power of two).
inline constexpr std::uint64_t kSampleEvery = 8;

/// True on every kSampleEvery-th call, process-wide. Callers bracket the
/// operation with nowNs() only when this fires, recording into
/// DepSampledTests / DepSampledNs (or future sampled pairs).
inline bool sampleTick() {
  static std::atomic<std::uint64_t> ticks{0};
  return (ticks.fetch_add(1, std::memory_order_relaxed) &
          (kSampleEvery - 1)) == 0;
}

/// Steady-clock nanoseconds, for sampled sections.
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current / peak resident-set size in KiB from /proc/self/status
/// (VmRSS / VmHWM). Returns 0 where procfs is unavailable — consumers
/// treat 0 as "not measured", the obs graceful-degradation idiom.
std::int64_t currentRssKb();
std::int64_t peakRssKb();

/// Point-in-time copy of all counters, for delta computation.
using Snapshot = std::array<std::int64_t, kOpCount>;
Snapshot snapshot();

/// One per-SCoP row of the compile profile: counter deltas over the
/// scope bracket plus the SCoP's shape and cost gauges.
struct ScopRow {
  std::string scop;
  std::int64_t statements = 0;
  std::int64_t loops = 0;
  double compileMs = 0.0;
  std::int64_t rssHwmKb = 0;
  std::vector<std::pair<std::string, std::int64_t>> counters;  // op order
};

/// The full artifact payload (see writeCompileProfile for the schema).
struct CompileProfile {
  std::string pipeline;
  std::string generator;  ///< optional provenance note (e.g. scop_gen seed)
  std::vector<ScopRow> scops;
  std::vector<std::pair<std::string, std::int64_t>> residual;
  std::vector<std::pair<std::string, std::int64_t>> totals;
  std::int64_t rssHwmKb = 0;
};

/// Brackets per-SCoP compilation: beginScop() snapshots the global
/// counters, endScop() appends the delta row, finish() computes totals
/// and residual. Single-threaded use (the compile driver's loop).
class Collector {
 public:
  void beginScop();
  void endScop(std::string scop, std::int64_t statements, std::int64_t loops,
               double compileMs);
  /// Aborts an open bracket without emitting a row (failed compile).
  void abandonScop() { open_ = false; }

  CompileProfile finish(std::string pipeline,
                        std::string generator = std::string()) const;

 private:
  Snapshot base_{};
  bool open_ = false;
  std::vector<ScopRow> rows_;
};

/// Mirrors the current process totals into `reg` as counters named
/// `selfprof.<op>`, so a `--metrics-out` artifact carries them alongside
/// flow.* pass metrics. Adds the *delta* since the last mirror into the
/// same registry, so repeated calls stay consistent.
void mirrorToRegistry(Registry& reg);

/// Writes the `polyast-compile-profile-v1` artifact:
/// {"schema", "pipeline", "generator"?, "scops":[{"scop","statements",
///  "loops","compile_ms","rss_hwm_kb","counters":{...}}],
///  "residual":{"counters":{...}},
///  "totals":{"rss_hwm_kb","counters":{...}}}
void writeCompileProfile(std::ostream& out, const CompileProfile& profile);
void writeCompileProfileFile(const std::string& path,
                             const CompileProfile& profile);

}  // namespace polyast::obs::selfprof
