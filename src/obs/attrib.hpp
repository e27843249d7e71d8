// Construct-level attribution: per-parallel-construct tracing spans and
// hardware-counter profiles, shared by both execution backends.
//
// Both backends report construct boundaries through the same two free
// functions: the sequential interpreter backend (exec::runBracketed)
// calls constructEnter/constructExit around every encounter of a
// construct's loop, and JIT-compiled kernels reach the identical pair
// through the ABI-v2 construct_enter/construct_exit entries of the
// runtime/capi function table. The hooks do two independent things:
//
//   * Tracing: when the global Tracer is enabled, each construct
//     encounter becomes a "construct" span (kind:iter, with id/kind/iter
//     attributes) on the driving thread, on both backends.
//   * Profiling: when a ConstructProfiler is installed, every boundary
//     takes a cumulative grouped sample of a PerfSession
//     (PerfSession::sample — read without stopping) and charges the delta
//     since the previous boundary to the currently-open construct, or to
//     the residual when none is open. Because the deltas telescope, the
//     per-construct rows plus the residual sum *exactly* to the run
//     total — the invariant `obs_validate --attrib` enforces.
//
// Cost when disabled: constructHooksActive() is false, the capi table
// returned to kernels carries no-op hook entries, and the interpreter
// backend runs the hookless interpreter — one predicate per run, not per
// encounter.
//
// Sampling semantics: the session lives on the driving thread, which
// participates in every runtime construct as one pool worker, so counter
// deltas are a ~1/threads proportional sample of the construct's total
// work — the right shape for rank correlation against DL per-nest
// predictions, not an absolute whole-machine count. Wall time is measured
// on the driving thread and is absolute.
//
// The polyast-attrib-v1 artifact pairs these rows with the DL model's
// per-nest predictions (plain numbers — obs cannot depend on src/dl) and
// adds per-kernel and pooled Spearman rank correlations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/perf.hpp"

namespace polyast::obs {

/// One construct's accumulated profile within a single run.
struct ConstructRow {
  std::int64_t id = 0;
  std::string kind;  ///< ir::parallelKindName text ("doall", ...)
  std::string iter;  ///< the marked loop's iterator
  std::int64_t enters = 0;  ///< dynamic encounters
  PerfReading measured;     ///< telescoped deltas charged to this construct
};

/// Collects per-construct counter deltas for one kernel run at a time.
/// install() publishes the profiler to the process-global hook slot (one
/// profiled run at a time, like the capi RunCounters); the executing
/// backend brackets the run with beginRun()/endRun() on its driving
/// thread, and the construct hooks route enter/exit to it.
class ConstructProfiler {
 public:
  explicit ConstructProfiler(PerfOptions opts = {});
  ~ConstructProfiler();
  ConstructProfiler(const ConstructProfiler&) = delete;
  ConstructProfiler& operator=(const ConstructProfiler&) = delete;

  /// The installed profiler, or nullptr. Hooks check this on every call.
  static ConstructProfiler* current();
  /// Publishes this profiler to the hook slot / retracts it.
  void install();
  void uninstall();

  /// Starts a fresh measurement on the calling thread: clears previous
  /// rows, opens and starts a PerfSession here. Called by the backend
  /// that is about to execute (backend = "interp" or "native").
  void beginRun(const std::string& backend);
  /// Takes the final boundary sample and stops the session. After this,
  /// rows() + residual() sum exactly to total().
  void endRun();

  /// Construct boundaries (called via the free hooks below).
  void enter(std::int64_t id, const char* kind, const char* iter);
  void exit(std::int64_t id);

  /// Rows in construct-id order, the unattributed remainder, and the
  /// whole-run reading (valid after endRun()).
  std::vector<ConstructRow> rows() const;
  PerfReading residual() const;
  PerfReading total() const;
  const std::string& backend() const { return backend_; }
  bool degraded() const;
  const std::string& degradedReason() const;

 private:
  void boundary();  ///< sample, charge delta to open construct/residual

  PerfOptions opts_;
  mutable std::mutex mutex_;
  std::unique_ptr<PerfSession> session_;
  bool running_ = false;
  std::string backend_;
  std::map<std::int64_t, ConstructRow> rows_;
  std::vector<std::int64_t> stack_;  ///< open construct ids (driving thread)
  PerfReading lastSample_;
  PerfReading residual_;
  PerfReading total_;
};

/// True when any construct-boundary consumer is live (a profiler is
/// installed or the global tracer is enabled). The capi table selection
/// and the interpreter backend use this to make disabled runs hook-free.
bool constructHooksActive();

/// The construct boundary hooks both backends call (the native backend
/// through the capi table's construct_enter/construct_exit entries).
/// Safe with hooks inactive (early return). Must be called balanced on
/// the same thread.
void constructEnter(std::int64_t id, const char* kind, const char* iter);
void constructExit(std::int64_t id);

// ---------------------------------------------------------------------
// The polyast-attrib-v1 artifact.

/// One construct row paired with the DL model's predictions for the
/// nests it contains (summed over nests whose iterator chain the
/// construct's chain prefixes; plain numbers — src/dl produces them).
struct AttribConstruct {
  std::int64_t id = 0;
  std::string kind;
  std::string iter;
  std::string nest;  ///< dotted enclosing-iterator chain, e.g. "i.j"
  std::int64_t enters = 0;
  double predictedLines = 0.0;
  double predictedCost = 0.0;
  double predictedIters = 0.0;
  int predictedNests = 0;  ///< DL nests matched to this construct
  PerfReading measured;
};

struct AttribKernel {
  std::string kernel;
  std::string pipeline;
  std::string backend = "interp";
  PerfReading total;     ///< whole-run reading (driving thread)
  PerfReading residual;  ///< total minus all construct rows
  std::vector<AttribConstruct> constructs;
};

struct AttribReport {
  std::vector<AttribKernel> kernels;
  int threads = 1;
};

/// Writes the polyast-attrib-v1 JSON:
/// {"schema":"polyast-attrib-v1","threads":N,"degraded":bool,
///  "kernels":[{"kernel","pipeline","backend",
///    "total":{"degraded","degraded_reason"?,"wall_ns","tsc_cycles",
///             "multiplex_ratio","counters":{...}},
///    "residual":{"wall_ns","tsc_cycles","counters":{...}},
///    "constructs":[{"id","kind","iter","nest","enters",
///      "predicted":{"lines","cost","iters","nests"},
///      "measured":{"wall_ns","tsc_cycles","counters":{...}}}],
///    "summary":{"construct_count",
///      "rank_correlation":{"cost_vs_wall_ns","lines_vs_l1d_misses"}}}],
///  "summary":{"kernel_count","construct_count",
///    "rank_correlation":{"cost_vs_wall_ns","lines_vs_l1d_misses"}}}
/// Invariant: per kernel, residual + sum(constructs[].measured) equals
/// total exactly — wall_ns always, each hardware counter whenever every
/// row carries it. Rank correlations are per-construct (pooled across
/// kernels in the top-level summary), null when undefined.
void writeAttrib(std::ostream& out, const AttribReport& report);
void writeAttribFile(const std::string& path, const AttribReport& report);

}  // namespace polyast::obs
