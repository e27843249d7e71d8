// Pass-manager core: the Pass interface, per-pass results, and the
// instrumented PassContext shared by every pipeline execution.
//
// The paper's Algorithm 1 is a *sequence of cooperating stages*; this
// subsystem makes that sequence explicit. Each stage is a Pass that
// mutates an ir::Program in place and returns a PassResult (counters +
// fallback notes). A PassPipeline (pipeline.hpp) executes an ordered list
// of passes and fills the PassContext with per-pass instrumentation:
//   * wall-clock timing per pass,
//   * named stage counters (skews applied, bands tiled, parallel loops
//     found by kind, ...),
//   * optional IR / C dumps after selected passes,
//   * an inter-pass semantic verification mode that runs the src/exec
//     interpreter oracle on test-scale parameters after every pass and
//     pinpoints *which* pass broke semantics (previously only end-to-end
//     comparison existed).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "ir/ast.hpp"
#include "obs/metrics.hpp"
#include "poly/dependence.hpp"
#include "support/error.hpp"

namespace polyast::flow {

/// Outcome of one pass execution. `succeeded` means the pass did its job
/// without degrading (a pass that falls back — e.g. the affine stage
/// reverting to identity schedules — still returns normally but reports
/// succeeded = false and the reason in `note`).
struct PassResult {
  bool succeeded = true;
  std::map<std::string, std::int64_t> counters;
  std::string note;
};

class PassContext;

/// A single transformation stage. Passes mutate the program in place and
/// must preserve semantics (the pipeline's verification mode enforces
/// this with the interpreter oracle).
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const std::string& name() const = 0;
  virtual PassResult run(ir::Program& program, PassContext& ctx) = 0;
};

/// Instrumentation record for one executed pass.
struct PassReport {
  std::string pass;
  double millis = 0.0;
  /// Process peak RSS (VmHWM, KiB) observed right after the pass ran; 0
  /// when procfs is unavailable. Monotone across passes — a jump over the
  /// previous pass's value attributes an allocation high-water to this
  /// pass (also exported as gauge `flow.<pass>.rss_hwm_kb`).
  std::int64_t rssHwmKb = 0;
  bool succeeded = true;
  std::map<std::string, std::int64_t> counters;
  std::string note;
  /// Oracle fields (filled only when verification is enabled).
  bool verified = false;
  double oracleMaxAbsDiff = 0.0;
  /// The oracle caught this pass changing semantics. Set only when
  /// VerifyOptions::continueAfterFailure is on (otherwise the pipeline
  /// throws VerificationError at the first break); `verifyNote` carries
  /// the diagnostic.
  bool semanticsBroken = false;
  std::string verifyNote;
};

/// Instrumentation for a whole pipeline execution.
struct PipelineReport {
  std::vector<PassReport> passes;
  double totalMillis = 0.0;

  /// Sum of a named counter over all passes (0 when absent).
  std::int64_t counter(const std::string& name) const;
  /// Number of passes the oracle flagged (continue-after-failure mode).
  int brokenPasses() const;
  /// Report of the named pass, or nullptr when it did not run.
  const PassReport* find(const std::string& pass) const;
  /// Human-readable per-pass table (one line per pass) for CLI/debugging.
  std::string summary() const;
};

/// Inter-pass oracle configuration. When enabled, the pipeline executes
/// the *input* program once as the reference and re-executes the working
/// program after every pass on identical seeded buffers; any divergence
/// (buffer contents or executed-instance count) throws VerificationError
/// naming the offending pass.
struct VerifyOptions {
  bool enabled = false;
  /// Keep executing after an oracle failure instead of throwing at the
  /// first break: every breaking pass is recorded (PassReport::
  /// semanticsBroken, metric `flow.verify.breaks`, a "semantics-break"
  /// trace event) and the reference re-bases onto the broken output so
  /// each *subsequent* pass is still judged on the breakage it adds
  /// itself. `polyastc --verify-each-pass` uses this and exits with the
  /// break count.
  bool continueAfterFailure = false;
  /// Parameter bindings for the oracle runs. Parameters not listed get a
  /// small test-scale default (7; 3 for time-step-like "TSTEPS").
  std::map<std::string, std::int64_t> params;
  /// Context factory; when set it overrides `params` entirely. Use this
  /// to inject kernels::makeContext for kernels that need conditioned
  /// inputs (the flow library itself does not depend on the kernel
  /// suite).
  std::function<exec::Context(const ir::Program&)> makeContext;
  /// Max |diff| tolerated between reference and transformed buffers. Our
  /// restricted transformation class never reassociates a statement
  /// instance's arithmetic, so the default is exact.
  double tolerance = 0.0;
};

/// IR dump configuration (the `--dump-after=` CLI mode).
struct DumpOptions {
  /// Stream to write dumps to; nullptr disables dumping.
  std::ostream* stream = nullptr;
  /// Pass names after which to dump; the single entry "all" selects every
  /// pass.
  std::set<std::string> after;
  /// Emit a full C translation unit (ir::emitC) instead of the IR printer.
  bool asC = false;

  bool wants(const std::string& pass) const {
    return stream && (after.count("all") || after.count(pass));
  }
};

/// Shared state threaded through a pipeline execution.
class PassContext {
 public:
  VerifyOptions verify;
  DumpOptions dump;
  PipelineReport report;
  /// Metrics sink for pipeline execution: per-pass stage counters
  /// (`flow.<counter>`), per-pass run/fallback counts
  /// (`flow.<pass>.runs` / `flow.<pass>.fallbacks` plus the
  /// `flow.<pass>.fallback_reason` note), and oracle outcomes
  /// (`flow.verify.breaks`). Defaults to the process-wide registry;
  /// point it at a local Registry to observe one run in isolation.
  /// Never null.
  obs::Registry* metrics = &obs::Registry::global();
  /// The dependence analysis of the working program, shared by the
  /// dependence-driven passes (skew stores it, parallelism and tile reuse
  /// it while the loop structure is unchanged; see poly::DependenceCache).
  /// PassPipeline::run empties it when the run ends, so it never outlives
  /// the program whose nodes it points into.
  poly::DependenceCache dependences;

  /// Builds an oracle context for `program` per `verify` (factory or
  /// test-scale parameter defaults, seeded deterministically).
  exec::Context makeOracleContext(const ir::Program& program) const;
};

/// Thrown by the pipeline when the interpreter oracle detects that a pass
/// changed program semantics; `pass()` names the offender.
class VerificationError : public Error {
 public:
  VerificationError(const std::string& pass, const std::string& what)
      : Error("pass '" + pass + "' broke semantics: " + what), pass_(pass) {}
  const std::string& pass() const { return pass_; }

 private:
  std::string pass_;
};

}  // namespace polyast::flow
