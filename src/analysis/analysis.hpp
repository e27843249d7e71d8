// Static analysis framework over the IR + polyhedral view.
//
// An AnalysisSession owns a DiagnosticEngine and is invoked — typically
// via flow::AnalyzePass — on the program at successive pipeline points.
// The first analyze() call captures the *baseline*: it stamps every
// statement's provenance map (ir::Stmt::origin, the identity at that
// point) and snapshots the program, its SCoP, and its dependence graph.
// Later calls check the by-then transformed program against that
// baseline:
//
//   * legality  — every baseline dependence, rewritten into the current
//                 iteration space through the statements' origin maps,
//                 must still be ordered source-before-sink by the current
//                 program's syntactic schedule (legality.cpp),
//   * races     — every parallel mark (Doall / Reduction / Pipeline /
//                 ReductionPipeline) is re-proven from the current
//                 dependence graph; an uncovered loop-carried dependence
//                 is a race (races.cpp),
//   * bounds    — affine subscripts are checked against declared array
//                 extents under the parameter domain, plus IR
//                 well-formedness lints (bounds.cpp).
//
// Soundness: emptiness tests use the rational relaxation, so a finding
// can be spurious only in the "possible" direction — findings are
// reported as errors only when a concrete integer witness exists at the
// session's test parameters and the involved statements' stride modeling
// is exact; everything else is a warning.
//
// Adding an analysis: write a `void runX(const AnalysisInput&,
// DiagnosticEngine&)` translation unit that reports Diagnostics under a
// new stable analysis id, and call it from AnalysisSession::analyze()
// behind an AnalysisOptions toggle. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "ir/ast.hpp"
#include "poly/dependence.hpp"
#include "poly/scop.hpp"

namespace polyast::analysis {

struct AnalysisOptions {
  bool legality = true;
  bool races = true;
  bool bounds = true;
  /// Reduction soundness re-verification: every reduction-classified self
  /// edge of the current dependence graph must either execute sequentially
  /// inside one cell of every enclosing parallel construct or land in a
  /// construct the executor privatizes (reductions.cpp).
  bool reductions = true;
  /// The pipeline ran with --reductions=relaxed: the affine scheduler was
  /// allowed to drop proven-pure accumulation edges, so a violated
  /// *relaxable* baseline dependence is the expected reassociation, not a
  /// bug — legality downgrades it to a remark and the reductions pass
  /// carries the proof obligation instead.
  bool relaxedReductions = false;
  /// Parameter lower bound assumed by every polyhedral question (matches
  /// ScopOptions::paramMin).
  std::int64_t paramMin = 4;
  /// Parameter bindings used when confirming a rational finding with a
  /// concrete integer witness. Parameters not listed default to the
  /// test-scale values the interpreter oracle uses (max(paramMin, 3) for
  /// TSTEPS-like parameters, max(paramMin, 7) otherwise).
  std::map<std::string, std::int64_t> witnessParams;
};

/// Everything one analysis run sees. Baseline fields are null until the
/// session has captured a usable baseline (legality needs them; races and
/// bounds only look at the current program).
struct AnalysisInput {
  const ir::Program* program = nullptr;
  const poly::Scop* scop = nullptr;          ///< current program
  const poly::PoDG* podg = nullptr;          ///< current deps (no input deps)
  const poly::Scop* baselineScop = nullptr;  ///< pipeline-input view
  const poly::PoDG* baselinePodg = nullptr;
  std::string afterPass;
  const AnalysisOptions* options = nullptr;
};

// Analysis entry points, one translation unit each.
void runLegality(const AnalysisInput& in, DiagnosticEngine& engine);
void runRaces(const AnalysisInput& in, DiagnosticEngine& engine);
void runBounds(const AnalysisInput& in, DiagnosticEngine& engine);
void runReductions(const AnalysisInput& in, DiagnosticEngine& engine);

/// The reduction pass's vouching contract, shared with the race analysis:
/// a reduction-classified dependence carried by a Reduction /
/// ReductionPipeline mark is benign only when the executor will actually
/// privatize its accumulator inside that construct. Computed from the same
/// ir::privatizableArrays helper the native kernel emitter consumes, so
/// the static proof and the runtime discharge can never disagree about
/// the obligation (reductions.cpp).
bool reductionEdgeVouched(const poly::Dependence& d,
                          const std::shared_ptr<ir::Loop>& mark);

/// One analysis session: baseline capture + repeated analyze() calls over
/// the (mutating) program, accumulating diagnostics across the pipeline.
class AnalysisSession {
 public:
  explicit AnalysisSession(
      AnalysisOptions options = {},
      obs::Registry* metrics = &obs::Registry::global());

  /// Runs every enabled analysis on `program`, attributing findings to
  /// the pipeline point `afterPass` ("<input>" by convention before any
  /// pass). The first call stamps ir::Stmt::origin identity maps on the
  /// live program and snapshots it as the legality baseline. Re-analyzing
  /// a textually identical program is skipped (same text, same verdicts).
  /// The race and reduction analyses take the dependence graph of
  /// `program` from `deps` — in a pipeline the PassContext's cache, so a
  /// pass that only set parallel marks costs no new dependence analysis.
  void analyze(ir::Program& program, const std::string& afterPass,
               poly::DependenceCache& deps);

  DiagnosticEngine& engine() { return engine_; }
  const DiagnosticEngine& engine() const { return engine_; }
  const AnalysisOptions& options() const { return options_; }
  bool hasBaseline() const { return baseline_ != nullptr; }

 private:
  void captureBaseline(ir::Program& program);

  AnalysisOptions options_;
  obs::Registry* metrics_;
  DiagnosticEngine engine_;
  /// Snapshot of the pipeline input; unique_ptr keeps its address stable
  /// (baselineScop_ points into it).
  std::unique_ptr<ir::Program> baseline_;
  std::optional<poly::Scop> baselineScop_;
  std::optional<poly::PoDG> baselinePodg_;
  bool baselineUsable_ = false;
  std::string lastAnalyzedText_;
  /// Rename-invariant canonicalization of the last program the legality
  /// analysis actually proved (see legalityKey in analysis.cpp); a later
  /// pipeline point with an equal key reuses those verdicts.
  std::string lastLegalityKey_;
};

// Shared helpers used by the analyses.

/// "loop:t/loop:i/stmt:S1" location path of a statement.
std::string locationOf(const poly::PolyStmt& ps);

/// Witness value for one parameter (AnalysisOptions::witnessParams or the
/// test-scale default, never below paramMin).
std::int64_t witnessParamValue(const AnalysisOptions& options,
                               const std::string& param);

/// Fixes the parameter columns [paramBase, paramBase + params.size()) of
/// `set` to their witness values and searches for an integer point.
/// nullopt = empty under the witness parameters (or enumeration failed on
/// an unbounded direction) — i.e. no concrete counterexample.
std::optional<std::vector<std::int64_t>> findIntegerWitness(
    const IntSet& set, std::size_t paramBase,
    const std::vector<std::string>& params, const AnalysisOptions& options);

/// "i@s=1 j@s=2 ..." rendering of an enumerated point.
std::string formatWitness(const std::vector<std::string>& names,
                          const std::vector<std::int64_t>& point);

}  // namespace polyast::analysis
