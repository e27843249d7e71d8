#include "analysis/analysis.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace polyast::analysis {

namespace {

/// Canonical change-detection key for the legality verdicts: the program
/// text with every loop iterator renamed to its pre-order position, plus
/// each statement's provenance (origin) map. That captures everything the
/// legality proof depends on — domains, access functions, textual order,
/// schedule provenance — and nothing it does not (iterator spellings).
/// Legality compares the current program against the immutable baseline,
/// so two pipeline points with equal keys get identical verdicts; a pass
/// that only renames iterators need not re-prove every baseline edge.
std::string legalityKey(const ir::Program& program) {
  ir::Program copy = program.deepCopy();
  std::vector<std::shared_ptr<ir::Loop>> loops;
  std::function<void(const ir::NodePtr&)> collect =
      [&](const ir::NodePtr& n) {
        switch (n->kind) {
          case ir::Node::Kind::Block:
            for (const auto& c :
                 std::static_pointer_cast<ir::Block>(n)->children)
              collect(c);
            break;
          case ir::Node::Kind::Loop: {
            auto l = std::static_pointer_cast<ir::Loop>(n);
            loops.push_back(l);
            collect(l->body);
            break;
          }
          case ir::Node::Kind::Stmt:
            break;
        }
      };
  collect(copy.root);
  // Pre-order (outermost first), so shadowing renames resolve innermost
  // last — "@" cannot appear in a source iterator, so no collisions.
  for (std::size_t k = 0; k < loops.size(); ++k)
    ir::renameIterInTree(loops[k], loops[k]->iter, "@" + std::to_string(k));
  std::string key = ir::printProgram(copy);
  copy.forEachStmt([&](const std::shared_ptr<ir::Stmt>& s,
                       const std::vector<std::shared_ptr<ir::Loop>>&) {
    key += "\n#origin " + std::to_string(s->id) + ":";
    for (const auto& o : s->origin) key += " [" + o.str() + "]";
  });
  return key;
}

}  // namespace

AnalysisSession::AnalysisSession(AnalysisOptions options,
                                 obs::Registry* metrics)
    : options_(std::move(options)), metrics_(metrics), engine_(metrics) {}

void AnalysisSession::captureBaseline(ir::Program& program) {
  // Stamp the identity provenance map: from here on every iterator
  // substitution a pass performs keeps Stmt::origin expressing the
  // original iterators in terms of the current ones.
  program.forEachStmt([](const std::shared_ptr<ir::Stmt>& stmt,
                         const std::vector<std::shared_ptr<ir::Loop>>& loops) {
    stmt->origin.clear();
    stmt->origin.reserve(loops.size());
    for (const auto& l : loops)
      stmt->origin.push_back(ir::AffExpr::term(l->iter));
  });
  baseline_ = std::make_unique<ir::Program>(program.deepCopy());

  std::string unusable;
  try {
    poly::ScopOptions sopt;
    sopt.paramMin = options_.paramMin;
    baselineScop_ = poly::extractScop(*baseline_, sopt);
    baselinePodg_ = poly::computeDependences(*baselineScop_);
    std::set<int> ids;
    for (const auto& ps : baselineScop_->stmts) {
      if (!ids.insert(ps.stmt->id).second)
        unusable = "duplicate statement ids in the input";
      if (ps.numExists > 0 || !ps.exactStrides)
        unusable = "stepped loops in the input";
    }
  } catch (const Error& e) {
    unusable = std::string("baseline extraction failed: ") + e.what();
    baselineScop_.reset();
    baselinePodg_.reset();
  }
  baselineUsable_ = unusable.empty();
  if (!baselineUsable_) {
    Diagnostic d;
    d.severity = Severity::Remark;
    d.analysis = "legality";
    d.code = "baseline-unusable";
    d.message = "legality analysis disabled: " + unusable;
    d.afterPass = "<input>";
    engine_.report(d);
  }
}

void AnalysisSession::analyze(ir::Program& program,
                              const std::string& afterPass,
                              poly::DependenceCache& deps) {
  obs::Span span("analysis.run", "analysis");
  span.attr("after", afterPass);
  metrics_->counter("analysis.runs").add();

  // A pass that did not change the program cannot change any verdict: the
  // printed text is a faithful rendering of everything the analyses see.
  std::string text = ir::printProgram(program);
  if (text == lastAnalyzedText_) {
    metrics_->counter("analysis.skipped_unchanged").add();
    return;
  }

  if (!baseline_) captureBaseline(program);

  // The race and reduction analyses are the only consumers of the
  // re-extracted dependence graph, and recomputing dependences on a fully
  // transformed (tiled, unrolled) program is the single most expensive
  // step here. Nothing can race — and no relaxed accumulation can
  // interleave — before the first parallel mark appears, so skip it
  // outright.
  bool hasMarks = false;
  program.forEachStmt([&](const std::shared_ptr<ir::Stmt>&,
                          const std::vector<std::shared_ptr<ir::Loop>>& loops) {
    for (const auto& l : loops)
      if (l->parallel != ir::ParallelKind::None) hasMarks = true;
  });

  // Without marks only the SCoP is needed; with them the analysis comes
  // from `deps`, which hands back the one already computed for this loop
  // structure when a pass only changed marks.
  std::optional<poly::Scop> extracted;
  const poly::Scop* scop = nullptr;
  const poly::PoDG* podg = nullptr;
  try {
    poly::ScopOptions sopt;
    sopt.paramMin = options_.paramMin;
    if ((options_.races || options_.reductions) && hasMarks) {
      // Dependence re-extraction can also trip over a non-affine escape
      // (extraction itself never maps access subscripts).
      const poly::DependenceAnalysis& a = deps.get(program, sopt);
      scop = &a.scop;
      podg = &a.podg;
    } else {
      extracted = poly::extractScop(program, sopt);
      scop = &*extracted;
    }
  } catch (const Error& e) {
    // Non-affine escape (or malformed loop): the program left the class
    // the analyses can reason about — itself a well-formedness finding.
    scop = nullptr;
    Diagnostic d;
    d.severity = Severity::Error;
    d.analysis = "bounds";
    d.code = "extract-error";
    d.message = std::string("SCoP extraction failed: ") + e.what();
    d.afterPass = afterPass;
    engine_.report(d);
  }

  if (scop) {
    AnalysisInput in;
    in.program = &program;
    in.scop = scop;
    in.podg = podg;
    in.baselineScop = baselineScop_ ? &*baselineScop_ : nullptr;
    in.baselinePodg = baselinePodg_ ? &*baselinePodg_ : nullptr;
    in.afterPass = afterPass;
    in.options = &options_;

    if (options_.legality && baselineUsable_) {
      std::string key = legalityKey(program);
      if (key == lastLegalityKey_) {
        // Same canonical schedule + domain as the last proved point (the
        // pass only respelled iterators): the verdicts — already reported
        // there — carry over verbatim.
        metrics_->counter("analysis.legality.reused_unchanged").add();
      } else {
        obs::Span s("analysis.legality", "analysis");
        runLegality(in, engine_);
        lastLegalityKey_ = std::move(key);
      }
    }
    if (options_.races) {
      obs::Span s("analysis.races", "analysis");
      runRaces(in, engine_);
    }
    if (options_.reductions) {
      obs::Span s("analysis.reductions", "analysis");
      runReductions(in, engine_);
    }
    if (options_.bounds) {
      obs::Span s("analysis.bounds", "analysis");
      runBounds(in, engine_);
    }
  }
  lastAnalyzedText_ = std::move(text);
}

std::string locationOf(const poly::PolyStmt& ps) {
  std::string out;
  for (const auto& l : ps.loops) out += "loop:" + l->iter + "/";
  out += "stmt:" +
         (ps.stmt->label.empty() ? std::to_string(ps.stmt->id)
                                 : ps.stmt->label);
  return out;
}

std::int64_t witnessParamValue(const AnalysisOptions& options,
                               const std::string& param) {
  auto it = options.witnessParams.find(param);
  if (it != options.witnessParams.end())
    return std::max(it->second, options.paramMin);
  std::int64_t def = param.find("TSTEPS") != std::string::npos ? 3 : 7;
  return std::max(def, options.paramMin);
}

std::optional<std::vector<std::int64_t>> findIntegerWitness(
    const IntSet& set, std::size_t paramBase,
    const std::vector<std::string>& params, const AnalysisOptions& options) {
  IntSet s = set;
  for (std::size_t p = 0; p < params.size(); ++p) {
    std::vector<std::int64_t> row(s.numVars(), 0);
    row[paramBase + p] = 1;
    s.addEquality(std::move(row), -witnessParamValue(options, params[p]));
  }
  if (s.isEmpty()) return std::nullopt;
  std::optional<std::vector<std::int64_t>> out;
  try {
    s.enumerate([&](const std::vector<std::int64_t>& pt) {
      out = pt;
      return false;
    });
  } catch (const Error&) {
    return std::nullopt;  // some direction unbounded — no finite witness
  }
  return out;
}

std::string formatWitness(const std::vector<std::string>& names,
                          const std::vector<std::int64_t>& point) {
  std::string out;
  for (std::size_t i = 0; i < point.size() && i < names.size(); ++i) {
    if (!out.empty()) out += " ";
    out += names[i] + "=" + std::to_string(point[i]);
  }
  return out;
}

}  // namespace polyast::analysis
