// Reduction soundness re-verification.
//
// Under --reductions=relaxed the affine scheduler drops proven-pure
// self-accumulation dependences from every legality decision, so the
// resulting schedule is free to reorder, interchange, or fuse across the
// accumulation order. That is only correct when each dropped edge is
// re-discharged at execution time, and this pass re-proves exactly that —
// from the *post-transform* dependence graph, with no trust in what the
// scheduler claims it did:
//
//   * An edge whose endpoints never interleave across threads (no
//     enclosing parallel construct, or distance exactly zero at every
//     concurrently executed construct level) runs sequentially inside one
//     cell: reordering it is a pure reassociation of a single
//     accumulation chain, discharged with a "relaxed-edge" remark.
//   * An edge a construct does interleave must land in a privatizing
//     construct: kind Reduction or ReductionPipeline AND its accumulator
//     in ir::privatizableArrays(construct) — the one helper the native
//     kernel emitter consumes to pick its privatize+merge buffers, so the
//     obligation recorded here is the obligation the executor actually
//     discharges. Discharged edges
//     get a "relaxed-edge" remark naming the edge, the covering construct,
//     and the privatization obligation.
//   * A purity proof that fails on the current program (operator left the
//     whitelist, an extra accumulator read appeared, a may-alias write
//     moved inside the carrying loop) under a construct that interleaves
//     the edge is an "unproven-relaxation" finding.
//   * A proven-pure edge interleaved by a construct that will not
//     privatize it (a Doall, an uncovered Pipeline, or a reduction
//     construct whose accumulator is read or set-written inside) is an
//     "escaped-relaxation" finding.
//
// Severity is witness-gated like the other analyses: errors require a
// concrete interleaved iteration pair at the session's test parameters
// and exact stride modeling; otherwise the finding is a warning.
//
// The dependence-geometry helpers mirror races.cpp; the duplication is
// deliberate — this is an independent checker, not a shared library with
// the detector.
#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "analysis/analysis.hpp"

namespace polyast::analysis {
namespace {

using ir::Loop;
using ir::ParallelKind;
using poly::DepKind;
using poly::Dependence;
using poly::PolyStmt;
using poly::ReductionClass;
using poly::Scop;

/// Index of `loop` in a dependence's common-loop prefix, or nullopt when
/// the loop does not enclose both endpoints.
std::optional<std::size_t> commonLevelOf(const Scop& scop,
                                         const Dependence& d,
                                         const Loop* loop) {
  const auto& src = scop.byId(d.srcId);
  const auto& dst = scop.byId(d.dstId);
  std::size_t cl = scop.commonLoops(src, dst);
  for (std::size_t k = 0; k < cl; ++k)
    if (src.loops[k].get() == loop) return k;
  return std::nullopt;
}

/// Distance expression e_k = dst_k - src_k over the dep's joint space.
LinExpr distExpr(const Dependence& d, std::size_t k) {
  std::size_t n = d.poly.numVars();
  LinExpr e = LinExpr::constantExpr(0, n);
  e.coeffs[d.srcDim + k] += 1;
  e.coeffs[k] -= 1;
  return e;
}

/// The dep polyhedron restricted to pairs not ordered by the loops above
/// level `k` (distance 0 at levels 0..k-1).
IntSet restrictedPoly(const Dependence& d, std::size_t k) {
  IntSet s = d.poly;
  for (std::size_t l = 0; l < k; ++l) {
    LinExpr e = distExpr(d, l);
    s.addEquality(e.coeffs, e.constant);
  }
  return s;
}

std::string stmtName(const PolyStmt& ps) {
  return ps.stmt->label.empty() ? ("#" + std::to_string(ps.stmt->id))
                                : ps.stmt->label;
}

std::string boundStr(const std::optional<std::int64_t>& b) {
  return b ? std::to_string(*b) : "unbounded";
}

/// The concurrently executed levels of a construct: the marked loop, plus
/// the chained descendants a pipeline grid synchronizes cell-by-cell.
std::vector<const Loop*> concurrentLevels(const std::shared_ptr<Loop>& mark) {
  std::vector<const Loop*> out{mark.get()};
  if (mark->parallel != ParallelKind::Pipeline &&
      mark->parallel != ParallelKind::ReductionPipeline)
    return out;
  std::int64_t claimed = std::min<std::int64_t>(
      mark->pipelineDepth > 0 ? mark->pipelineDepth : 2, 3);
  const Loop* cur = mark.get();
  while (static_cast<std::int64_t>(out.size()) < claimed) {
    const auto* sole = ir::soleLoopChild(cur->body).get();
    if (!sole) break;
    out.push_back(sole);
    cur = sole;
  }
  return out;
}

}  // namespace

bool reductionEdgeVouched(const Dependence& d,
                          const std::shared_ptr<Loop>& mark) {
  if (!d.fromReduction()) return false;
  if (mark->parallel != ParallelKind::Reduction &&
      mark->parallel != ParallelKind::ReductionPipeline)
    return false;
  const std::vector<std::string> priv = ir::privatizableArrays(mark);
  return std::find(priv.begin(), priv.end(), d.array) != priv.end();
}

void runReductions(const AnalysisInput& in, DiagnosticEngine& engine) {
  if (!in.podg || !in.program) return;
  const Scop& scop = *in.scop;

  // Construct ids match the executor's attribution and dispatch order.
  std::map<const Loop*, std::int64_t> constructIds;
  std::map<const Loop*, std::shared_ptr<Loop>> constructLoops;
  for (const auto& c : ir::collectParallelConstructs(*in.program)) {
    constructIds[c.loop.get()] = c.id;
    constructLoops[c.loop.get()] = c.loop;
  }

  std::int64_t checked = 0;
  std::int64_t discharged = 0;
  // One diagnostic per distinct (code, edge, construct) — the PoDG holds
  // one polyhedron per dependence level, which would repeat the finding.
  std::set<std::tuple<std::string, int, int, std::string, std::int64_t>>
      reported;

  for (const auto& d : in.podg->deps) {
    if (d.kind == DepKind::Input || !d.fromReduction()) continue;
    ++checked;
    const PolyStmt& src = scop.byId(d.srcId);
    const PolyStmt& dst = scop.byId(d.dstId);

    // The runtime construct covering the edge is the outermost marked
    // common ancestor (inner marks execute sequentially inside a cell).
    std::shared_ptr<Loop> mark;
    std::size_t markLevel = 0;
    std::size_t cl = scop.commonLoops(src, dst);
    for (std::size_t k = 0; k < cl; ++k) {
      if (src.loops[k]->parallel == ParallelKind::None) continue;
      mark = src.loops[k];
      markLevel = k;
      break;
    }
    if (!mark) {
      ++discharged;  // sequential execution: pure reassociation
      continue;
    }
    auto idIt = constructIds.find(mark.get());
    std::int64_t constructId = idIt != constructIds.end() ? idIt->second : -1;

    // Pairs not already ordered by the sequential loops above the mark.
    IntSet restricted = restrictedPoly(d, markLevel);
    if (restricted.isEmpty()) {
      ++discharged;
      continue;
    }

    // Interleaved iff some concurrently executed level separates the
    // endpoints. For pipeline kinds a componentwise non-negative distance
    // over every synchronized level is ordered by the grid's awaits, which
    // discharges the edge without privatization.
    bool sameCell = true;
    bool orderedBySync = true;
    std::size_t violLevel = markLevel;
    for (const Loop* lvl : concurrentLevels(mark)) {
      auto lk = commonLevelOf(scop, d, lvl);
      auto mn = lk ? restricted.minOf(distExpr(d, *lk)) : std::nullopt;
      auto mx = lk ? restricted.maxOf(distExpr(d, *lk)) : std::nullopt;
      bool zero = mn && *mn == 0 && mx && *mx == 0;
      if (!zero) {
        if (sameCell && lk) violLevel = *lk;
        sameCell = false;
      }
      if (!lk || !mn || *mn < 0) orderedBySync = false;
    }
    if (sameCell) {
      ++discharged;  // one cell owns the whole accumulation chain
      continue;
    }

    const ParallelKind kind = mark->parallel;
    const bool privatizing = kind == ParallelKind::Reduction ||
                             kind == ParallelKind::ReductionPipeline;
    const bool pipelined = kind == ParallelKind::Pipeline ||
                           kind == ParallelKind::ReductionPipeline;
    const std::vector<std::string> priv = ir::privatizableArrays(mark);
    const bool privatized =
        privatizing &&
        std::find(priv.begin(), priv.end(), d.array) != priv.end();

    std::string code;
    std::string why;
    if (privatized && d.reduction == ReductionClass::Relaxable) {
      code = "relaxed-edge";  // discharged: remark below
    } else if (pipelined && orderedBySync &&
               d.reduction == ReductionClass::Relaxable) {
      code = "relaxed-edge";  // ordered by the sync grid's awaits
    } else if (d.reduction != ReductionClass::Relaxable) {
      code = "unproven-relaxation";
      why = d.reductionWhy;
    } else {
      code = "escaped-relaxation";
      why = privatizing
                ? "accumulator '" + d.array +
                      "' is not privatizable inside the construct (read or "
                      "set-written by another statement)"
                : ir::parallelKindName(kind) +
                      " construct interleaves the accumulation without "
                      "privatizing '" + d.array + "'";
    }

    if (!reported
             .emplace(code, d.srcId, d.dstId, d.array, constructId)
             .second)
      continue;

    std::string loc;
    for (std::size_t k = 0; k <= markLevel; ++k)
      loc += (k ? "/" : "") + ("loop:" + src.loops[k]->iter);

    Diagnostic diag;
    diag.analysis = "reductions";
    diag.code = code;
    diag.location = loc;
    diag.afterPass = in.afterPass;
    diag.detail["array"] = d.array;
    diag.detail["src"] = stmtName(src);
    diag.detail["dst"] = stmtName(dst);
    diag.detail["level"] = std::to_string(d.level);
    diag.detail["class"] = poly::reductionClassName(d.reduction);
    if (!d.reductionOp.empty()) diag.detail["op"] = d.reductionOp;
    diag.detail["construct"] = mark->iter;
    diag.detail["construct_id"] = std::to_string(constructId);
    diag.detail["construct_kind"] = ir::parallelKindName(kind);
    if (privatized) diag.detail["privatize"] = d.array;

    if (code == "relaxed-edge") {
      ++discharged;
      diag.severity = Severity::Remark;
      diag.message =
          "relaxed accumulation edge " + stmtName(src) + " -> " +
          stmtName(dst) + " on '" + d.array + "' discharged by " +
          (privatized
               ? ir::parallelKindName(kind) + " construct '" + mark->iter +
                     "' (privatize+merge of '" + d.array + "')"
               : "the pipeline sync grid of construct '" + mark->iter + "'");
      diag.detail["proof"] = d.reductionWhy;
      engine.report(std::move(diag));
      continue;
    }

    diag.message =
        (code == "unproven-relaxation"
             ? "reduction edge " + stmtName(src) + " -> " + stmtName(dst) +
                   " on '" + d.array + "' interleaved by " +
                   ir::parallelKindName(kind) + " construct '" + mark->iter +
                   "' has no purity proof: " + why
             : "relaxed accumulation edge " + stmtName(src) + " -> " +
                   stmtName(dst) + " on '" + d.array +
                   "' escapes privatization: " + why);

    // Error needs a concrete interleaved iteration pair: an integer point
    // with nonzero distance at the first concurrent level that separates
    // the endpoints, under the witness parameters, with exact strides.
    auto mn = restricted.minOf(distExpr(d, violLevel));
    auto mx = restricted.maxOf(distExpr(d, violLevel));
    diag.detail["distance"] = "[" + boundStr(mn) + "," + boundStr(mx) + "]";
    bool inexact = !src.exactStrides || !dst.exactStrides;
    std::size_t paramBase = restricted.numVars() - scop.params.size();
    std::optional<std::vector<std::int64_t>> witness;
    for (int sign : {+1, -1}) {
      IntSet carried = restricted;
      LinExpr e = distExpr(d, violLevel);
      std::vector<std::int64_t> row(e.coeffs);
      for (auto& v : row) v *= sign;
      carried.addInequality(std::move(row), sign * e.constant - 1);
      witness =
          findIntegerWitness(carried, paramBase, scop.params, *in.options);
      if (witness) {
        diag.detail["witness"] = formatWitness(carried.varNames(), *witness);
        break;
      }
    }
    if (inexact) diag.detail["stride_overapprox"] = "true";
    diag.severity =
        (witness && !inexact) ? Severity::Error : Severity::Warning;
    engine.report(std::move(diag));
  }
  engine.metrics().counter("analysis.reductions.edges_checked").add(checked);
  engine.metrics()
      .counter("analysis.reductions.edges_discharged")
      .add(discharged);
}

}  // namespace polyast::analysis
