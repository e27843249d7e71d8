// Data-dependence analysis (Sec. III-A): dependence polyhedra, the
// polyhedral dependence graph (PoDG), SCC computation, and the
// dependence-vector summarization consumed by the AST-based stage (Sec. IV).
//
// This replaces the Candl tool used by the paper's implementation. For every
// pair of accesses to the same array with at least one write, and for every
// dependence level (loop-carried at each common depth, plus loop-independent),
// we build the dependence polyhedron over [src iters, dst iters, params] and
// keep it if non-empty. Emptiness uses the rational relaxation, which can
// only over-approximate (report spurious dependences), never miss one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "intset/intset.hpp"
#include "poly/scop.hpp"

namespace polyast::poly {

enum class DepKind { Flow, Anti, Output, Input };

std::string depKindName(DepKind k);

/// Classification of accumulation (reduction) dependences, following the
/// mark -> relax -> re-prove scheme of "Polly's Polyhedral Scheduling in
/// the Presence of Reductions". Only `Relaxable` edges may be dropped by
/// the relaxed affine-selection mode; the proof is purely static and the
/// `reductions` analysis pass re-establishes it post-transform.
enum class ReductionClass {
  None,       ///< not an accumulation dependence
  Unproven,   ///< syntactic reduction update, but the purity proof failed
  Relaxable,  ///< proven pure associative/commutative self-accumulation
};

std::string reductionClassName(ReductionClass c);

struct Dependence {
  int srcId = -1;
  int dstId = -1;
  DepKind kind = DepKind::Flow;
  std::string array;
  /// 0 = loop-independent; k >= 1 = carried by the k-th common loop.
  std::size_t level = 0;
  std::size_t srcDim = 0;  ///< #iterators of the source statement
  std::size_t dstDim = 0;  ///< #iterators of the target statement
  /// Indices into the endpoints' PolyStmt::accesses of the conflicting
  /// access pair (used by diagnostics to name the exact edge).
  std::size_t srcAcc = 0;
  std::size_t dstAcc = 0;
  /// Polyhedron over [src iters..., dst iters..., src exists...,
  /// dst exists..., params...]. The existential stride columns are only
  /// present when an endpoint has stepped loops; parameters are always
  /// the trailing columns.
  IntSet poly;
  /// Both endpoints are the same reduction-update statement and the
  /// dependence flows through the accumulated cell; `Relaxable` only after
  /// the static purity proof succeeded (operator whitelist, single
  /// read-modify-write of one cell, no intervening may-alias write inside
  /// the carrying loop).
  ReductionClass reduction = ReductionClass::None;
  /// Provenance of the classification: accumulation operator token
  /// ("+=" / "-=") and the proof (or the reason the proof failed).
  std::string reductionOp;
  std::string reductionWhy;

  bool fromReduction() const { return reduction != ReductionClass::None; }
  bool relaxable() const { return reduction == ReductionClass::Relaxable; }
};

/// The polyhedral dependence (multi-)graph: one edge per dependence
/// polyhedron.
struct PoDG {
  std::vector<Dependence> deps;
  /// Indices into `deps` of edges between the given statements.
  std::vector<std::size_t> edgesBetween(int srcId, int dstId) const;
};

/// Builds the joint pair space [src iters, dst iters, src exists,
/// dst exists, params] with both statements' domain constraints added —
/// the common prefix of every dependence-polyhedron construction, also
/// used by the legality analysis (src/analysis) to re-order baseline
/// dependences under a transformed program.
IntSet jointPairSpace(const Scop& scop, const PolyStmt& src,
                      const PolyStmt& dst);

/// Computes all flow/anti/output (and optionally input) dependences.
PoDG computeDependences(const Scop& scop, bool includeInput = false);

/// A program's SCoP together with its flow/anti/output dependence graph:
/// what every dependence-driven pass starts from.
struct DependenceAnalysis {
  Scop scop;
  PoDG podg;
};

/// extractScop + computeDependences, the one helper behind every pass
/// that needs both.
DependenceAnalysis analyzeDependences(const ir::Program& program,
                                      ScopOptions options = {});

/// Keeps the most recent DependenceAnalysis for as long as the analysed
/// loop structure stands. The key is the program's parameters, the
/// ScopOptions and every loop and statement in tree order: node identity
/// plus everything extractScop reads (iterators, bounds, steps, guards,
/// statement ids and text). Parallel marks and the other loop annotations
/// are not part of it, so a pass that only sets marks keeps the entry
/// valid while any structural edit misses. The cached Scop holds the
/// loop and statement nodes it points into, so their addresses cannot be
/// reused by other nodes while the entry lives. One cache serves one
/// pipeline run (flow::PassContext::dependences); it is never global.
class DependenceCache {
 public:
  /// The analysis of `program`, computed by analyzeDependences unless the
  /// cached one has the same key.
  const DependenceAnalysis& get(const ir::Program& program,
                                const ScopOptions& options);
  /// Drops the cached analysis and the nodes it keeps alive.
  void clear();

 private:
  std::string key_;
  std::optional<DependenceAnalysis> analysis_;
};

/// The static purity proof behind `Dependence::reduction`: classifies the
/// self-accumulation dependence of `ps` carried at `level` (>= 1). Returns
/// `Relaxable` iff the statement is a whitelisted associative/commutative
/// update (`+=` / `-=`), every access it makes to the accumulator array
/// names the same cell (single read-modify-write), and no other statement
/// nested inside the carrying loop writes (may-alias) the accumulator
/// array. `op` receives the operator token, `why` the proof summary or the
/// rejection reason. Exposed so the post-transform `reductions` analysis
/// pass re-proves exactly the predicate the scheduler relied on.
ReductionClass classifySelfAccumulation(const Scop& scop, const PolyStmt& ps,
                                        std::size_t level, std::string* op,
                                        std::string* why);

/// Strongly connected components of the statement graph induced by the
/// dependences selected by `edgeFilter` (input deps are normally excluded).
/// Components are returned in a topological order of the condensation
/// (sources first).
std::vector<std::vector<int>> stronglyConnectedComponents(
    const std::vector<int>& stmtIds, const PoDG& podg,
    const std::vector<bool>& edgeEnabled);

/// One element of a dependence distance vector at some loop level.
struct DepVectorElem {
  std::optional<std::int64_t> min;  ///< nullopt = unbounded below
  std::optional<std::int64_t> max;  ///< nullopt = unbounded above
  bool isExact() const { return min && max && *min == *max; }
  bool isZero() const { return isExact() && *min == 0; }
  bool isNonNegative() const { return min && *min >= 0; }
  bool isPositive() const { return min && *min >= 1; }
  bool isNegativePossible() const { return !min || *min < 0; }
  std::string str() const;
};

/// Distance summary of one dependence over the common loops of its
/// endpoints (Sec. IV-A: "dependence vectors ... offer sufficient accuracy
/// for our parallelism detector").
struct DepVector {
  int srcId = -1;
  int dstId = -1;
  DepKind kind = DepKind::Flow;
  ReductionClass reduction = ReductionClass::None;
  std::vector<DepVectorElem> elems;  ///< one per common loop, outer first

  bool fromReduction() const { return reduction != ReductionClass::None; }
  bool relaxable() const { return reduction == ReductionClass::Relaxable; }
};

/// Summarizes every dependence of the PoDG into distance vectors.
std::vector<DepVector> dependenceVectors(const Scop& scop, const PoDG& podg);

}  // namespace polyast::poly
