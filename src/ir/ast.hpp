// Loop AST nodes and the Program container.
//
// A Program is a tree of Block / Loop / Stmt nodes. Statements are the
// polyhedral statements of the paper: single (compound-)assignments whose
// subscripts are affine. Loops carry affine bounds (max-of lower parts,
// min-of upper parts, exclusive upper bound as in C) and the parallelism
// annotations produced by the AST-based stage (Sec. IV-A).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.hpp"

namespace polyast::ir {

/// Parallelism kinds detected by the AST stage (Sec. IV-A of the paper).
enum class ParallelKind {
  None,
  Doall,
  Reduction,
  Pipeline,
  ReductionPipeline,
};

std::string parallelKindName(ParallelKind k);

/// Compound-assignment operators appearing in statement bodies.
enum class AssignOp { Set, AddAssign, SubAssign, MulAssign, DivAssign };

struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  enum class Kind { Block, Loop, Stmt };
  explicit Node(Kind k) : kind(k) {}
  virtual ~Node() = default;
  virtual NodePtr clone() const = 0;

  const Kind kind;
};

struct Block final : Node {
  Block() : Node(Kind::Block) {}
  NodePtr clone() const override;

  std::vector<NodePtr> children;
};

/// A loop bound: the max (for lower) or min (for upper) of affine parts.
struct Bound {
  std::vector<AffExpr> parts;

  Bound() = default;
  Bound(AffExpr e) : parts{std::move(e)} {}  // NOLINT
  Bound(std::int64_t c) : parts{AffExpr(c)} {}  // NOLINT

  bool isSingle() const { return parts.size() == 1; }
  const AffExpr& single() const;
  void substitute(const std::string& name, const AffExpr& repl);
  std::string str(bool isLower) const;
};

/// A contraction nest proven fit for packed SIMD lowering (Sec. IV-C
/// carried to machine code): a two-deep point-loop pair around a single
/// accumulation `C[..lane..] += X * L[..lane..]` where the lane loop
/// carries no dependence (vector lanes are independent iterations) and the
/// stream loop carries only relaxable reduction edges (the PR-8
/// `ReductionClass` proof that it is pure accumulation). The tag is pure
/// metadata: the nest itself stays rolled scalar IR, the interpreter runs
/// it as-is, and only the native emitter consumes the tag — so packed and
/// scalar runs evaluate the identical per-cell operation sequence
/// (stream-ascending accumulation) and stay bit-exact under
/// -ffp-contract=off.
struct MicroKernelTag {
  std::string laneIter;    ///< vectorized iterator (unit stride in the store)
  std::string streamIter;  ///< contraction (reduction-carried) iterator
  /// Compile-time panel bounds: the tile windows bounding the point loops
  /// guarantee extents never exceed these, so the packed panels are
  /// fixed-size stack buffers (a runtime guard falls back to the scalar
  /// nest if a window is somehow larger).
  std::int64_t maxLane = 0;
  std::int64_t maxStream = 0;
};

struct Loop final : Node {
  Loop() : Node(Kind::Loop) {}
  NodePtr clone() const override;

  std::string iter;
  Bound lower;       ///< inclusive: iter >= max(lower.parts)
  Bound upper;       ///< exclusive: iter <  min(upper.parts)
  std::int64_t step = 1;
  std::shared_ptr<Block> body = std::make_shared<Block>();

  ParallelKind parallel = ParallelKind::None;
  /// For Pipeline / ReductionPipeline marks: how many consecutive levels of
  /// the single-loop chain rooted here the point-to-point sync must order
  /// (every carried non-reduction dependence has componentwise non-negative
  /// distance on all of them). 0 means "unset" and is treated as the legacy
  /// two-level pattern by the executor and the race checker. The detector
  /// caps this at 3 — the deepest doacross the runtime provides.
  std::int64_t pipelineDepth = 0;
  bool isTileLoop = false;   ///< inter-tile loop created by tiling
  bool isPointLoop = false;  ///< intra-tile loop of a tiled (permutable) band
  std::int64_t unroll = 1;   ///< register-tiling unroll factor applied
  /// SIMD legality facts from the dependence analysis (set alongside
  /// Loop::parallel, transferred through tiling/permutation like
  /// pipelineDepth): `simdSafe` — no dependence is carried at this level,
  /// so lanes along this iterator may be evaluated in any order without
  /// changing any per-cell operation sequence; `reductionCarried` — every
  /// dependence carried here is a relaxable reduction edge (pure
  /// accumulation; streaming this loop sequentially per cell is exact).
  bool simdSafe = false;
  bool reductionCarried = false;
  /// Set by register tiling when this loop roots a recognized contraction
  /// nest (see MicroKernelTag); null for every other loop.
  std::shared_ptr<const MicroKernelTag> microKernel;
};

struct Stmt final : Node {
  Stmt() : Node(Kind::Stmt) {}
  NodePtr clone() const override;

  int id = -1;          ///< stable identity across transformations
  std::string label;    ///< e.g. "S"
  AssignOp op = AssignOp::Set;
  std::string lhsArray;
  std::vector<AffExpr> lhsSubs;
  ExprPtr rhs;
  /// Reduction-recognition flag: `op` is += / -= and the lhs does not
  /// otherwise appear on the rhs — set during IR construction and used by
  /// the parallelism detector (Sec. IV-A).
  bool isReductionUpdate = false;
  /// Execution guards: the statement runs only when every expression is
  /// >= 0. Produced by code generation when statements with different
  /// domains are fused into one loop.
  std::vector<AffExpr> guards;
  /// Provenance map for the static legality analysis (src/analysis):
  /// entry k expresses the statement's k-th *original* iterator as an
  /// affine function of the *current* enclosing iterators and parameters.
  /// The analysis session stamps the identity map before the pipeline
  /// mutates the program; every iterator substitution a pass performs
  /// (skewing, schedule codegen, unrolling) keeps it current through the
  /// shared substitution helpers. Empty = provenance not tracked.
  std::vector<AffExpr> origin;

  std::string str() const;
};

/// Array declaration; dimension sizes are affine in the program parameters.
struct ArrayDecl {
  std::string name;
  std::vector<AffExpr> dims;
};

class Program {
 public:
  std::string name;
  std::vector<std::string> params;
  std::map<std::string, std::int64_t> paramDefaults;
  std::vector<ArrayDecl> arrays;
  std::shared_ptr<Block> root = std::make_shared<Block>();

  Program deepCopy() const;

  const ArrayDecl& array(const std::string& arrayName) const;
  bool isParam(const std::string& n) const;

  /// All statements in execution (textual) order.
  std::vector<std::shared_ptr<Stmt>> statements() const;
  /// Loops enclosing each statement, outermost first (keyed by Stmt::id).
  std::map<int, std::vector<std::shared_ptr<Loop>>> enclosingLoops() const;

  /// Visits every (stmt, enclosing loops) pair in textual order.
  void forEachStmt(const std::function<void(
      const std::shared_ptr<Stmt>&,
      const std::vector<std::shared_ptr<Loop>>&)>& fn) const;
};

/// Substitutes an iterator by an affine expression everywhere below `node`
/// (bounds, subscripts, value expressions). Used by skewing and shifting.
/// Refuses to cross a loop that (re)defines `name`.
void substituteIterInTree(const NodePtr& node, const std::string& name,
                          const AffExpr& repl);

/// Renames an iterator, including the defining loop header(s), everywhere
/// below `node`. Used by strip-mining and unrolling. `from` is taken by
/// value on purpose: callers often pass `loop->iter`, which the walk
/// itself reassigns.
void renameIterInTree(const NodePtr& node, std::string from,
                      const std::string& to);

/// Renders the subtree as C-like source (used by tests, examples, docs).
std::string printNode(const NodePtr& node, int indent = 0);
std::string printProgram(const Program& p);

// Structural queries behind the native kernel emitter's (ir/cemit) choice
// of runtime construct per parallelism mark; the reductions and races
// analyses reuse them so their proofs match what the emitted code does.

/// The single loop child of `body`, descending through nested one-child
/// blocks; null when the body is not exactly one loop.
std::shared_ptr<Loop> soleLoopChild(const NodePtr& body);

/// True when neither bound of `loop` references the iterator `iter`.
bool boundsIndependentOf(const Loop& loop, const std::string& iter);

/// True if any loop strictly inside `node` has a bound referencing `iter`
/// — the trip space under a marked loop is then imbalanced across its
/// iterations (triangular/trapezoidal), which the guided doall schedule
/// exists for.
bool innerBoundsReference(const NodePtr& node, const std::string& iter);

/// Arrays that may be privatized per thread under a Reduction /
/// ReductionPipeline mark rooted at `node`: every access to them inside is
/// an associative accumulation (+= / -=) — never a read, never a plain
/// assignment. Privatizing such an array into a zero-initialized private
/// buffer and summing the buffers into the target afterwards preserves
/// semantics up to reassociation of the accumulated sums.
std::vector<std::string> privatizableArrays(const NodePtr& node);

/// One runtime parallel construct of a program: a marked loop that the
/// executor/emitter will dispatch to the runtime (marks nested inside
/// another mark run sequentially in both backends and are not constructs).
/// `id` is the construct's position in pre-order — stable across both
/// backends for the same program, so it keys construct-level attribution.
/// `chain` is the enclosing sequential iterators outermost-first, ending
/// with the construct's own iterator (a prefix of every statement's
/// iterator chain inside the construct — how DL per-nest predictions are
/// matched to constructs).
struct ParallelConstruct {
  std::int64_t id = 0;
  std::shared_ptr<Loop> loop;
  std::vector<std::string> chain;
};

/// Enumerates the parallel constructs of `p` in pre-order. The walk does
/// not descend into a marked loop (inner marks run sequentially inside the
/// construct) and accumulates the iterator chain through
/// ParallelKind::None loops, mirroring the dispatch structure of ir/cemit.
std::vector<ParallelConstruct> collectParallelConstructs(const Program& p);

/// True when any loop of `p` carries a MicroKernelTag — the native emitter
/// will produce packed SIMD code for it (used to pick SIMD compile flags
/// and to report the lowering in diagnostics).
bool programHasMicroKernels(const Program& p);

}  // namespace polyast::ir
