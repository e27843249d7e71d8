#include "flow/passes.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "dl/dl_model.hpp"
#include "poly/codegen.hpp"
#include "support/error.hpp"

namespace polyast::flow {

using ir::AffExpr;
using ir::Block;
using ir::Loop;
using ir::Node;
using ir::NodePtr;
using ir::ParallelKind;

namespace {

using LoopPtr = std::shared_ptr<Loop>;

void forEachLoop(const NodePtr& node,
                 const std::function<void(const LoopPtr&)>& fn) {
  switch (node->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<Block>(node)->children)
        forEachLoop(c, fn);
      break;
    case Node::Kind::Loop: {
      auto l = std::static_pointer_cast<Loop>(node);
      fn(l);
      forEachLoop(l->body, fn);
      break;
    }
    case Node::Kind::Stmt:
      break;
  }
}

LoopPtr chainedChild(const LoopPtr& l) {
  if (l->body->children.size() == 1 &&
      l->body->children.front()->kind == Node::Kind::Loop)
    return std::static_pointer_cast<Loop>(l->body->children.front());
  return nullptr;
}

/// Collects the statements under a node (for the SIMD permutation's
/// contiguity ranking).
void collectStmts(const NodePtr& node,
                  std::vector<std::shared_ptr<const ir::Stmt>>& out) {
  switch (node->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<Block>(node)->children)
        collectStmts(c, out);
      break;
    case Node::Kind::Loop:
      collectStmts(std::static_pointer_cast<Loop>(node)->body, out);
      break;
    case Node::Kind::Stmt:
      out.push_back(std::static_pointer_cast<ir::Stmt>(node));
      break;
  }
}

void addGuardToStmts(const NodePtr& node, const AffExpr& guard) {
  switch (node->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<Block>(node)->children)
        addGuardToStmts(c, guard);
      break;
    case Node::Kind::Loop:
      addGuardToStmts(std::static_pointer_cast<Loop>(node)->body, guard);
      break;
    case Node::Kind::Stmt:
      std::static_pointer_cast<ir::Stmt>(node)->guards.push_back(guard);
      break;
  }
}

}  // namespace

bool wavefrontTiles(ir::Program& program, const LoopPtr& t1,
                    const LoopPtr& t2) {
  if (!t1->lower.isSingle() || !t1->upper.isSingle() ||
      !t2->lower.isSingle() || !t2->upper.isSingle())
    return false;
  auto wave = std::make_shared<Loop>();
  wave->iter = "w_" + t1->iter;
  wave->lower = ir::Bound(t1->lower.single() + t2->lower.single());
  wave->upper = ir::Bound(t1->upper.single() + t2->upper.single() -
                          AffExpr(1));
  wave->step = std::gcd(t1->step, t2->step);
  wave->parallel = ParallelKind::None;
  wave->isTileLoop = true;

  // Each statement under t2 executes only on its own diagonal:
  // t1 + t2 == wave.
  AffExpr diag = AffExpr::term(t1->iter) + AffExpr::term(t2->iter) -
                 AffExpr::term(wave->iter);
  addGuardToStmts(t2->body, diag);
  addGuardToStmts(t2->body, diag * -1);

  // Splice the wave loop where t1 was.
  std::function<bool(const NodePtr&)> splice = [&](const NodePtr& n) {
    if (n->kind == Node::Kind::Block) {
      auto b = std::static_pointer_cast<Block>(n);
      for (auto& c : b->children) {
        if (c == t1) {
          c = wave;
          return true;
        }
        if (splice(c)) return true;
      }
      return false;
    }
    if (n->kind == Node::Kind::Loop)
      return splice(std::static_pointer_cast<Loop>(n)->body);
    return false;
  };
  if (!splice(program.root)) return false;
  wave->body->children.push_back(t1);
  t1->parallel = ParallelKind::Doall;
  t1->pipelineDepth = 0;
  t2->parallel = ParallelKind::None;
  t2->pipelineDepth = 0;
  return true;
}

PassResult AffineTransformPass::run(ir::Program& program, PassContext&) {
  PassResult result;
  poly::ScopOptions sopt;
  sopt.paramMin = paramMin_;
  // Not cached: the pass replaces every node of the program, so no later
  // pass could reuse this analysis.
  poly::DependenceAnalysis analysis = poly::analyzeDependences(program, sopt);
  const poly::Scop& scop = analysis.scop;
  poly::ScheduleMap schedules;
  try {
    schedules =
        transform::computeAffineTransform(scop, analysis.podg, affine_);
  } catch (const Error& e) {
    schedules = poly::identitySchedules(scop);
    result.succeeded = false;
    result.note = e.what();
  }
  ir::Program out;
  try {
    out = poly::applySchedules(scop, schedules);
  } catch (const Error& e) {
    // The scheduler guards against codegen-incompatible fusions, but keep
    // the flow total: fall back to the original order.
    schedules = poly::identitySchedules(scop);
    out = poly::applySchedules(scop, schedules);
    result.succeeded = false;
    result.note = e.what();
  }
  out.name = program.name;
  program = std::move(out);
  return result;
}

PassResult SkewPass::run(ir::Program& program, PassContext& ctx) {
  PassResult result;
  result.counters["skews"] =
      transform::skewForTilability(program, options_, &ctx.dependences);
  return result;
}

PassResult ParallelismPass::run(ir::Program& program, PassContext& ctx) {
  PassResult result;
  transform::ParallelismStats stats = transform::detectParallelism(
      program, options_, outermostOnly_, &ctx.dependences);
  result.counters["doall"] = stats.doall;
  result.counters["reduction"] = stats.reduction;
  result.counters["pipeline"] = stats.pipeline;
  result.counters["reduction_pipeline"] = stats.reductionPipeline;
  result.counters["pipeline_depth3"] = stats.pipelineDepth3;
  return result;
}

PassResult TilePass::run(ir::Program& program, PassContext& ctx) {
  PassResult result;
  result.counters["bands_tiled"] =
      transform::tileForLocality(program, options_, &ctx.dependences);
  return result;
}

PassResult RegisterTilePass::run(ir::Program& program, PassContext&) {
  PassResult result;
  result.counters["loops_unrolled"] =
      transform::registerTile(program, options_);
  return result;
}

PassResult WavefrontPass::run(ir::Program& program, PassContext&) {
  PassResult result;
  std::int64_t wavefronts = 0;
  // Convert pipeline tile loops into wavefront doall.
  std::vector<std::pair<LoopPtr, LoopPtr>> pipelinePairs;
  forEachLoop(program.root, [&](const LoopPtr& l) {
    if (!l->isTileLoop) return;
    if (l->parallel != ParallelKind::Pipeline &&
        l->parallel != ParallelKind::ReductionPipeline)
      return;
    LoopPtr child = chainedChild(l);
    if (child && child->isTileLoop) pipelinePairs.push_back({l, child});
  });
  for (auto& [t1, t2] : pipelinePairs)
    if (wavefrontTiles(program, t1, t2)) ++wavefronts;
  // Any leftover pipeline marks degrade to sequential (doall-only model).
  forEachLoop(program.root, [&](const LoopPtr& l) {
    if (l->parallel == ParallelKind::Pipeline ||
        l->parallel == ParallelKind::ReductionPipeline ||
        l->parallel == ParallelKind::Reduction) {
      l->parallel = ParallelKind::None;
      l->pipelineDepth = 0;
    }
  });
  result.counters["wavefronts"] = wavefronts;
  return result;
}

PassResult IntraTileVectorizePass::run(ir::Program& program, PassContext&) {
  PassResult result;
  std::int64_t permutations = 0;
  // Rotate the most SIMD-contiguous point loop to the innermost position
  // of every rectangular point-loop chain.
  std::set<const Loop*> seen;
  forEachLoop(program.root, [&](const LoopPtr& l) {
    if (l->isTileLoop || seen.count(l.get())) return;
    std::vector<LoopPtr> chain{l};
    LoopPtr cur = l;
    while (LoopPtr c = chainedChild(cur)) {
      if (c->isTileLoop) break;
      chain.push_back(c);
      cur = c;
    }
    for (const auto& cl : chain) seen.insert(cl.get());
    if (chain.size() < 2) return;
    // Rectangularity within the chain.
    for (const auto& cl : chain)
      for (const auto& parts : {cl->lower.parts, cl->upper.parts})
        for (const auto& p : parts)
          for (const auto& other : chain)
            if (other != cl && p.coeff(other->iter) != 0) return;
    dl::LoopNestModel nest;
    for (const auto& cl : chain) nest.iters.push_back(cl->iter);
    collectStmts(chain.front()->body, nest.stmts);
    // Pick the loop with the highest contiguity count.
    std::size_t best = chain.size() - 1;
    int bestCount = dl::contiguityCount(nest, chain[best]->iter);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      int c = dl::contiguityCount(nest, chain[i]->iter);
      if (c > bestCount) {
        best = i;
        bestCount = c;
      }
    }
    if (best == chain.size() - 1) return;
    // Rotate headers so chain[best] becomes innermost. NOTE: this is a
    // heuristic permutation; it is applied only when the chain sits
    // inside a tiled band (where loops are permutable by construction).
    bool insideTile = false;
    forEachLoop(program.root, [&](const LoopPtr& t) {
      if (t->isTileLoop) {
        std::vector<std::shared_ptr<const ir::Stmt>> sub;
        collectStmts(t->body, sub);
        for (const auto& s : nest.stmts)
          if (!sub.empty() &&
              std::find(sub.begin(), sub.end(), s) != sub.end())
            insideTile = true;
      }
    });
    if (!insideTile) return;
    auto header = [](Loop& a, Loop& b) {
      std::swap(a.iter, b.iter);
      std::swap(a.lower, b.lower);
      std::swap(a.upper, b.upper);
      std::swap(a.step, b.step);
      std::swap(a.parallel, b.parallel);
      std::swap(a.pipelineDepth, b.pipelineDepth);
      // The SIMD legality facts belong to the dimension being moved, like
      // the mark itself (register tiling reads them after this pass).
      std::swap(a.simdSafe, b.simdSafe);
      std::swap(a.reductionCarried, b.reductionCarried);
    };
    for (std::size_t i = best; i + 1 < chain.size(); ++i)
      header(*chain[i], *chain[i + 1]);
    ++permutations;
  });
  result.counters["intra_tile_permutations"] = permutations;
  return result;
}

}  // namespace polyast::flow
