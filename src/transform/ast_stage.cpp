#include "transform/ast_stage.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "poly/dependence.hpp"
#include "support/error.hpp"

namespace polyast::transform {

using ir::AffExpr;
using ir::Block;
using ir::Loop;
using ir::Node;
using ir::NodePtr;
using ir::ParallelKind;
using poly::Dependence;
using poly::DepKind;
using poly::PoDG;
using poly::Scop;

namespace {

using LoopPtr = std::shared_ptr<Loop>;

void forEachLoop(const NodePtr& node, std::vector<LoopPtr>& ancestors,
                 const std::function<void(const LoopPtr&,
                                          const std::vector<LoopPtr>&)>& fn) {
  switch (node->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<Block>(node)->children)
        forEachLoop(c, ancestors, fn);
      break;
    case Node::Kind::Loop: {
      auto l = std::static_pointer_cast<Loop>(node);
      fn(l, ancestors);
      ancestors.push_back(l);
      forEachLoop(l->body, ancestors, fn);
      ancestors.pop_back();
      break;
    }
    case Node::Kind::Stmt:
      break;
  }
}

void forEachLoop(const ir::Program& p,
                 const std::function<void(const LoopPtr&,
                                          const std::vector<LoopPtr>&)>& fn) {
  std::vector<LoopPtr> ancestors;
  forEachLoop(p.root, ancestors, fn);
}

/// Maximal single-child loop chains: chain[i+1] is the only child of
/// chain[i]'s body. The innermost chain loop may contain anything.
std::vector<std::vector<LoopPtr>> collectChains(const ir::Program& p) {
  std::vector<std::vector<LoopPtr>> chains;
  std::set<const Loop*> inChain;
  forEachLoop(p, [&](const LoopPtr& l, const std::vector<LoopPtr>&) {
    if (inChain.count(l.get())) return;
    std::vector<LoopPtr> chain{l};
    inChain.insert(l.get());
    LoopPtr cur = l;
    while (cur->body->children.size() == 1 &&
           cur->body->children.front()->kind == Node::Kind::Loop) {
      cur = std::static_pointer_cast<Loop>(cur->body->children.front());
      chain.push_back(cur);
      inChain.insert(cur.get());
    }
    chains.push_back(std::move(chain));
  });
  return chains;
}

/// Index of `loop` in a dependence's common-loop prefix, or nullopt when the
/// loop does not enclose both endpoints.
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

/// Applies iter_k += f * iter_l to the loop (skewing).
void applySkew(const LoopPtr& target, const std::string& outerIter,
               std::int64_t f) {
  ir::substituteIterInTree(
      target->body, target->iter,
      AffExpr::term(target->iter) - AffExpr::term(outerIter) * f);
  for (auto& part : target->lower.parts)
    part += AffExpr::term(outerIter) * f;
  for (auto& part : target->upper.parts)
    part += AffExpr::term(outerIter) * f;
}

/// Dependences whose endpoints are both enclosed by every loop in
/// chain[s..e] (equivalently by chain[e], the innermost).
std::vector<const Dependence*> depsUnder(const Scop& scop, const PoDG& podg,
                                         const Loop* innermost) {
  std::vector<const Dependence*> out;
  for (const auto& d : podg.deps) {
    if (d.kind == DepKind::Input) continue;
    if (commonLevelOf(scop, d, innermost)) out.push_back(&d);
  }
  return out;
}

/// The dependence analysis of `program` from `deps`, or from `local` when
/// the caller passed no cache.
const poly::DependenceAnalysis& analysisOf(const ir::Program& program,
                                           const AstOptions& options,
                                           poly::DependenceCache* deps,
                                           poly::DependenceCache& local) {
  poly::ScopOptions sopt;
  sopt.paramMin = options.paramMin;
  return (deps ? *deps : local).get(program, sopt);
}

}  // namespace

int skewForTilability(ir::Program& program, const AstOptions& options,
                      poly::DependenceCache* deps) {
  poly::DependenceCache local;
  int applied = 0;
  for (int iteration = 0; iteration < 16; ++iteration) {
    // An iteration that skews nothing leaves the analysis of the final
    // program in the cache for the passes after this one.
    const poly::DependenceAnalysis& analysis =
        analysisOf(program, options, deps, local);
    const Scop& scop = analysis.scop;
    const PoDG& podg = analysis.podg;
    bool changed = false;
    for (const auto& chain : collectChains(program)) {
      if (chain.size() < 2) continue;
      auto deps = depsUnder(scop, podg, chain.back().get());
      if (deps.empty()) continue;
      for (std::size_t k = 1; k < chain.size() && !changed; ++k) {
        // Most negative distance at level k over all dependences.
        std::optional<std::int64_t> worst;
        bool unbounded = false;
        for (const Dependence* d : deps) {
          auto lk = commonLevelOf(scop, *d, chain[k].get());
          if (!lk) continue;
          auto mn = d->poly.minOf(distExpr(*d, *lk));
          if (!mn) {
            unbounded = true;
            break;
          }
          if (!worst || *mn < *worst) worst = mn;
        }
        if (unbounded || !worst || *worst >= 0) continue;
        // Find outer-level factors (f_0..f_{k-1}) with
        // min(e_k + sum f_l * e_l) >= 0 for every dependence. Factor
        // vectors are tried in order of increasing total magnitude, so the
        // mildest sufficient skew wins (stencils like seidel-2d need the
        // combined skew j += t + i).
        std::vector<std::int64_t> factors(k, 0);
        auto feasible = [&](const std::vector<std::int64_t>& f) {
          for (const Dependence* d : deps) {
            auto lk = commonLevelOf(scop, *d, chain[k].get());
            if (!lk) continue;
            LinExpr obj = distExpr(*d, *lk);
            for (std::size_t l = 0; l < k; ++l) {
              if (f[l] == 0) continue;
              auto ll = commonLevelOf(scop, *d, chain[l].get());
              if (!ll) continue;
              LinExpr outer = distExpr(*d, *ll);
              for (std::size_t i = 0; i < obj.coeffs.size(); ++i)
                obj.coeffs[i] += f[l] * outer.coeffs[i];
            }
            auto mn = d->poly.minOf(obj);
            if (!mn || *mn < 0) return false;
          }
          return true;
        };
        std::function<bool(std::size_t, std::int64_t)> search =
            [&](std::size_t pos, std::int64_t left) -> bool {
          if (pos == k) return left == 0 && feasible(factors);
          for (std::int64_t f = 0; f <= left; ++f) {
            factors[pos] = f;
            if (search(pos + 1, left - f)) return true;
          }
          factors[pos] = 0;
          return false;
        };
        for (std::int64_t total = 1;
             total <= options.maxSkewFactor && !changed; ++total) {
          if (!search(0, total)) continue;
          for (std::size_t l = 0; l < k; ++l)
            if (factors[l] > 0) {
              applySkew(chain[k], chain[l]->iter, factors[l]);
              ++applied;
            }
          changed = true;
        }
      }
      if (changed) break;  // re-extract and continue
    }
    if (!changed) break;
  }
  return applied;
}

ParallelismStats detectParallelism(ir::Program& program,
                                   const AstOptions& options,
                                   bool outermostOnly,
                                   poly::DependenceCache* deps) {
  poly::DependenceCache local;
  const poly::DependenceAnalysis& analysis =
      analysisOf(program, options, deps, local);
  const Scop& scop = analysis.scop;
  const PoDG& podg = analysis.podg;

  forEachLoop(program, [&](const LoopPtr& loop,
                           const std::vector<LoopPtr>& ancestors) {
    (void)ancestors;
    // The single-loop chain rooted here, up to the three levels the
    // runtime's deepest doacross grid (pipeline3D) can synchronize.
    std::vector<const Loop*> chain{loop.get()};
    while (chain.size() < 3) {
      const Loop* cur = chain.back();
      if (cur->body->children.size() != 1 ||
          cur->body->children.front()->kind != Node::Kind::Loop)
        break;
      chain.push_back(
          std::static_pointer_cast<Loop>(cur->body->children.front()).get());
    }

    bool anyCarried = false;
    bool anyNonReductionCarried = false;
    // SIMD legality facts, kept separate from the mark decision: they are
    // intrinsic to the dependences (relaxability is a property of the
    // edge, not of the recognizeReductions toggle) and survive on the
    // loop through tiling and header permutation.
    bool carriedAny = false;       // any dependence carried at this level
    bool carriedNonRelax = false;  // any non-reduction dependence carried
    // How many leading chain levels have componentwise non-negative
    // distance on *every* ordering-relevant dependence: a depth-d
    // point-to-point sync grid orders exactly those dependences.
    std::int64_t pipeDepth =
        chain.size() >= 2 ? static_cast<std::int64_t>(chain.size()) : 0;
    for (const auto& d : podg.deps) {
      if (d.kind == DepKind::Input) continue;
      auto lk = commonLevelOf(scop, d, loop.get());
      if (!lk) continue;
      IntSet restricted = restrictedPoly(d, *lk);
      if (restricted.isEmpty()) continue;  // ordered by outer loops
      auto mn = restricted.minOf(distExpr(d, *lk));
      auto mx = restricted.maxOf(distExpr(d, *lk));
      if (!mn) {
        carriedAny = carriedNonRelax = true;
      } else if (!((*mn == 0) && mx && (*mx == 0))) {
        carriedAny = true;
        if (!d.relaxable()) carriedNonRelax = true;
      }
      if (!mn) {
        // Unbounded-below distance: no parallelism of any kind.
        anyCarried = anyNonReductionCarried = true;
        pipeDepth = 0;
        continue;
      }
      // Reduction dependences are discharged by accumulator privatization
      // (Reduction / ReductionPipeline execution), never by the sync grid.
      if (options.recognizeReductions && d.relaxable()) {
        bool zeroRed = (*mn == 0) && mx && (*mx == 0);
        if (!zeroRed) anyCarried = true;
        continue;
      }
      bool zero = (*mn == 0) && mx && (*mx == 0);
      if (!zero) {
        anyCarried = true;
        anyNonReductionCarried = true;
      }
      // Every dependence constrains the pipeline depth — including those
      // with zero distance at this level: a distance like (0, 1, -1) is
      // lexicographically positive yet not componentwise non-negative over
      // three levels, so a 3-deep grid would reorder it. (At two levels
      // lexicographic positivity makes (0, negative) impossible, which is
      // why the old two-level check could skip zero-distance dependences.)
      std::int64_t okPrefix = 0;
      for (const Loop* lvl : chain) {
        auto lkN = commonLevelOf(scop, d, lvl);
        if (!lkN) break;
        auto mnN = restricted.minOf(distExpr(d, *lkN));
        if (!mnN || *mnN < 0) break;
        ++okPrefix;
      }
      pipeDepth = std::min(pipeDepth, okPrefix);
    }
    loop->simdSafe = !carriedAny;
    loop->reductionCarried = carriedAny && !carriedNonRelax;
    loop->pipelineDepth = 0;
    if (!anyCarried) {
      loop->parallel = ParallelKind::Doall;
    } else if (!anyNonReductionCarried) {
      loop->parallel = ParallelKind::Reduction;
    } else if (pipeDepth >= 2 && options.allowPipeline) {
      bool reductionsToo = false;
      for (const auto& d : podg.deps)
        if (d.relaxable() && commonLevelOf(scop, d, loop.get()))
          reductionsToo = true;
      loop->parallel = reductionsToo ? ParallelKind::ReductionPipeline
                                     : ParallelKind::Pipeline;
      loop->pipelineDepth = pipeDepth;
    } else {
      loop->parallel = ParallelKind::None;
    }
  });

  if (outermostOnly) {
    std::function<void(const NodePtr&, bool)> clear = [&](const NodePtr& n,
                                                          bool covered) {
      switch (n->kind) {
        case Node::Kind::Block:
          for (const auto& c : std::static_pointer_cast<Block>(n)->children)
            clear(c, covered);
          break;
        case Node::Kind::Loop: {
          auto l = std::static_pointer_cast<Loop>(n);
          if (covered) {
            l->parallel = ParallelKind::None;
            l->pipelineDepth = 0;
          }
          clear(l->body, covered || l->parallel != ParallelKind::None);
          break;
        }
        case Node::Kind::Stmt:
          break;
      }
    };
    clear(program.root, false);
  }

  ParallelismStats stats;
  forEachLoop(program, [&](const LoopPtr& l, const std::vector<LoopPtr>&) {
    switch (l->parallel) {
      case ParallelKind::Doall:
        ++stats.doall;
        break;
      case ParallelKind::Reduction:
        ++stats.reduction;
        break;
      case ParallelKind::Pipeline:
        ++stats.pipeline;
        if (l->pipelineDepth >= 3) ++stats.pipelineDepth3;
        break;
      case ParallelKind::ReductionPipeline:
        ++stats.reductionPipeline;
        if (l->pipelineDepth >= 3) ++stats.pipelineDepth3;
        break;
      case ParallelKind::None:
        break;
    }
  });
  return stats;
}

namespace {

/// Computes bounding-box (relaxed) bounds for the tile loops of a band:
/// references to *outer band iterators* in a bound part are replaced by
/// that iterator's extreme value (its own relaxed bound), so the tile loop
/// covers the union of the point ranges over all outer iterations. Skewed
/// bands (i in [t+1, N+t-1)) rely on this. Point loops keep the exact
/// bounds, so over-approximation only costs empty tiles. Returns false
/// when relaxation is not possible (multi-part dependent bounds).
bool relaxBandBounds(const std::vector<LoopPtr>& band,
                     std::vector<ir::Bound>* lowers,
                     std::vector<ir::Bound>* uppers) {
  std::map<std::string, std::pair<AffExpr, AffExpr>> extremes;  // lo, hi-1
  for (const auto& l : band) {
    auto relaxPart = [&](AffExpr part, bool isLower) -> std::optional<AffExpr> {
      std::vector<std::pair<std::string, std::int64_t>> terms(
          part.coeffs().begin(), part.coeffs().end());
      for (const auto& [name, coeff] : terms) {
        auto it = extremes.find(name);
        if (it == extremes.end()) continue;  // not an outer band iterator
        // Lower bounds relax downward, upper bounds upward.
        bool useMin = (coeff > 0) == isLower;
        part = part.substituted(name,
                                useMin ? it->second.first : it->second.second);
      }
      // The substitution may introduce another band iterator (nested
      // dependence); require the result to be band-free.
      for (const auto& [name, coeff] : part.coeffs()) {
        (void)coeff;
        if (extremes.count(name)) return std::nullopt;
      }
      return part;
    };
    ir::Bound lo, hi;
    for (const auto& p : l->lower.parts) {
      auto r = relaxPart(p, /*isLower=*/true);
      if (!r) return false;
      lo.parts.push_back(*r);
    }
    for (const auto& p : l->upper.parts) {
      auto r = relaxPart(p, /*isLower=*/false);
      if (!r) return false;
      hi.parts.push_back(*r);
    }
    // Record this loop's extremes for deeper band members; requires
    // single-part relaxed bounds to stay affine.
    if (lo.parts.size() != 1 || hi.parts.size() != 1) {
      bool referenced = false;
      for (const auto& deeper : band)
        for (const auto& parts : {deeper->lower.parts, deeper->upper.parts})
          for (const auto& p : parts)
            if (p.coeff(l->iter) != 0) referenced = true;
      if (referenced) return false;
    } else {
      extremes[l->iter] = {lo.parts.front(),
                           hi.parts.front() - AffExpr(1)};
    }
    lowers->push_back(std::move(lo));
    uppers->push_back(std::move(hi));
  }
  return true;
}

}  // namespace

int tileForLocality(ir::Program& program, const AstOptions& options,
                    poly::DependenceCache* deps) {
  // Every band is judged on the analysis of the program as it stood
  // before the first band was tiled.
  poly::DependenceCache local;
  const poly::DependenceAnalysis& analysis =
      analysisOf(program, options, deps, local);
  const Scop& scop = analysis.scop;
  const PoDG& podg = analysis.podg;

  int tiled = 0;
  for (const auto& chain : collectChains(program)) {
    if (chain.size() < 2) continue;
    // Find the longest contiguous permutable, rectangular band.
    auto deps = depsUnder(scop, podg, chain.back().get());
    auto levelNonNeg = [&](const LoopPtr& l) {
      for (const Dependence* d : deps) {
        auto lk = commonLevelOf(scop, *d, l.get());
        if (!lk) continue;
        auto mn = d->poly.minOf(distExpr(*d, *lk));
        if (!mn || *mn < 0) return false;
      }
      return true;
    };
    std::size_t bestStart = 0, bestLen = 0;
    for (std::size_t s = 0; s < chain.size(); ++s) {
      std::size_t e = s;
      while (e < chain.size() && levelNonNeg(chain[e])) ++e;
      if (e - s > bestLen) {
        bestLen = e - s;
        bestStart = s;
      }
      if (e == s) continue;
      s = e;  // skip past this candidate range
    }
    if (bestLen < 2) continue;
    std::vector<LoopPtr> band(chain.begin() + bestStart,
                              chain.begin() + bestStart + bestLen);
    std::vector<ir::Bound> tileLowers, tileUppers;
    if (!relaxBandBounds(band, &tileLowers, &tileUppers)) continue;

    // Build the tile loops, outermost first.
    std::vector<std::shared_ptr<Loop>> tiles;
    for (std::size_t bi = 0; bi < band.size(); ++bi) {
      const auto& l = band[bi];
      auto t = std::make_shared<Loop>();
      t->iter = l->iter + "t";
      t->lower = tileLowers[bi];
      t->upper = tileUppers[bi];
      // Dependence-carrying band dimensions (e.g. the time loop of a
      // skewed stencil) get the smaller time-tile size.
      bool carriesDeps = false;
      for (const Dependence* d : deps) {
        if (d->relaxable()) continue;  // reductions don't shrink the tile
        auto lk = commonLevelOf(scop, *d, l.get());
        if (!lk) continue;
        auto mx = d->poly.maxOf(distExpr(*d, *lk));
        if (!mx || *mx >= 1) carriesDeps = true;
      }
      t->step = carriesDeps ? options.timeTileSize : options.tileSize;
      t->isTileLoop = true;
      t->parallel = l->parallel;
      t->pipelineDepth = l->pipelineDepth;
      l->parallel = ParallelKind::None;
      l->pipelineDepth = 0;
      tiles.push_back(t);
    }
    // Point loops get tile-bounded ranges and are marked as members of a
    // permutable band (register tiling keys off this).
    for (std::size_t i = 0; i < band.size(); ++i) {
      band[i]->lower.parts.push_back(AffExpr::term(tiles[i]->iter));
      band[i]->upper.parts.push_back(AffExpr::term(tiles[i]->iter) +
                                     AffExpr(tiles[i]->step));
      band[i]->isPointLoop = true;
    }
    // Chain the tile loops and splice them where the band began.
    for (std::size_t i = 0; i + 1 < tiles.size(); ++i)
      tiles[i]->body->children.push_back(tiles[i + 1]);
    tiles.back()->body->children.push_back(band.front());

    // Replace band.front() in its parent with tiles.front().
    std::function<bool(const NodePtr&)> splice = [&](const NodePtr& n) {
      if (n->kind == Node::Kind::Block) {
        auto b = std::static_pointer_cast<Block>(n);
        for (auto& c : b->children) {
          if (c == band.front()) {
            c = tiles.front();
            return true;
          }
          if (splice(c)) return true;
        }
        return false;
      }
      if (n->kind == Node::Kind::Loop) {
        auto l = std::static_pointer_cast<Loop>(n);
        if (l == tiles.front()) return false;  // don't descend into new tree
        return splice(l->body);
      }
      return false;
    };
    bool ok = splice(program.root);
    POLYAST_CHECK(ok, "failed to splice tile loops");
    ++tiled;
  }
  return tiled;
}

namespace {

/// Guarded unrolling, generalized to any positive step: the loop's step is
/// multiplied by `factor`; the body is replicated with iterator offsets
/// o * step for o in 0..factor-1, each replica o >= 1 guarded by the
/// loop's upper bounds so partial final iterations stay correct.
void unrollGuarded(const LoopPtr& loop, std::int64_t factor) {
  POLYAST_CHECK(factor >= 2, "unroll factor must be >= 2");
  POLYAST_CHECK(loop->step >= 1, "unrolling requires a positive loop step");
  const std::int64_t step = loop->step;
  auto newBody = std::make_shared<Block>();
  for (std::int64_t o = 0; o < factor; ++o) {
    auto copy = std::static_pointer_cast<Block>(loop->body->clone());
    if (o > 0) {
      ir::substituteIterInTree(
          copy, loop->iter,
          AffExpr::term(loop->iter) + AffExpr(o * step));
      // Guard every statement in the replica: iter + o*step < upper.
      std::function<void(const NodePtr&)> guard = [&](const NodePtr& n) {
        switch (n->kind) {
          case Node::Kind::Block:
            for (const auto& c :
                 std::static_pointer_cast<Block>(n)->children)
              guard(c);
            break;
          case Node::Kind::Loop:
            guard(std::static_pointer_cast<Loop>(n)->body);
            break;
          case Node::Kind::Stmt: {
            auto s = std::static_pointer_cast<ir::Stmt>(n);
            for (const auto& up : loop->upper.parts)
              s->guards.push_back(up - AffExpr::term(loop->iter) -
                                  AffExpr(o * step) - AffExpr(1));
            break;
          }
        }
      };
      guard(copy);
    }
    for (const auto& c : copy->children) newBody->children.push_back(c);
  }
  loop->body = newBody;
  loop->step = step * factor;
  loop->unroll = factor;
}

/// True when `e` references the iterator `iter` anywhere — as an IterRef
/// or inside an affine array subscript.
bool exprUsesIter(const ir::ExprPtr& e, const std::string& iter) {
  if (!e) return false;
  if (e->kind == ir::Expr::Kind::IterRef && e->name == iter) return true;
  if (e->kind == ir::Expr::Kind::ArrayRef)
    for (const auto& s : e->subs)
      if (s.coeff(iter) != 0) return true;
  return exprUsesIter(e->lhs, iter) || exprUsesIter(e->rhs, iter) ||
         exprUsesIter(e->cond, iter);
}

/// Recognizes the packed-microkernel shape rooted at `outer`: a chained
/// pair of step-1 point loops around a single unguarded accumulation
///     C[..lane..] += X * L[..lane..]
/// where, for some assignment of {lane, stream} to the two iterators:
///   * lane has coefficient exactly 1 in C's last subscript, none in the
///     others (unit-stride vector store), and carries no dependence
///     (Loop::simdSafe — lanes are independent, so vector evaluation
///     preserves every per-cell operation sequence);
///   * stream indexes neither C subscript (same accumulator cell across
///     the stream) and carries only relaxable reduction edges
///     (Loop::reductionCarried — the PR-8 ReductionClass proof that this
///     is a pure contraction);
///   * the rhs is one multiply whose lane side is a single array load
///     (packed into the lane panel; transposed/strided accesses are fine —
///     packing absorbs the layout) and whose other side X is
///     lane-invariant (packed once per stream element; same value, same
///     association (X * L) as the scalar nest).
/// Returns the tag, or null when the nest does not match.
std::shared_ptr<const ir::MicroKernelTag> recognizeMicroKernel(
    const LoopPtr& outer, const AstOptions& options) {
  // Packed panels are fixed-size stack buffers sized by the tile window;
  // keep them stack-safe.
  const std::int64_t cap = std::max(options.tileSize, options.timeTileSize);
  if (cap < 1 || cap > 128) return nullptr;
  if (outer->isTileLoop || !outer->isPointLoop || outer->step != 1)
    return nullptr;
  if (outer->body->children.size() != 1 ||
      outer->body->children.front()->kind != Node::Kind::Loop)
    return nullptr;
  auto inner =
      std::static_pointer_cast<Loop>(outer->body->children.front());
  if (inner->isTileLoop || !inner->isPointLoop || inner->step != 1)
    return nullptr;
  if (inner->body->children.size() != 1 ||
      inner->body->children.front()->kind != Node::Kind::Stmt)
    return nullptr;
  auto stmt =
      std::static_pointer_cast<ir::Stmt>(inner->body->children.front());
  if (stmt->op != ir::AssignOp::AddAssign || !stmt->guards.empty() ||
      !stmt->isReductionUpdate || stmt->lhsSubs.empty())
    return nullptr;
  // Both windows must be computable at the nest root (rectangular pair).
  if (!ir::boundsIndependentOf(*inner, outer->iter)) return nullptr;

  auto tryRoles = [&](const LoopPtr& lane, const LoopPtr& stream)
      -> std::shared_ptr<const ir::MicroKernelTag> {
    if (!lane->simdSafe || !stream->reductionCarried) return nullptr;
    if (stmt->lhsSubs.back().coeff(lane->iter) != 1) return nullptr;
    for (std::size_t i = 0; i + 1 < stmt->lhsSubs.size(); ++i)
      if (stmt->lhsSubs[i].coeff(lane->iter) != 0) return nullptr;
    for (const auto& sub : stmt->lhsSubs)
      if (sub.coeff(stream->iter) != 0) return nullptr;
    const auto& rhs = stmt->rhs;
    if (!rhs || rhs->kind != ir::Expr::Kind::Binary ||
        rhs->binOp != ir::BinOp::Mul)
      return nullptr;
    for (const auto& [laneSide, other] :
         {std::pair(rhs->lhs, rhs->rhs), std::pair(rhs->rhs, rhs->lhs)}) {
      if (!laneSide || laneSide->kind != ir::Expr::Kind::ArrayRef) continue;
      bool usesLane = false;
      for (const auto& s : laneSide->subs)
        if (s.coeff(lane->iter) != 0) usesLane = true;
      if (!usesLane || exprUsesIter(other, lane->iter)) continue;
      auto tag = std::make_shared<ir::MicroKernelTag>();
      tag->laneIter = lane->iter;
      tag->streamIter = stream->iter;
      tag->maxLane = tag->maxStream = cap;
      return tag;
    }
    return nullptr;
  };
  if (auto tag = tryRoles(inner, outer)) return tag;
  return tryRoles(outer, inner);
}

}  // namespace

int registerTile(ir::Program& program, const AstOptions& options) {
  int unrolled = 0;
  // SIMD microkernel tagging first: tagged contraction nests stay rolled —
  // the interpreter runs the rolled nest and the native emitter lowers the
  // tag to packed vector code with the identical per-cell operation order,
  // so the two stay bit-exact. Tagged nests are excluded from
  // unroll-and-jam below.
  if (options.simd) {
    std::vector<std::pair<LoopPtr, std::shared_ptr<const ir::MicroKernelTag>>>
        tags;
    forEachLoop(program, [&](const LoopPtr& l, const std::vector<LoopPtr>&) {
      if (auto tag = recognizeMicroKernel(l, options))
        tags.emplace_back(l, std::move(tag));
    });
    for (auto& [l, tag] : tags) l->microKernel = std::move(tag);
  }
  auto underMicroKernel = [](const LoopPtr& l,
                             const std::vector<LoopPtr>& ancestors) {
    if (l->microKernel) return true;
    for (const auto& a : ancestors)
      if (a->microKernel) return true;
    return false;
  };
  // Innermost loops first (collect, then mutate).
  std::vector<LoopPtr> inner;
  forEachLoop(program, [&](const LoopPtr& l,
                           const std::vector<LoopPtr>& ancestors) {
    if (l->isTileLoop || l->step < 1) return;
    if (underMicroKernel(l, ancestors)) return;
    bool hasLoopChild = false;
    for (const auto& c : l->body->children)
      if (c->kind == Node::Kind::Loop) hasLoopChild = true;
    if (!hasLoopChild) inner.push_back(l);
  });
  if (options.unrollInner >= 2) {
    for (const auto& l : inner) {
      unrollGuarded(l, options.unrollInner);
      ++unrolled;
    }
  }
  if (options.unrollOuter >= 2) {
    // Unroll-and-jam of the second-innermost loops: only when the body is
    // exactly the (already unrolled) inner loop and its bounds do not
    // depend on the outer iterator.
    std::vector<LoopPtr> outers;
    forEachLoop(program, [&](const LoopPtr& l,
                             const std::vector<LoopPtr>& ancestors) {
      if (l->isTileLoop || l->step < 1) return;
      if (underMicroKernel(l, ancestors)) return;
      // Jamming reorders iterations across the inner loop; it is only
      // legal for permutable pairs, which is guaranteed exactly for the
      // point loops of a tiled band (Sec. IV-C: "loops within a tile are
      // unrolled when they are permutable").
      if (!l->isPointLoop) return;
      if (l->body->children.size() != 1 ||
          l->body->children.front()->kind != Node::Kind::Loop)
        return;
      auto innerLoop =
          std::static_pointer_cast<Loop>(l->body->children.front());
      // Both loops must belong to the same tiled (permutable) band —
      // jamming across a non-band inner loop can reorder same-cell
      // accumulations (dep distances like (1, -k)).
      if (!innerLoop->isPointLoop) return;
      bool innerIsLeaf = true;
      for (const auto& c : innerLoop->body->children)
        if (c->kind == Node::Kind::Loop) innerIsLeaf = false;
      if (!innerIsLeaf) return;
      // Rectangularity: inner bounds independent of the outer iterator.
      for (const auto& parts :
           {innerLoop->lower.parts, innerLoop->upper.parts})
        for (const auto& p : parts)
          if (p.coeff(l->iter) != 0) return;
      outers.push_back(l);
    });
    for (const auto& l : outers) {
      auto innerLoop =
          std::static_pointer_cast<Loop>(l->body->children.front());
      // Jam: replicate the inner loop's body with outer-iterator offsets
      // (multiples of the outer step, so strided point loops jam too).
      const std::int64_t ostep = l->step;
      auto jammed = std::make_shared<Block>();
      for (std::int64_t o = 0; o < options.unrollOuter; ++o) {
        auto copy =
            std::static_pointer_cast<Block>(innerLoop->body->clone());
        if (o > 0) {
          ir::substituteIterInTree(
              copy, l->iter,
              AffExpr::term(l->iter) + AffExpr(o * ostep));
          std::function<void(const NodePtr&)> guard = [&](const NodePtr& n) {
            switch (n->kind) {
              case Node::Kind::Block:
                for (const auto& c :
                     std::static_pointer_cast<Block>(n)->children)
                  guard(c);
                break;
              case Node::Kind::Loop:
                guard(std::static_pointer_cast<Loop>(n)->body);
                break;
              case Node::Kind::Stmt: {
                auto s = std::static_pointer_cast<ir::Stmt>(n);
                for (const auto& up : l->upper.parts)
                  s->guards.push_back(up - AffExpr::term(l->iter) -
                                      AffExpr(o * ostep) - AffExpr(1));
                break;
              }
            }
          };
          guard(copy);
        }
        for (const auto& c : copy->children) jammed->children.push_back(c);
      }
      innerLoop->body = jammed;
      l->step = ostep * options.unrollOuter;
      l->unroll = options.unrollOuter;
      ++unrolled;
    }
  }
  return unrolled;
}

}  // namespace polyast::transform
