#include "transform/affine.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <functional>
#include <set>

#include "obs/selfprof.hpp"
#include "poly/codegen.hpp"
#include "support/error.hpp"

namespace polyast::transform {

using ir::AffExpr;
using poly::Dependence;
using poly::DepKind;
using poly::PoDG;
using poly::PolyStmt;
using poly::Schedule;
using poly::ScheduleMap;
using poly::Scop;

namespace {

/// The scheduler's mutable state, snapshotable so the perfect-fusion
/// attempt (Algorithm 3) can be rolled back.
class AffineScheduler {
 public:
  AffineScheduler(const Scop& scop, const PoDG& podg, const AffineOptions& opt)
      : scop_(scop), opt_(opt), podg_(podg) {
    for (const auto& ps : scop.stmts) {
      StmtState s;
      s.ps = &ps;
      std::size_t d = ps.iters.size();
      s.sched.beta.assign(d + 1, 0);
      s.sched.alpha = IntMatrix(d, d);
      s.sched.shift.assign(d, AffExpr(0));
      s.iterScheduled.assign(d, false);
      if (opt.preferOriginalOrder) {
        for (std::size_t j = 0; j < d; ++j) s.dlPref.push_back(j);
      } else {
        // DL preference: best permutation order (outer->inner) of this
        // statement's own nest.
        dl::LoopNestModel nest{ps.iters, {ps.stmt}, {}};
        if (opt.reductions == poly::ReductionMode::Relaxed) {
          // Widened candidate set: a proven-pure accumulator is scored as
          // privatized (register-resident), so the preference is driven by
          // the data operands instead of the accumulation target. Strict
          // mode keeps the accumulator's footprint term, which anchors the
          // preference to the original accumulation-innermost order.
          for (const auto& dep : podg_.deps)
            if (dep.srcId == ps.stmt->id && dep.dstId == ps.stmt->id &&
                dep.relaxable()) {
              nest.privatized.insert(ps.stmt->lhsArray);
              break;
            }
        }
        for (const auto& name : dl::bestPermutationOrder(nest, opt.cache)) {
          auto it = std::find(ps.iters.begin(), ps.iters.end(), name);
          s.dlPref.push_back(
              static_cast<std::size_t>(it - ps.iters.begin()));
        }
      }
      if (getenv("POLYAST_DLPREF")) {
        fprintf(stderr, "dlpref stmt %d:", ps.stmt->id);
        for (std::size_t j : s.dlPref)
          fprintf(stderr, " %s", ps.iters[j].c_str());
        fprintf(stderr, "\n");
      }
      st_[ps.stmt->id] = std::move(s);
    }
    for (std::size_t i = 0; i < podg_.deps.size(); ++i) {
      if (podg_.deps[i].kind == DepKind::Input) continue;
      // Relaxed mode drops proven-pure accumulation edges from every
      // legality decision (SCCs, permutation, retiming, fusion,
      // parallelism preservation); the reductions analysis pass re-proves
      // the resulting schedules safe afterwards.
      if (opt.reductions == poly::ReductionMode::Relaxed &&
          podg_.deps[i].relaxable())
        continue;
      deps_.push_back({i, podg_.deps[i].poly, false});
    }
  }

  ScheduleMap run() {
    std::vector<int> all;
    for (const auto& ps : scop_.stmts) all.push_back(ps.stmt->id);
    POLYAST_CHECK(algorithm2(all, 0),
                  "affine scheduler exhausted its search without finding a "
                  "legal schedule");
    ScheduleMap out;
    for (auto& [id, s] : st_) out[id] = s.sched;
    if (debug_ && !poly::scheduleIsLegal(scop_, podg_, out, opt_.reductions)) {
      std::size_t rows = poly::normalizedRows(scop_);
      for (const auto& d : podg_.deps) {
        if (d.kind == DepKind::Input) continue;
        if (opt_.reductions == poly::ReductionMode::Relaxed && d.relaxable())
          continue;
        auto st2 = poly::checkDependence(scop_, d, out, rows);
        if (st2 != poly::DepStatus::Carried)
          fprintf(stderr, "dep %d->%d (%s, L%zu, %s): %s\n", d.srcId,
                  d.dstId, d.array.c_str(), d.level,
                  poly::depKindName(d.kind).c_str(),
                  st2 == poly::DepStatus::Violated ? "VIOLATED" : "tied");
      }
      for (auto& [id, sc] : out)
        fprintf(stderr, "stmt %d: %s\n", id, sc.str().c_str());
    }
    POLYAST_CHECK(poly::scheduleIsLegal(scop_, podg_, out, opt_.reductions),
                  "affine scheduler produced an illegal schedule");
    return out;
  }

 private:
  struct StmtState {
    const PolyStmt* ps = nullptr;
    Schedule sched;
    std::vector<bool> iterScheduled;
    std::vector<std::size_t> dlPref;  ///< iterator indices, outer-to-inner
    std::size_t assigned = 0;         ///< alpha rows assigned so far

    std::size_t depth() const { return iterScheduled.size(); }
    std::size_t remaining() const {
      std::size_t r = 0;
      for (bool b : iterScheduled)
        if (!b) ++r;
      return r;
    }
    /// Unscheduled iterators ordered by DL preference (outer-first).
    std::vector<std::size_t> candidates() const {
      std::vector<std::size_t> out;
      for (std::size_t j : dlPref)
        if (!iterScheduled[j]) out.push_back(j);
      return out;
    }
  };

  struct ActiveDep {
    std::size_t idx;  ///< into podg_.deps
    IntSet pending;   ///< pairs still tied by the assigned rows
    bool satisfied;
  };

  struct Snapshot {
    std::map<int, StmtState> st;
    std::vector<ActiveDep> deps;
  };
  Snapshot snapshot() const { return {st_, deps_}; }
  void restore(Snapshot s) {
    st_ = std::move(s.st);
    deps_ = std::move(s.deps);
  }

  /// Per-statement choice at one level: source iterator, sign, shift.
  struct LevelChoice {
    std::size_t iter = 0;
    std::int64_t sign = 1;
    std::int64_t shift = 0;
  };
  using GroupChoice = std::map<int, LevelChoice>;

  // ---- dependence bookkeeping -------------------------------------------

  const Dependence& dep(const ActiveDep& a) const { return podg_.deps[a.idx]; }

  bool inSet(int id, const std::vector<int>& set) const {
    return std::find(set.begin(), set.end(), id) != set.end();
  }

  /// Active (unsatisfied) dependences with both endpoints in `group`.
  std::vector<ActiveDep*> activeWithin(const std::vector<int>& group) {
    std::vector<ActiveDep*> out;
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      if (inSet(dep(a).srcId, group) && inSet(dep(a).dstId, group))
        out.push_back(&a);
    }
    return out;
  }

  /// theta_k difference (dst - src) as a LinExpr over the dep's joint space
  /// for a candidate choice.
  LinExpr diffExpr(const ActiveDep& a, const GroupChoice& choice) const {
    const Dependence& d = dep(a);
    const LevelChoice& cs = choice.at(d.srcId);
    const LevelChoice& cd = choice.at(d.dstId);
    std::size_t n = d.poly.numVars();
    LinExpr e = LinExpr::constantExpr(cd.shift - cs.shift, n);
    e.coeffs[d.srcDim + cd.iter] += cd.sign;
    e.coeffs[cs.iter] -= cs.sign;
    return e;
  }

  /// Solves the retiming difference-constraint system for a group with the
  /// given per-statement iterator choices and a group-uniform sign.
  /// Returns per-statement shifts or nullopt.
  std::optional<std::map<int, std::int64_t>> solveShifts(
      const std::vector<int>& group, const std::map<int, std::size_t>& iters,
      std::int64_t sign) {
    // c_dst - c_src >= M where M = max(sign*x_src[j_src] - sign*x_dst[j_dst]).
    struct Edge {
      int src, dst;
      std::int64_t weight;
    };
    std::vector<Edge> edges;
    for (ActiveDep* a : activeWithin(group)) {
      const Dependence& d = dep(*a);
      std::size_t n = d.poly.numVars();
      LinExpr obj = LinExpr::constantExpr(0, n);
      obj.coeffs[iters.at(d.srcId)] += sign;
      obj.coeffs[d.srcDim + iters.at(d.dstId)] -= sign;
      auto m = a->pending.maxOf(obj);
      if (a->pending.isEmpty()) continue;  // nothing left to order
      if (!m) return std::nullopt;         // no constant retiming can help
      if (d.srcId == d.dstId) {
        if (*m > 0) return std::nullopt;  // backward self-dependence
        continue;
      }
      edges.push_back({d.srcId, d.dstId, *m});
    }
    std::map<int, std::int64_t> c;
    for (int id : group) c[id] = 0;
    // Longest-path relaxation; |V| extra rounds detect positive cycles.
    for (std::size_t round = 0; round <= group.size(); ++round) {
      bool changed = false;
      for (const auto& e : edges) {
        if (c[e.dst] < c[e.src] + e.weight) {
          c[e.dst] = c[e.src] + e.weight;
          changed = true;
        }
      }
      if (!changed) break;
      if (round == group.size()) return std::nullopt;  // positive cycle
    }
    for (const auto& [id, v] : c)
      if (std::llabs(v) > opt_.maxShift) return std::nullopt;
    return c;
  }

  /// Tries iterator combinations (Algorithm 4) for `group`, whose members
  /// must all still have unscheduled iterators. Preference order follows
  /// the DL model; the original loop order is the final fallback.
  std::optional<GroupChoice> choosePermutation(const std::vector<int>& group,
                                                int skip = 0) {
    std::vector<std::vector<std::size_t>> cands;
    for (int id : group) {
      auto c = st_.at(id).candidates();
      POLYAST_CHECK(!c.empty(), "statement exhausted inside loop group");
      cands.push_back(std::move(c));
    }
    // Enumerate index vectors in order of increasing total displacement
    // from the DL-preferred choice.
    std::size_t m = group.size();
    std::size_t maxSum = 0;
    for (const auto& c : cands) maxSum += c.size() - 1;
    int tried = 0;
    for (std::size_t target = 0; target <= maxSum; ++target) {
      std::vector<std::size_t> idx(m, 0);
      // Recursive enumeration of vectors with sum == target.
      std::optional<GroupChoice> found;
      std::function<bool(std::size_t, std::size_t)> rec =
          [&](std::size_t pos, std::size_t left) -> bool {
        if (tried >= opt_.maxCombos) return true;  // stop everything
        if (pos == m) {
          if (left != 0) return false;
          ++tried;
          std::map<int, std::size_t> iters;
          for (std::size_t i = 0; i < m; ++i)
            iters[group[i]] = cands[i][idx[i]];
          for (std::int64_t sign : {std::int64_t{1}, std::int64_t{-1}}) {
            auto shifts = solveShifts(group, iters, sign);
            if (!shifts) continue;
            if (skip > 0) {
              --skip;  // a viable combo, but the caller asked for a later one
              break;
            }
            GroupChoice gc;
            for (int id : group)
              gc[id] = {iters.at(id), sign, shifts->at(id)};
            found = std::move(gc);
            return true;
          }
          return false;
        }
        for (std::size_t v = 0; v <= std::min(left, cands[pos].size() - 1);
             ++v) {
          idx[pos] = v;
          if (rec(pos + 1, left - v)) return true;
        }
        return false;
      };
      if (rec(0, target) && found) {
        obs::selfprof::count(obs::selfprof::Op::SelCandidates, tried);
        return found;
      }
      if (tried >= opt_.maxCombos) break;
    }
    obs::selfprof::count(obs::selfprof::Op::SelCandidates, tried);
    if (tried >= opt_.maxCombos)
      obs::selfprof::count(obs::selfprof::Op::SelCapHits);
    // Fallback: original loop order (first unscheduled original index).
    obs::selfprof::count(obs::selfprof::Op::SelFallbacks);
    std::map<int, std::size_t> iters;
    for (int id : group) {
      const auto& s = st_.at(id);
      std::size_t j = 0;
      while (j < s.depth() && s.iterScheduled[j]) ++j;
      POLYAST_CHECK(j < s.depth(), "no unscheduled iterator left");
      iters[id] = j;
    }
    auto shifts = solveShifts(group, iters, 1);
    if (!shifts) return std::nullopt;
    GroupChoice gc;
    for (int id : group) gc[id] = {iters.at(id), 1, shifts->at(id)};
    return gc;
  }

  bool debug_ = getenv("POLYAST_DEBUG") != nullptr;

  /// Applies the beta row at `level` for the listed statements and updates
  /// dependence satisfaction.
  [[nodiscard]] bool applyBeta(const std::map<int, std::int64_t>& betas,
                               std::size_t level) {
    if (debug_) {
      fprintf(stderr, "applyBeta L%zu:", level);
      for (auto& [id, b] : betas) fprintf(stderr, " %d=%lld", id, (long long)b);
      fprintf(stderr, "\n");
    }
    for (const auto& [id, b] : betas) {
      auto& s = st_.at(id);
      // A trailing beta row (beyond 2d+1) orders statements fused through
      // their whole depth; the paper notes such schedules remain
      // convertible to the 2d+1 form.
      if (level >= s.sched.beta.size()) s.sched.beta.resize(level + 1, 0);
      s.sched.beta[level] = b;
    }
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      auto si = betas.find(dep(a).srcId);
      auto di = betas.find(dep(a).dstId);
      if (si == betas.end() || di == betas.end()) continue;
      if (di->second > si->second) {
        a.satisfied = true;
      } else if (di->second < si->second) {
        if (!a.pending.isEmpty()) return false;  // would break the order
        a.satisfied = true;                      // vacuously
      }
    }
    return true;
  }

  /// Applies the alpha/shift row at `level` for a fused group and updates
  /// pending dependence polyhedra.
  [[nodiscard]] bool applyAlpha(const GroupChoice& choice,
                                std::size_t level) {
    if (debug_) {
      fprintf(stderr, "applyAlpha L%zu:", level);
      for (auto& [id, lc] : choice)
        fprintf(stderr, " %d:(it%zu,sg%lld,sh%lld)", id, lc.iter,
                (long long)lc.sign, (long long)lc.shift);
      fprintf(stderr, "\n");
    }
    for (const auto& [id, lc] : choice) {
      auto& s = st_.at(id);
      POLYAST_CHECK(!s.iterScheduled[lc.iter], "iterator scheduled twice");
      s.iterScheduled[lc.iter] = true;
      s.sched.alpha.at(level, lc.iter) = lc.sign;
      s.sched.shift[level] = AffExpr(lc.shift);
      s.assigned++;
    }
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      if (!choice.count(dep(a).srcId) || !choice.count(dep(a).dstId))
        continue;
      LinExpr diff = diffExpr(a, choice);
      // Violation check: pending && diff <= -1 must be empty.
      IntSet bad = a.pending;
      {
        std::vector<std::int64_t> neg = diff.coeffs;
        for (auto& v : neg) v = -v;
        bad.addInequality(std::move(neg), -diff.constant - 1);
      }
      if (!bad.isEmpty()) return false;
      a.pending.addEquality(diff.coeffs, diff.constant);
      if (a.pending.isEmpty()) a.satisfied = true;
    }
    return true;
  }

  // ---- fusion profitability & legality ----------------------------------

  /// Condition (2) of Algorithm 5: some array is accessed by both groups
  /// with identical access structure on the iterators chosen for levels
  /// 1..k (constant reuse distance).
  bool reuseSignatureMatch(const std::vector<int>& ga,
                           const std::vector<int>& gb,
                           const GroupChoice& choice, std::size_t level) {
    auto signatures = [&](const std::vector<int>& g) {
      // array -> set of per-dim coefficient vectors over levels 0..level.
      std::map<std::string, std::set<std::vector<std::int64_t>>> out;
      for (int id : g) {
        const auto& s = st_.at(id);
        const auto& lc = choice.at(id);
        for (const auto& acc : s.ps->accesses) {
          std::vector<std::int64_t> sig;
          for (const auto& sub : acc.subs) {
            // Coefficients of the iterators already placed at levels
            // 0..level-1 plus the current candidate level.
            for (std::size_t lv = 0; lv < s.assigned; ++lv) {
              std::size_t j = s.sched.sourceIter(lv);
              sig.push_back(sub.coeff(s.ps->iters[j]) * s.sched.sign(lv));
            }
            sig.push_back(sub.coeff(s.ps->iters[lc.iter]) * lc.sign);
          }
          (void)level;
          out[acc.array].insert(std::move(sig));
        }
      }
      return out;
    };
    auto sa = signatures(ga);
    auto sb = signatures(gb);
    for (const auto& [array, sigsA] : sa) {
      auto it = sb.find(array);
      if (it == sb.end()) continue;
      for (const auto& sig : sigsA)
        if (it->second.count(sig)) return true;
    }
    return false;
  }

  /// True when the two groups reference at least one common array.
  bool shareArray(const std::vector<int>& ga, const std::vector<int>& gb) {
    std::set<std::string> arraysA;
    for (int id : ga)
      for (const auto& acc : st_.at(id).ps->accesses)
        arraysA.insert(acc.array);
    for (int id : gb)
      for (const auto& acc : st_.at(id).ps->accesses)
        if (arraysA.count(acc.array)) return true;
    return false;
  }

  /// Condition (3): DL-model fusion profitability.
  bool dlProfitable(const std::vector<int>& ga, const std::vector<int>& gb) {
    auto nestOf = [&](const std::vector<int>& g) {
      dl::LoopNestModel nest;
      std::set<std::string> seen;
      for (int id : g) {
        const auto& ps = *st_.at(id).ps;
        for (const auto& it : ps.iters)
          if (seen.insert(it).second) nest.iters.push_back(it);
        nest.stmts.push_back(ps.stmt);
      }
      return nest;
    };
    dl::LoopNestModel a = nestOf(ga), b = nestOf(gb);
    std::vector<int> merged = ga;
    merged.insert(merged.end(), gb.begin(), gb.end());
    return dl::fusionProfitable(a, b, nestOf(merged), opt_.cache);
  }

  /// Condition (5): a group is "parallel at this level" when every active
  /// intra-group dependence has theta_k distance exactly 0.
  bool groupParallel(const std::vector<int>& group, const GroupChoice& choice) {
    for (ActiveDep* a : activeWithin(group)) {
      if (a->pending.isEmpty()) continue;
      LinExpr diff = diffExpr(*a, choice);
      auto mn = a->pending.minOf(diff);
      auto mx = a->pending.maxOf(diff);
      if (!mn || !mx || *mn != 0 || *mx != 0) return false;
    }
    return true;
  }

  /// Group-graph reachability over active dependences, where each SCC/fuse
  /// group is a node. Used to reject fusions that would create a cycle
  /// through an unmerged group.
  bool pathThroughOthers(const std::vector<std::vector<int>>& groups,
                         std::size_t from, std::size_t to) {
    std::size_t n = groups.size();
    std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
    auto groupOf = [&](int id) -> std::size_t {
      for (std::size_t g = 0; g < n; ++g)
        if (inSet(id, groups[g])) return g;
      return n;
    };
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      std::size_t gs = groupOf(dep(a).srcId);
      std::size_t gd = groupOf(dep(a).dstId);
      if (gs < n && gd < n && gs != gd) adj[gs][gd] = true;
    }
    // BFS from `from` to `to` with at least one intermediate hop.
    std::vector<bool> visited(n, false);
    std::vector<std::size_t> queue;
    for (std::size_t g = 0; g < n; ++g)
      if (adj[from][g] && g != to && !visited[g]) {
        visited[g] = true;
        queue.push_back(g);
      }
    while (!queue.empty()) {
      std::size_t g = queue.back();
      queue.pop_back();
      if (adj[g][to]) return true;
      for (std::size_t h = 0; h < n; ++h)
        if (adj[g][h] && !visited[h] && h != to) {
          visited[h] = true;
          queue.push_back(h);
        }
    }
    return false;
  }

  bool hasDirectDeps(const std::vector<int>& ga, const std::vector<int>& gb) {
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      bool sa = inSet(dep(a).srcId, ga), da = inSet(dep(a).dstId, ga);
      bool sb = inSet(dep(a).srcId, gb), db = inSet(dep(a).dstId, gb);
      if ((sa && db) || (sb && da)) return true;
    }
    return false;
  }

  // ---- the recursive algorithms -----------------------------------------

  /// Algorithm 2: SCC-by-SCC permutation, fusion, recursion — wrapped in a
  /// bounded backtracking loop: when a level's choices lead to an
  /// unresolvable state deeper in the tree (e.g. a tie cycle between
  /// fusion groups), the level is retried with the next viable permutation
  /// combination.
  bool algorithm2(const std::vector<int>& stmts, std::size_t level) {
    const int maxAttempts = 6;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
      Snapshot snap = snapshot();
      if (tryLevel(stmts, level, attempt)) return true;
      restore(std::move(snap));
    }
    return false;
  }

  bool tryLevel(const std::vector<int>& stmts, std::size_t level,
                int attempt) {
    // Exhausted statements (no iterators left) only need a beta here.
    std::vector<int> loopStmts, leafStmts;
    for (int id : stmts)
      (st_.at(id).remaining() > 0 ? loopStmts : leafStmts).push_back(id);

    // SCCs over the active dependences among ALL statements: a cycle that
    // involves an exhausted statement cannot be broken at this level, so
    // the caller must pick different outer rows.
    std::vector<bool> enabled(podg_.deps.size(), false);
    for (auto& a : deps_)
      if (!a.satisfied && !a.pending.isEmpty()) enabled[a.idx] = true;
    auto sccs = poly::stronglyConnectedComponents(stmts, podg_, enabled);
    std::vector<std::vector<int>> loopSccs, leafGroups;
    for (const auto& scc : sccs) {
      bool hasLeaf = false;
      for (int id : scc)
        if (st_.at(id).remaining() == 0) hasLeaf = true;
      if (hasLeaf) {
        if (scc.size() > 1) return false;  // unresolvable tie cycle
        leafGroups.push_back(scc);
      } else {
        loopSccs.push_back(scc);
      }
    }

    // Algorithm 4 per SCC: permutation + retiming constraints. The attempt
    // index skips earlier viable combinations (backtracking).
    GroupChoice allChoices;
    for (const auto& scc : loopSccs) {
      auto choice = choosePermutation(scc, attempt);
      if (!choice && attempt > 0) choice = choosePermutation(scc, 0);
      if (!choice) return false;
      for (const auto& [id, lc] : *choice) allChoices[id] = lc;
    }

    // Algorithm 5: greedy fusion of SCCs (leaf groups participate in the
    // legality graph but are never merged).
    std::vector<std::vector<int>> groups =
        fuseSccs(loopSccs, leafGroups, allChoices);

    // Re-solve shifts per fused group so cross-SCC dependences inside one
    // group are retimed coherently.
    for (auto& g : groups) {
      if (g.empty() || st_.at(g.front()).remaining() == 0) continue;
      std::map<int, std::size_t> iters;
      std::int64_t sign = allChoices.at(g.front()).sign;
      for (int id : g) iters[id] = allChoices.at(id).iter;
      auto shifts = solveShifts(g, iters, sign);
      if (!shifts && sign != 1) {
        sign = 1;
        shifts = solveShifts(g, iters, sign);
      }
      if (!shifts) return false;
      for (int id : g) {
        allChoices[id].sign = sign;
        allChoices[id].shift = shifts->at(id);
      }
    }
    auto order = topoOrder(groups);
    if (!order) return false;

    std::map<int, std::int64_t> betas;
    for (std::size_t pos = 0; pos < order->size(); ++pos)
      for (int id : groups[(*order)[pos]])
        betas[id] = static_cast<std::int64_t>(pos);
    if (!applyBeta(betas, level)) return false;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const auto& g = groups[gi];
      if (g.empty() || st_.at(g.front()).remaining() == 0) continue;
      GroupChoice gc;
      for (int id : g) gc[id] = allChoices.at(id);
      if (!applyAlpha(gc, level)) return false;
    }

    // Recursion (Algorithm 2 lines 12-20).
    for (std::size_t gi : *order) {
      const auto& g = groups[gi];
      bool anyRemaining = false;
      for (int id : g)
        if (st_.at(id).remaining() > 0) anyRemaining = true;
      if (!anyRemaining) {
        if (g.size() > 1) {
          // Fully fused statements: order them with a trailing beta row
          // (Algorithm 2 lines 19-20).
          std::vector<std::vector<int>> singles;
          for (int id : g) singles.push_back({id});
          auto leafOrder = topoOrder(singles);
          if (!leafOrder) return false;
          std::map<int, std::int64_t> leafBetas;
          for (std::size_t pos = 0; pos < leafOrder->size(); ++pos)
            leafBetas[singles[(*leafOrder)[pos]].front()] =
                static_cast<std::int64_t>(pos);
          if (!applyBeta(leafBetas, level + 1)) return false;
        }
        continue;
      }
      bool done = false;
      if (isSingleScc(g, loopSccs)) {
        Snapshot snap = snapshot();
        done = algorithm3(g, level + 1);
        if (!done) restore(std::move(snap));
      }
      if (!done && !algorithm2(g, level + 1)) return false;
    }
    return true;
  }

  /// Algorithm 3: perfect fusion of all statements down to the innermost
  /// level (enables tiling). Returns false (no state change expected by
  /// the caller, which restores a snapshot) when impossible.
  bool algorithm3(const std::vector<int>& stmts, std::size_t level) {
    for (int id : stmts)
      if (st_.at(id).remaining() == 0) return false;
    auto choice = choosePermutation(stmts);
    if (!choice) return false;
    std::map<int, std::int64_t> betas;
    for (int id : stmts) betas[id] = 0;
    if (!applyBeta(betas, level)) return false;
    if (!applyAlpha(*choice, level)) return false;
    bool anyRemaining = false;
    for (int id : stmts)
      if (st_.at(id).remaining() > 0) anyRemaining = true;
    if (anyRemaining) {
      if (!algorithm3(stmts, level + 1)) return false;
    } else if (stmts.size() > 1) {
      // Leaf ordering within the perfectly fused body.
      std::vector<std::vector<int>> groups;
      for (int id : stmts) groups.push_back({id});
      auto order = topoOrder(groups);
      if (!order) return false;
      std::map<int, std::int64_t> leafBetas;
      for (std::size_t pos = 0; pos < order->size(); ++pos)
        leafBetas[groups[(*order)[pos]].front()] =
            static_cast<std::int64_t>(pos);
      if (!applyBeta(leafBetas, level + 1)) return false;
    }
    return true;
  }

  /// Algorithm 5's greedy merge. Leaf groups (exhausted statements) are
  /// part of the legality graph but never merged.
  std::vector<std::vector<int>> fuseSccs(
      const std::vector<std::vector<int>>& sccs,
      const std::vector<std::vector<int>>& leafGroups,
      const GroupChoice& choices) {
    std::vector<std::vector<int>> pool = sccs;
    pool.insert(pool.end(), leafGroups.begin(), leafGroups.end());
    std::vector<std::vector<int>> fused;
    // Pop the SCC of largest dimensionality first.
    auto dimOf = [&](const std::vector<int>& g) {
      std::size_t d = 0;
      for (int id : g) d = std::max(d, st_.at(id).depth());
      return d;
    };
    while (!pool.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < pool.size(); ++i)
        if (dimOf(pool[i]) > dimOf(pool[best])) best = i;
      std::vector<int> fuse = pool[best];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          const auto& cand = pool[i];
          if (!canFuse(fuse, cand, choices, pool, fused)) continue;
          fuse.insert(fuse.end(), cand.begin(), cand.end());
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          break;
        }
      }
      fused.push_back(std::move(fuse));
    }
    return fused;
  }

  /// Codegen compatibility: the restricted code generator can only fuse
  /// statements at one level when their loop bounds are identical (after
  /// applying this level's sign/shift and canonicalizing outer iterators by
  /// their scheduled level), or are single parts totally ordered under the
  /// parameter-minimum assumption. Fusions outside that class are rejected
  /// here rather than failing later in applySchedules.
  bool boundsCompatible(const std::vector<int>& merged,
                        const GroupChoice& choices) {
    struct BoundSet {
      std::vector<AffExpr> lowers, uppers;
    };
    std::vector<BoundSet> sets;
    for (int id : merged) {
      const auto& s = st_.at(id);
      const LevelChoice& lc = choices.at(id);
      const auto& loop = s.ps->loops[lc.iter];
      BoundSet bs;
      auto canon = [&](const AffExpr& part) -> std::optional<AffExpr> {
        AffExpr out(part.constant());
        for (const auto& [name, coeff] : part.coeffs()) {
          if (std::find(scop_.params.begin(), scop_.params.end(), name) !=
              scop_.params.end()) {
            out += AffExpr::term(name, coeff);
            continue;
          }
          // Outer iterator: must already be scheduled; canonicalize to its
          // level (value of iterator = sign*c_L - sign*shift_L).
          auto it = std::find(s.ps->iters.begin(), s.ps->iters.end(), name);
          if (it == s.ps->iters.end()) return std::nullopt;
          std::size_t j = static_cast<std::size_t>(it - s.ps->iters.begin());
          if (!s.iterScheduled[j]) return std::nullopt;
          std::size_t lev = 0;
          bool found = false;
          for (std::size_t L = 0; L < s.assigned; ++L)
            if (s.sched.sourceIter(L) == j) {
              lev = L;
              found = true;
            }
          if (!found) return std::nullopt;
          std::int64_t sg = s.sched.sign(lev);
          out += AffExpr::term("@" + std::to_string(lev), coeff * sg) -
                 s.sched.shift[lev] * (coeff * sg);
        }
        return out;
      };
      for (const auto& p : loop->lower.parts) {
        auto c = canon(p);
        if (!c) return false;
        bs.lowers.push_back(*c + AffExpr(lc.shift));
      }
      for (const auto& p : loop->upper.parts) {
        auto c = canon(p);
        if (!c) return false;
        bs.uppers.push_back(*c + AffExpr(lc.shift));
      }
      if (choices.at(id).sign != 1) std::swap(bs.lowers, bs.uppers);
      sets.push_back(std::move(bs));
    }
    auto compatible = [&](bool isLower) {
      const auto& first = isLower ? sets.front().lowers : sets.front().uppers;
      bool allSame = true;
      for (const auto& bs : sets)
        if (!((isLower ? bs.lowers : bs.uppers) == first)) allSame = false;
      if (allSame) return true;
      std::vector<AffExpr> cands;
      for (const auto& bs : sets) {
        const auto& parts = isLower ? bs.lowers : bs.uppers;
        if (parts.size() != 1) return false;
        cands.push_back(parts.front());
      }
      for (const AffExpr& c : cands) {
        bool covers = true;
        for (const AffExpr& o : cands)
          if (!(c == o) && !boundDominates(c, o, isLower)) covers = false;
        if (covers) return true;
      }
      return false;
    };
    return compatible(true) && compatible(false);
  }

  /// a <= b everywhere (isLower) or a >= b everywhere (!isLower) under the
  /// parameter-minimum assumption; canonical "@level" iterators are free.
  bool boundDominates(const AffExpr& a, const AffExpr& b, bool isLower) {
    std::vector<std::string> names;
    for (const AffExpr* e : {&a, &b})
      for (const auto& [n, c] : e->coeffs()) {
        (void)c;
        if (std::find(names.begin(), names.end(), n) == names.end())
          names.push_back(n);
      }
    IntSet set(names);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (std::find(scop_.params.begin(), scop_.params.end(), names[i]) !=
          scop_.params.end()) {
        std::vector<std::int64_t> row(names.size(), 0);
        row[i] = 1;
        set.addInequality(std::move(row), -scop_.options.paramMin);
      }
    }
    AffExpr diff = isLower ? a - b : b - a;
    std::vector<std::int64_t> row(names.size(), 0);
    for (std::size_t i = 0; i < names.size(); ++i)
      row[i] = diff.coeff(names[i]);
    set.addInequality(std::move(row), diff.constant() - 1);
    return set.isEmpty();
  }

  bool canFuse(const std::vector<int>& fuse, const std::vector<int>& cand,
               const GroupChoice& choices,
               const std::vector<std::vector<int>>& pool,
               const std::vector<std::vector<int>>& done) {
    if (opt_.fusion == FusionHeuristic::NoFusion) return false;
    // Leaf groups (no loop at this level) cannot be fused.
    for (int id : fuse)
      if (st_.at(id).remaining() == 0) return false;
    for (int id : cand)
      if (st_.at(id).remaining() == 0) return false;
    // Signs must agree (group-uniform reversal).
    if (choices.at(fuse.front()).sign != choices.at(cand.front()).sign)
      return false;
    // (1) legality precondition + no fusion-preventing third-party path.
    {
      std::vector<std::vector<int>> groups;
      groups.push_back(fuse);
      groups.push_back(cand);
      for (const auto& g : pool)
        if (&g != &cand) groups.push_back(g);
      for (const auto& g : done) groups.push_back(g);
      if (pathThroughOthers(groups, 0, 1) || pathThroughOthers(groups, 1, 0))
        return false;
    }
    if (opt_.fusion == FusionHeuristic::DlModel) {
      // (2) constant reuse distance on a shared array.
      if (!reuseSignatureMatch(fuse, cand, choices, 0)) return false;
      // (3) DL fusion profitability.
      if (!dlProfitable(fuse, cand)) return false;
    } else if (opt_.fusion == FusionHeuristic::SmartShared) {
      if (!shareArray(fuse, cand)) return false;
    }
    // (4) a legal retiming for the merged group exists.
    std::vector<int> merged = fuse;
    merged.insert(merged.end(), cand.begin(), cand.end());
    std::map<int, std::size_t> iters;
    for (int id : merged) iters[id] = choices.at(id).iter;
    auto shifts = solveShifts(merged, iters, choices.at(fuse.front()).sign);
    if (!shifts) return false;
    {
      GroupChoice shifted;
      for (int id : merged) {
        shifted[id] = choices.at(id);
        shifted[id].shift = shifts->at(id);
      }
      if (!boundsCompatible(merged, shifted)) return false;
    }
    if (opt_.fusion == FusionHeuristic::DlModel) {
      // (5) fusion must not kill outermost parallelism.
      GroupChoice fc, cc, mc;
      for (int id : fuse) fc[id] = choices.at(id);
      for (int id : cand) cc[id] = choices.at(id);
      for (int id : merged) {
        mc[id] = choices.at(id);
        mc[id].shift = shifts->at(id);
      }
      if (groupParallel(fuse, fc) && groupParallel(cand, cc) &&
          !groupParallel(merged, mc))
        return false;
    }
    return true;
  }

  bool isSingleScc(const std::vector<int>& group,
                   const std::vector<std::vector<int>>& sccs) const {
    for (const auto& scc : sccs) {
      if (scc.size() != group.size()) continue;
      std::vector<int> a = scc, b = group;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a == b) return true;
    }
    return false;
  }

  /// Kahn topological order of the groups under active dependences,
  /// preserving original textual order among unrelated groups.
  std::optional<std::vector<std::size_t>> topoOrder(
      const std::vector<std::vector<int>>& groups) {
    std::size_t n = groups.size();
    std::vector<std::set<std::size_t>> succ(n);
    std::vector<std::size_t> indeg(n, 0);
    auto groupOf = [&](int id) -> std::size_t {
      for (std::size_t g = 0; g < n; ++g)
        if (inSet(id, groups[g])) return g;
      return n;
    };
    for (auto& a : deps_) {
      if (a.satisfied) continue;
      std::size_t gs = groupOf(dep(a).srcId);
      std::size_t gd = groupOf(dep(a).dstId);
      if (gs >= n || gd >= n || gs == gd) continue;
      if (succ[gs].insert(gd).second) indeg[gd]++;
    }
    // Stable Kahn: among ready groups pick the one whose first statement
    // is textually earliest.
    auto textKey = [&](std::size_t g) {
      int best = groups[g].empty() ? 1 << 30 : groups[g].front();
      for (int id : groups[g]) best = std::min(best, id);
      return best;
    };
    std::vector<std::size_t> order;
    std::vector<bool> doneFlag(n, false);
    for (std::size_t step = 0; step < n; ++step) {
      std::size_t pick = n;
      for (std::size_t g = 0; g < n; ++g) {
        if (doneFlag[g] || indeg[g] != 0) continue;
        if (pick == n || textKey(g) < textKey(pick)) pick = g;
      }
      if (pick >= n) return std::nullopt;  // cycle between groups
      doneFlag[pick] = true;
      order.push_back(pick);
      for (std::size_t s2 : succ[pick]) indeg[s2]--;
    }
    return order;
  }

  const Scop& scop_;
  AffineOptions opt_;
  const PoDG& podg_;
  std::map<int, StmtState> st_;
  std::vector<ActiveDep> deps_;
};

}  // namespace

poly::ScheduleMap computeAffineTransform(const poly::Scop& scop,
                                         const AffineOptions& options) {
  return computeAffineTransform(scop, poly::computeDependences(scop), options);
}

poly::ScheduleMap computeAffineTransform(const poly::Scop& scop,
                                         const poly::PoDG& podg,
                                         const AffineOptions& options) {
  return AffineScheduler(scop, podg, options).run();
}

}  // namespace polyast::transform
