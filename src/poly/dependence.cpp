#include "poly/dependence.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace polyast::poly {

namespace selfprof = obs::selfprof;

using ir::AffExpr;

std::string depKindName(DepKind k) {
  switch (k) {
    case DepKind::Flow: return "flow";
    case DepKind::Anti: return "anti";
    case DepKind::Output: return "output";
    case DepKind::Input: return "input";
  }
  return "?";
}

std::string reductionClassName(ReductionClass c) {
  switch (c) {
    case ReductionClass::None: return "none";
    case ReductionClass::Unproven: return "unproven";
    case ReductionClass::Relaxable: return "relaxable";
  }
  return "?";
}

std::vector<std::size_t> PoDG::edgesBetween(int srcId, int dstId) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < deps.size(); ++i)
    if (deps[i].srcId == srcId && deps[i].dstId == dstId) out.push_back(i);
  return out;
}

namespace {

/// Builds the joint space names [src iters, dst iters, src exists,
/// dst exists, params]; source iterators are primed when both statements
/// share names. Parameters stay last so every consumer's
/// `paramBase = jointSize - params.size()` convention holds.
std::vector<std::string> jointNames(const Scop& scop, const PolyStmt& src,
                                    const PolyStmt& dst) {
  std::vector<std::string> names;
  for (const auto& it : src.iters) names.push_back(it + "@s");
  for (const auto& it : dst.iters) names.push_back(it + "@d");
  const auto& srcNames = src.domain.varNames();
  const auto& dstNames = dst.domain.varNames();
  for (std::size_t e = 0; e < src.numExists; ++e)
    names.push_back(srcNames[srcNames.size() - src.numExists + e] + "@s");
  for (std::size_t e = 0; e < dst.numExists; ++e)
    names.push_back(dstNames[dstNames.size() - dst.numExists + e] + "@d");
  for (const auto& p : scop.params) names.push_back(p);
  return names;
}

/// Maps an AffExpr over one statement's [iters, params] to a joint-space
/// constraint row; `offset` positions the statement's iterators.
std::vector<std::int64_t> toJointRow(const AffExpr& e,
                                     const std::vector<std::string>& iters,
                                     std::size_t offset,
                                     const Scop& scop,
                                     std::size_t jointSize,
                                     std::int64_t* constant) {
  std::vector<std::int64_t> row(jointSize, 0);
  std::size_t paramBase = jointSize - scop.params.size();
  for (const auto& [name, coeff] : e.coeffs()) {
    auto it = std::find(iters.begin(), iters.end(), name);
    if (it != iters.end()) {
      row[offset + static_cast<std::size_t>(it - iters.begin())] = coeff;
      continue;
    }
    auto pt = std::find(scop.params.begin(), scop.params.end(), name);
    POLYAST_CHECK(pt != scop.params.end(),
                  "non-affine name in access/domain: " + name);
    row[paramBase + static_cast<std::size_t>(pt - scop.params.begin())] =
        coeff;
  }
  *constant = e.constant();
  return row;
}

/// Copies a statement's domain constraints (over [iters, params, exists])
/// into the joint space; `offset` positions the iterators and `existOffset`
/// the statement's existential stride columns.
void addDomain(IntSet& set, const PolyStmt& ps, std::size_t offset,
               std::size_t existOffset, const Scop& scop) {
  std::size_t n = set.numVars();
  std::size_t paramBase = n - scop.params.size();
  for (const auto& c : ps.domain.constraints()) {
    std::vector<std::int64_t> row(n, 0);
    for (std::size_t i = 0; i < ps.iters.size(); ++i)
      row[offset + i] = c.coeffs[i];
    for (std::size_t p = 0; p < scop.params.size(); ++p)
      row[paramBase + p] = c.coeffs[ps.iters.size() + p];
    for (std::size_t e = 0; e < ps.numExists; ++e)
      row[existOffset + e] =
          c.coeffs[ps.iters.size() + scop.params.size() + e];
    Constraint out;
    out.coeffs = std::move(row);
    out.constant = c.constant;
    out.isEquality = c.isEquality;
    set.addConstraint(std::move(out));
  }
}

DepKind classify(bool srcWrite, bool dstWrite) {
  if (srcWrite && dstWrite) return DepKind::Output;
  if (srcWrite) return DepKind::Flow;
  if (dstWrite) return DepKind::Anti;
  return DepKind::Input;
}

std::string assignOpToken(ir::AssignOp op) {
  switch (op) {
    case ir::AssignOp::Set: return "=";
    case ir::AssignOp::AddAssign: return "+=";
    case ir::AssignOp::SubAssign: return "-=";
    case ir::AssignOp::MulAssign: return "*=";
    case ir::AssignOp::DivAssign: return "/=";
  }
  return "?";
}

}  // namespace

ReductionClass classifySelfAccumulation(const Scop& scop, const PolyStmt& ps,
                                        std::size_t level, std::string* op,
                                        std::string* why) {
  const ir::Stmt& s = *ps.stmt;
  *op = assignOpToken(s.op);
  // (1) Operator whitelist: only += / -= are associative and commutative
  // over the accumulator (a -= x is a += (-x)). The syntactic flag alone is
  // not trusted -- a mutated/corrupted flag must not unlock relaxation.
  if (s.op != ir::AssignOp::AddAssign && s.op != ir::AssignOp::SubAssign) {
    *why = "operator '" + *op + "' is not in the associative/commutative " +
           "whitelist (+=, -=)";
    return ReductionClass::Unproven;
  }
  // (2) Single read-modify-write of one cell: the statement's only
  // accesses to the accumulator array are the lhs write plus the one
  // implicit read-modify-write read of the same cell. An extra rhs read —
  // even of the same cell, as in `a += a*x` — makes the contribution
  // depend on the running value, so reordering is no longer a pure
  // reassociation.
  std::size_t accWrites = 0;
  std::size_t accReads = 0;
  for (const auto& acc : ps.accesses) {
    if (acc.array != s.lhsArray) continue;
    acc.isWrite ? ++accWrites : ++accReads;
    if (acc.subs != s.lhsSubs) {
      *why = "statement touches more than one cell of '" + s.lhsArray + "'";
      return ReductionClass::Unproven;
    }
  }
  if (accWrites != 1 || accReads != 1) {
    *why = "statement is not a single read-modify-write of '" + s.lhsArray +
           "' (" + std::to_string(accWrites) + " write(s), " +
           std::to_string(accReads) + " read(s))";
    return ReductionClass::Unproven;
  }
  // (3) No intervening may-alias write: no other statement nested inside
  // the carrying loop writes the accumulator array — otherwise reordering
  // the accumulation instances could move them across that write.
  // Exception: another pure additive accumulation (+= / -=) into the same
  // array is jointly reassociable with this one (contributions commute and
  // every cross edge between the two statements is retained), so unrolled
  // copies of the update keep their proof on the transformed program.
  // Subscript disambiguation is deliberately not attempted here
  // (may-alias).
  if (level >= 1 && level <= ps.loops.size()) {
    const ir::Loop* carrier = ps.loops[level - 1].get();
    for (const auto& other : scop.stmts) {
      if (other.stmt->id == s.id) continue;
      if (other.stmt->op == ir::AssignOp::AddAssign ||
          other.stmt->op == ir::AssignOp::SubAssign)
        continue;
      bool inside = false;
      for (const auto& l : other.loops)
        if (l.get() == carrier) inside = true;
      if (!inside) continue;
      for (const auto& acc : other.accesses) {
        if (acc.isWrite && acc.array == s.lhsArray) {
          *why = "intervening may-alias write of '" + s.lhsArray + "' by " +
                 other.stmt->label + std::to_string(other.stmt->id) +
                 " inside the carrying loop " + carrier->iter;
          return ReductionClass::Unproven;
        }
      }
    }
  }
  *why = "pure self-accumulation '" + s.lhsArray + " " + *op +
         " ...': single-cell read-modify-write, no intervening writes " +
         "inside carrying loop" +
         (level >= 1 && level <= ps.loops.size()
              ? " " + ps.loops[level - 1]->iter
              : "");
  return ReductionClass::Relaxable;
}

IntSet jointPairSpace(const Scop& scop, const PolyStmt& src,
                      const PolyStmt& dst) {
  IntSet set(jointNames(scop, src, dst));
  std::size_t srcOff = 0;
  std::size_t dstOff = src.iters.size();
  std::size_t srcExOff = src.iters.size() + dst.iters.size();
  std::size_t dstExOff = srcExOff + src.numExists;
  addDomain(set, src, srcOff, srcExOff, scop);
  addDomain(set, dst, dstOff, dstExOff, scop);
  return set;
}

PoDG computeDependences(const Scop& scop, bool includeInput) {
  // Dependence-test outcome counters: every candidate polyhedron is an
  // emptiness test; "proven" edges survive, "disproven" candidates are
  // discarded. The rational relaxation can only over-approximate, so
  // proven counts bound the real dependences from above.
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& tested = reg.counter("poly.dep.tested");
  static obs::Counter& proven = reg.counter("poly.dep.proven");
  static obs::Counter& disproven = reg.counter("poly.dep.disproven");
  static obs::Counter& reductions = reg.counter("poly.dep.reduction_edges");
  static obs::Counter& relaxableEdges =
      reg.counter("poly.dep.relaxable_edges");
  obs::Span span("poly.dependences", "poly");
  std::int64_t testedHere = 0, provenHere = 0;
  PoDG podg;
  for (const auto& src : scop.stmts) {
    for (const auto& dst : scop.stmts) {
      std::size_t cl = scop.commonLoops(src, dst);
      bool sameStmt = src.stmt->id == dst.stmt->id;
      // Textual order decides whether a loop-independent edge src->dst can
      // exist; for carried levels any pair qualifies.
      bool srcBefore = !sameStmt && scop.textuallyBefore(src, dst);
      for (std::size_t ai = 0; ai < src.accesses.size(); ++ai) {
        const auto& a = src.accesses[ai];
        for (std::size_t bi = 0; bi < dst.accesses.size(); ++bi) {
          const auto& b = dst.accesses[bi];
          if (a.array != b.array) continue;
          if (!a.isWrite && !b.isWrite && !includeInput) continue;
          if (a.subs.size() != b.subs.size()) continue;  // scalar vs array
          DepKind kind = classify(a.isWrite, b.isWrite);

          // Levels: 1..cl carried, plus 0 (loop-independent) when src is
          // textually before dst.
          for (std::size_t level = srcBefore ? 0u : 1u; level <= cl;
               ++level) {
            IntSet set = jointPairSpace(scop, src, dst);
            std::size_t srcOff = 0;
            std::size_t dstOff = src.iters.size();
            // Subscript equalities f_src(x_s) = f_dst(x_d).
            for (std::size_t s = 0; s < a.subs.size(); ++s) {
              std::int64_t c1 = 0, c2 = 0;
              auto r1 = toJointRow(a.subs[s], src.iters, srcOff, scop,
                                   set.numVars(), &c1);
              auto r2 = toJointRow(b.subs[s], dst.iters, dstOff, scop,
                                   set.numVars(), &c2);
              for (std::size_t i = 0; i < r1.size(); ++i) r1[i] -= r2[i];
              set.addEquality(std::move(r1), c1 - c2);
            }
            // Ordering constraints for this level.
            std::size_t eqPrefix = level == 0 ? cl : level - 1;
            for (std::size_t k = 0; k < eqPrefix; ++k) {
              std::vector<std::int64_t> row(set.numVars(), 0);
              row[srcOff + k] = 1;
              row[dstOff + k] = -1;
              set.addEquality(std::move(row), 0);
            }
            if (level >= 1) {
              // x_d[level-1] - x_s[level-1] >= 1
              std::vector<std::int64_t> row(set.numVars(), 0);
              row[srcOff + level - 1] = -1;
              row[dstOff + level - 1] = 1;
              set.addInequality(std::move(row), -1);
            }
            ++testedHere;
            tested.add();
            // Self-profiling extends the poly.dep.* outcome counters with
            // cost: every kSampleEvery-th emptiness test is wall-timed so
            // average per-test cost is recoverable from the profile
            // artifact without two clock reads per test.
            selfprof::count(selfprof::Op::DepTests);
            bool empty;
            if (selfprof::sampleTick()) {
              std::int64_t t0 = selfprof::nowNs();
              empty = set.isEmpty();
              selfprof::count(selfprof::Op::DepSampledNs,
                              selfprof::nowNs() - t0);
              selfprof::count(selfprof::Op::DepSampledTests);
            } else {
              empty = set.isEmpty();
            }
            if (empty) {
              disproven.add();
              selfprof::count(selfprof::Op::DepDisproven);
              continue;
            }
            proven.add();
            selfprof::count(selfprof::Op::DepProven);
            ++provenHere;

            Dependence dep;
            dep.srcId = src.stmt->id;
            dep.dstId = dst.stmt->id;
            dep.kind = kind;
            dep.array = a.array;
            dep.level = level;
            dep.srcDim = src.iters.size();
            dep.dstDim = dst.iters.size();
            dep.srcAcc = ai;
            dep.dstAcc = bi;
            dep.poly = std::move(set);
            // Accumulation edges get the checked classification: the
            // syntactic flag only nominates the edge, the static purity
            // proof decides whether relaxation may ever drop it.
            if (sameStmt && src.stmt->isReductionUpdate &&
                a.array == src.stmt->lhsArray &&
                b.array == src.stmt->lhsArray) {
              dep.reduction = classifySelfAccumulation(
                  scop, src, level, &dep.reductionOp, &dep.reductionWhy);
              reductions.add();
              if (dep.reduction == ReductionClass::Relaxable)
                relaxableEdges.add();
            }
            podg.deps.push_back(std::move(dep));
          }
        }
      }
    }
  }
  span.attr("tested", testedHere);
  span.attr("proven", provenHere);
  span.attr("stmts", static_cast<std::int64_t>(scop.stmts.size()));
  return podg;
}

DependenceAnalysis analyzeDependences(const ir::Program& program,
                                      ScopOptions options) {
  DependenceAnalysis a;
  a.scop = extractScop(program, options);
  a.podg = computeDependences(a.scop);
  return a;
}

namespace {

/// DependenceCache's key: see the class comment for what it covers.
std::string structureKey(const ir::Program& program,
                         const ScopOptions& options) {
  std::ostringstream os;
  os << options.paramMin;
  for (const auto& p : program.params) os << ',' << p;
  std::function<void(const ir::NodePtr&)> walk = [&](const ir::NodePtr& n) {
    switch (n->kind) {
      case ir::Node::Kind::Block:
        os << '{';
        for (const auto& c : std::static_pointer_cast<ir::Block>(n)->children)
          walk(c);
        os << '}';
        break;
      case ir::Node::Kind::Loop: {
        const auto& l = static_cast<const ir::Loop&>(*n);
        os << "L" << &l << ' ' << l.iter << '=' << l.lower.str(true) << ':'
           << l.upper.str(false) << ':' << l.step;
        walk(l.body);
        break;
      }
      case ir::Node::Kind::Stmt: {
        const auto& st = static_cast<const ir::Stmt&>(*n);
        os << "S" << &st << ' ' << st.id << ' ' << st.label
           << (st.isReductionUpdate ? "r " : " ") << st.str();
        for (const auto& g : st.guards) os << '|' << g.str();
        os << ';';
        break;
      }
    }
  };
  walk(program.root);
  return os.str();
}

}  // namespace

const DependenceAnalysis& DependenceCache::get(const ir::Program& program,
                                               const ScopOptions& options) {
  std::string key = structureKey(program, options);
  if (!analysis_ || key != key_) {
    analysis_ = analyzeDependences(program, options);
    key_ = std::move(key);
  }
  // The key pins the nodes, not the Program object holding them.
  analysis_->scop.program = &program;
  return *analysis_;
}

void DependenceCache::clear() {
  analysis_.reset();
  key_.clear();
}

std::vector<std::vector<int>> stronglyConnectedComponents(
    const std::vector<int>& stmtIds, const PoDG& podg,
    const std::vector<bool>& edgeEnabled) {
  POLYAST_CHECK(edgeEnabled.size() == podg.deps.size(),
                "edgeEnabled size mismatch");
  std::map<int, std::vector<int>> adj;
  for (int id : stmtIds) adj[id];  // ensure vertex exists
  for (std::size_t i = 0; i < podg.deps.size(); ++i) {
    if (!edgeEnabled[i]) continue;
    const auto& d = podg.deps[i];
    if (!adj.count(d.srcId) || !adj.count(d.dstId)) continue;
    if (d.srcId != d.dstId) adj[d.srcId].push_back(d.dstId);
  }
  // Tarjan's algorithm (iterative enough at our sizes to use recursion).
  std::map<int, int> index, low;
  std::map<int, bool> onStack;
  std::vector<int> stack;
  int counter = 0;
  std::vector<std::vector<int>> sccs;
  std::function<void(int)> strongConnect = [&](int v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    onStack[v] = true;
    for (int w : adj[v]) {
      if (!index.count(w)) {
        strongConnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (onStack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      std::vector<int> comp;
      int w;
      do {
        w = stack.back();
        stack.pop_back();
        onStack[w] = false;
        comp.push_back(w);
      } while (w != v);
      std::sort(comp.begin(), comp.end());
      sccs.push_back(std::move(comp));
    }
  };
  for (int id : stmtIds)
    if (!index.count(id)) strongConnect(id);
  // Tarjan emits components in reverse topological order; flip so sources
  // come first.
  std::reverse(sccs.begin(), sccs.end());
  return sccs;
}

std::string DepVectorElem::str() const {
  if (isExact()) return std::to_string(*min);
  std::string lo = min ? std::to_string(*min) : "-inf";
  std::string hi = max ? std::to_string(*max) : "+inf";
  return "[" + lo + "," + hi + "]";
}

std::vector<DepVector> dependenceVectors(const Scop& scop, const PoDG& podg) {
  // Summarization fallbacks: elements the polyhedron cannot bound become
  // [-inf,+inf]-style entries, forcing the AST stage to assume the worst.
  static obs::Counter& vectors =
      obs::Registry::global().counter("poly.depvec.vectors");
  static obs::Counter& unbounded =
      obs::Registry::global().counter("poly.depvec.unbounded_elems");
  std::vector<DepVector> out;
  for (const auto& dep : podg.deps) {
    const auto& src = scop.byId(dep.srcId);
    const auto& dst = scop.byId(dep.dstId);
    std::size_t cl = scop.commonLoops(src, dst);
    DepVector v;
    v.srcId = dep.srcId;
    v.dstId = dep.dstId;
    v.kind = dep.kind;
    v.reduction = dep.reduction;
    std::size_t n = dep.poly.numVars();
    for (std::size_t k = 0; k < cl; ++k) {
      LinExpr diff = LinExpr::var(dep.srcDim + k, n) - LinExpr::var(k, n);
      DepVectorElem e;
      e.min = dep.poly.minOf(diff);
      e.max = dep.poly.maxOf(diff);
      if (!e.min || !e.max) unbounded.add();
      v.elems.push_back(e);
    }
    vectors.add();
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace polyast::poly
