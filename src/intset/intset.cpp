#include "intset/intset.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "obs/selfprof.hpp"
#include "support/error.hpp"
#include "support/rational.hpp"

namespace polyast {

namespace selfprof = obs::selfprof;

namespace {

/// Sentinel for "this system is infeasible": 0 >= -1 is fine, 0 >= 1 is not.
bool isTriviallyFalse(const Constraint& c) {
  for (std::int64_t v : c.coeffs)
    if (v != 0) return false;
  return c.isEquality ? c.constant != 0 : c.constant < 0;
}

bool isTriviallyTrue(const Constraint& c) {
  for (std::int64_t v : c.coeffs)
    if (v != 0) return false;
  return c.isEquality ? c.constant == 0 : c.constant >= 0;
}

/// Fourier–Motzkin can square the system per eliminated variable; past
/// this size callers bail out in their conservative direction ("maybe
/// nonempty" / "no finite bound").
constexpr std::size_t kFmConstraintCap = 2048;

/// Picks the next elimination variable among columns [0, numCols). First
/// choice: a variable carried by a unit-coefficient equality — Gaussian
/// substitution on it is integer-exact, so gcd infeasibilities in the
/// remaining equalities (e.g. stride parities) stay detectable. Otherwise
/// greedily minimizes the FM blowup |lowers| * |uppers| (the scaled
/// substitution used for non-unit equalities is linear, so those count as
/// the system size). Returns false when the system is already over the
/// cap or even the cheapest choice would blow past it.
bool chooseFmVar(const std::vector<Constraint>& cs, std::size_t numCols,
                 std::size_t* var) {
  if (cs.size() > kFmConstraintCap) return false;
  for (const auto& c : cs) {
    if (!c.isEquality) continue;
    for (std::size_t v = 0; v < numCols; ++v) {
      if (c.coeffs[v] == 1 || c.coeffs[v] == -1) {
        *var = v;
        return true;
      }
    }
  }
  std::size_t bestCost = std::numeric_limits<std::size_t>::max();
  *var = 0;
  for (std::size_t v = 0; v < numCols; ++v) {
    std::size_t lowers = 0, uppers = 0;
    bool hasEq = false;
    for (const auto& c : cs) {
      if (c.coeffs[v] == 0) continue;
      if (c.isEquality) hasEq = true;
      else if (c.coeffs[v] > 0) ++lowers;
      else ++uppers;
    }
    std::size_t cost = hasEq ? cs.size() : lowers * uppers;
    if (cost < bestCost) {
      bestCost = cost;
      *var = v;
    }
  }
  return bestCost <= kFmConstraintCap * 16;
}

}  // namespace

std::string Constraint::str(const std::vector<std::string>& names) const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    std::int64_t c = coeffs[i];
    if (!first) os << (c > 0 ? " + " : " - ");
    else if (c < 0) os << "-";
    first = false;
    std::int64_t a = c < 0 ? -c : c;
    if (a != 1) os << a << "*";
    os << (i < names.size() ? names[i] : "x" + std::to_string(i));
  }
  if (first) os << "0";
  if (constant > 0) os << " + " << constant;
  if (constant < 0) os << " - " << -constant;
  os << (isEquality ? " == 0" : " >= 0");
  return os.str();
}

LinExpr LinExpr::var(std::size_t index, std::size_t numVars) {
  LinExpr e;
  e.coeffs.assign(numVars, 0);
  POLYAST_CHECK(index < numVars, "LinExpr::var index out of range");
  e.coeffs[index] = 1;
  return e;
}

LinExpr LinExpr::constantExpr(std::int64_t c, std::size_t numVars) {
  LinExpr e;
  e.coeffs.assign(numVars, 0);
  e.constant = c;
  return e;
}

LinExpr LinExpr::operator-(const LinExpr& o) const {
  POLYAST_CHECK(coeffs.size() == o.coeffs.size(), "LinExpr space mismatch");
  LinExpr e = *this;
  for (std::size_t i = 0; i < coeffs.size(); ++i) e.coeffs[i] -= o.coeffs[i];
  e.constant -= o.constant;
  return e;
}

LinExpr LinExpr::operator+(const LinExpr& o) const {
  POLYAST_CHECK(coeffs.size() == o.coeffs.size(), "LinExpr space mismatch");
  LinExpr e = *this;
  for (std::size_t i = 0; i < coeffs.size(); ++i) e.coeffs[i] += o.coeffs[i];
  e.constant += o.constant;
  return e;
}

IntSet::IntSet(std::vector<std::string> varNames)
    : names_(std::move(varNames)) {}

void IntSet::addInequality(std::vector<std::int64_t> coeffs,
                           std::int64_t constant) {
  POLYAST_CHECK(coeffs.size() == numVars(), "constraint dimension mismatch");
  addConstraint({std::move(coeffs), constant, /*isEquality=*/false});
}

void IntSet::addEquality(std::vector<std::int64_t> coeffs,
                         std::int64_t constant) {
  POLYAST_CHECK(coeffs.size() == numVars(), "constraint dimension mismatch");
  addConstraint({std::move(coeffs), constant, /*isEquality=*/true});
}

void IntSet::addBounds(std::size_t var, std::int64_t lo, std::int64_t hi) {
  POLYAST_CHECK(var < numVars(), "addBounds var out of range");
  std::vector<std::int64_t> c(numVars(), 0);
  c[var] = 1;
  addInequality(c, -lo);  // x - lo >= 0
  c[var] = -1;
  addInequality(std::move(c), hi);  // hi - x >= 0
}

void IntSet::addConstraint(Constraint c) {
  POLYAST_CHECK(c.coeffs.size() == numVars(), "constraint dimension mismatch");
  normalize(c);
  cs_.push_back(std::move(c));
  emptyMemo_.reset();
  minMemo_.clear();
}

void IntSet::normalize(Constraint& c) {
  std::int64_t g = 0;
  for (std::int64_t v : c.coeffs) g = gcd64(g, v);
  if (g == 0) return;  // pure constant constraint; leave as-is
  if (c.isEquality) {
    if (c.constant % g != 0) {
      // No integer (indeed no rational scaled) solution: mark infeasible.
      for (auto& v : c.coeffs) v = 0;
      c.constant = 1;  // 1 == 0 is false
      return;
    }
    c.constant /= g;
  } else {
    // Integer tightening: sum(c/g)x >= ceil(-constant/g)  i.e. constant' =
    // floor(constant/g).
    c.constant = floorDiv(c.constant, g);
  }
  for (auto& v : c.coeffs) v /= g;
}

std::vector<Constraint> IntSet::prune(std::vector<Constraint> cs) {
  std::vector<Constraint> out;
  for (auto& c : cs) {
    if (isTriviallyTrue(c)) continue;
    if (isTriviallyFalse(c)) return {c};  // whole system infeasible
    out.push_back(std::move(c));
  }
  // Syntactic dedup, and keep only the tightest constant per coefficient
  // vector (for inequalities, larger constant is looser: a.x + c >= 0 with
  // smaller c implies the one with larger c).
  std::map<std::pair<std::vector<std::int64_t>, bool>, std::int64_t> best;
  cs = std::move(out);
  out.clear();
  for (const auto& c : cs) {
    auto key = std::make_pair(c.coeffs, c.isEquality);
    auto it = best.find(key);
    if (it == best.end()) {
      best.emplace(key, c.constant);
    } else if (!c.isEquality) {
      it->second = std::min(it->second, c.constant);
    } else if (it->second != c.constant) {
      // Two equalities a.x + c1 == 0 and a.x + c2 == 0 with c1 != c2.
      Constraint f;
      f.coeffs.assign(c.coeffs.size(), 0);
      f.constant = 1;
      f.isEquality = true;
      return {f};
    }
  }
  for (auto& [key, constant] : best) {
    Constraint c;
    c.coeffs = key.first;
    c.isEquality = key.second;
    c.constant = constant;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Constraint> IntSet::eliminate(std::vector<Constraint> cs,
                                          std::size_t var) {
  // Self-profiling: one elimination, cs.size() rows in; the matching
  // constraints_out is counted at each exit below (post-prune).
  selfprof::count(selfprof::Op::FmEliminations);
  selfprof::count(selfprof::Op::FmConstraintsIn,
                  static_cast<std::int64_t>(cs.size()));
  // Prefer Gaussian substitution when an equality involves `var`.
  std::size_t eqIdx = cs.size();
  std::int64_t bestAbs = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!cs[i].isEquality || cs[i].coeffs[var] == 0) continue;
    std::int64_t a = std::abs(cs[i].coeffs[var]);
    if (eqIdx == cs.size() || a < bestAbs) {
      eqIdx = i;
      bestAbs = a;
    }
  }
  std::vector<Constraint> out;
  auto dropColumn = [var](Constraint& c) {
    c.coeffs.erase(c.coeffs.begin() + static_cast<std::ptrdiff_t>(var));
  };
  if (eqIdx != cs.size()) {
    Constraint eq = cs[eqIdx];
    std::int64_t a = eq.coeffs[var];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i == eqIdx) continue;
      Constraint c = cs[i];
      std::int64_t d = c.coeffs[var];
      if (d != 0) {
        // Scale c by |a| (positive, preserves direction) and cancel var
        // with a multiple of the equality.
        std::int64_t scale = std::abs(a);
        std::int64_t mult = (a > 0) ? -d : d;
        for (std::size_t j = 0; j < c.coeffs.size(); ++j)
          c.coeffs[j] = checkedAdd(checkedMul(c.coeffs[j], scale),
                                   checkedMul(eq.coeffs[j], mult));
        c.constant = checkedAdd(checkedMul(c.constant, scale),
                                checkedMul(eq.constant, mult));
      }
      normalize(c);
      dropColumn(c);
      out.push_back(std::move(c));
    }
    out = prune(out);
    selfprof::count(selfprof::Op::FmConstraintsOut,
                    static_cast<std::int64_t>(out.size()));
    return out;
  }
  // Classic Fourier–Motzkin on inequalities.
  std::vector<Constraint> lowers, uppers;
  for (auto& c : cs) {
    std::int64_t d = c.coeffs[var];
    if (d == 0) {
      dropColumn(c);
      out.push_back(std::move(c));
    } else if (d > 0) {
      lowers.push_back(std::move(c));  // d*var >= -(rest)
    } else {
      uppers.push_back(std::move(c));  // (-d)*var <= rest
    }
  }
  for (const auto& lo : lowers)
    for (const auto& up : uppers) {
      std::int64_t a = lo.coeffs[var];    // > 0
      std::int64_t b = -up.coeffs[var];   // > 0
      Constraint c;
      c.coeffs.resize(lo.coeffs.size());
      for (std::size_t j = 0; j < lo.coeffs.size(); ++j)
        c.coeffs[j] = checkedAdd(checkedMul(b, lo.coeffs[j]),
                                 checkedMul(a, up.coeffs[j]));
      c.constant = checkedAdd(checkedMul(b, lo.constant),
                              checkedMul(a, up.constant));
      c.isEquality = false;
      normalize(c);
      dropColumn(c);
      out.push_back(std::move(c));
    }
  out = prune(out);
  selfprof::count(selfprof::Op::FmConstraintsOut,
                  static_cast<std::int64_t>(out.size()));
  return out;
}

bool IntSet::isEmpty() const {
  if (!emptyMemo_) emptyMemo_ = emptyByFm();
  return *emptyMemo_;
}

bool IntSet::emptyByFm() const {
  selfprof::count(selfprof::Op::IntsetEmptyTests);
  std::vector<Constraint> cs = prune(cs_);
  for (std::size_t remaining = numVars(); remaining > 0; --remaining) {
    for (const auto& c : cs)
      if (isTriviallyFalse(c)) return true;
    // Cap hit: "maybe nonempty" is the conservative direction for every
    // caller (dependences are kept, analyses report at reduced severity).
    std::size_t var = 0;
    if (!chooseFmVar(cs, remaining, &var)) {
      selfprof::count(selfprof::Op::FmCapHits);
      return false;
    }
    cs = eliminate(std::move(cs), var);
  }
  for (const auto& c : cs)
    if (isTriviallyFalse(c)) return true;
  return false;
}

bool IntSet::contains(const std::vector<std::int64_t>& point) const {
  POLYAST_CHECK(point.size() == numVars(), "contains dimension mismatch");
  for (const auto& c : cs_) {
    std::int64_t v = c.constant;
    for (std::size_t i = 0; i < point.size(); ++i)
      v = checkedAdd(v, checkedMul(c.coeffs[i], point[i]));
    if (c.isEquality ? v != 0 : v < 0) return false;
  }
  return true;
}

IntSet IntSet::project(const std::vector<std::size_t>& keep) const {
  selfprof::count(selfprof::Op::IntsetProjects);
  std::vector<bool> keepMask(numVars(), false);
  for (std::size_t k : keep) {
    POLYAST_CHECK(k < numVars(), "project index out of range");
    keepMask[k] = true;
  }
  std::vector<Constraint> cs = prune(cs_);
  std::vector<std::string> names = names_;
  // Eliminate from the highest index down so earlier indices stay valid.
  for (std::size_t i = numVars(); i-- > 0;) {
    if (keepMask[i]) continue;
    cs = eliminate(std::move(cs), i);
    names.erase(names.begin() + static_cast<std::ptrdiff_t>(i));
  }
  // Restore the caller's requested order of kept variables.
  std::vector<std::size_t> keptSorted;
  for (std::size_t i = 0; i < numVars(); ++i)
    if (keepMask[i]) keptSorted.push_back(i);
  std::vector<std::size_t> order(keep.size());
  for (std::size_t j = 0; j < keep.size(); ++j) {
    auto it = std::find(keptSorted.begin(), keptSorted.end(), keep[j]);
    order[j] = static_cast<std::size_t>(it - keptSorted.begin());
  }
  IntSet out;
  out.names_.resize(keep.size());
  for (std::size_t j = 0; j < keep.size(); ++j)
    out.names_[j] = names[order[j]];
  for (auto& c : cs) {
    Constraint r;
    r.coeffs.resize(keep.size());
    for (std::size_t j = 0; j < keep.size(); ++j)
      r.coeffs[j] = c.coeffs[order[j]];
    r.constant = c.constant;
    r.isEquality = c.isEquality;
    out.cs_.push_back(std::move(r));
  }
  return out;
}

std::optional<std::int64_t> IntSet::minOf(const LinExpr& e) const {
  POLYAST_CHECK(e.coeffs.size() == numVars(), "minOf dimension mismatch");
  for (const auto& [expr, answer] : minMemo_)
    if (expr == e) return answer;
  std::optional<std::int64_t> answer = minByFm(e);
  minMemo_.emplace_back(e, answer);
  return answer;
}

std::optional<std::int64_t> IntSet::minByFm(const LinExpr& e) const {
  selfprof::count(selfprof::Op::IntsetBoundQueries);
  // Append t = e, eliminate every original variable, read bounds on t.
  std::vector<Constraint> cs;
  cs.reserve(cs_.size() + 1);
  for (const auto& c : cs_) {
    Constraint r = c;
    r.coeffs.push_back(0);
    cs.push_back(std::move(r));
  }
  Constraint def;
  def.coeffs.resize(numVars() + 1);
  for (std::size_t i = 0; i < numVars(); ++i) def.coeffs[i] = -e.coeffs[i];
  def.coeffs[numVars()] = 1;
  def.constant = -e.constant;
  def.isEquality = true;
  cs.push_back(std::move(def));
  for (std::size_t i = 0; i < numVars(); ++i) {
    for (const auto& c : cs)
      if (isTriviallyFalse(c)) return std::nullopt;  // empty set
    // The t column stays last throughout; eliminate among the others.
    // Cap hit: "no finite bound" is the conservative direction (callers
    // decline to conclude anything from an unbounded distance).
    std::size_t cols = numVars() - i;
    std::size_t var = 0;
    if (!chooseFmVar(cs, cols, &var)) {
      selfprof::count(selfprof::Op::FmCapHits);
      return std::nullopt;
    }
    cs = eliminate(std::move(cs), var);
  }
  std::optional<std::int64_t> lo, hi;
  for (const auto& c : cs) {
    if (isTriviallyFalse(c)) return std::nullopt;
    POLYAST_CHECK(c.coeffs.size() == 1, "unexpected residual space");
    std::int64_t a = c.coeffs[0];
    if (a == 0) continue;
    // a*t + const >= 0: lower bound for a > 0, upper bound for a < 0;
    // equalities contribute both.
    if (a > 0 || c.isEquality) {
      std::int64_t sa = a > 0 ? a : -a;
      std::int64_t num = a > 0 ? -c.constant : c.constant;
      std::int64_t bound = ceilDiv(num, sa);
      if (!lo || bound > *lo) lo = bound;
    }
    if (a < 0 || c.isEquality) {
      std::int64_t sa = a > 0 ? a : -a;
      std::int64_t num = a > 0 ? -c.constant : c.constant;
      std::int64_t bound = floorDiv(num, sa);
      if (!hi || bound < *hi) hi = bound;
    }
  }
  // Contradictory residual bounds mean the set was empty all along.
  if (lo && hi && *lo > *hi) return std::nullopt;
  return lo;
}

std::optional<std::int64_t> IntSet::maxOf(const LinExpr& e) const {
  LinExpr neg;
  neg.coeffs.resize(e.coeffs.size());
  for (std::size_t i = 0; i < e.coeffs.size(); ++i) neg.coeffs[i] = -e.coeffs[i];
  neg.constant = -e.constant;
  auto r = minOf(neg);
  if (!r) return std::nullopt;
  return -*r;
}

bool IntSet::enumerate(
    const std::function<bool(const std::vector<std::int64_t>&)>& fn) const {
  if (isEmpty()) return true;
  std::size_t n = numVars();
  std::vector<std::int64_t> lo(n), hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto mn = minOf(LinExpr::var(i, n));
    auto mx = maxOf(LinExpr::var(i, n));
    POLYAST_CHECK(mn && mx, "enumerate requires a bounded set");
    lo[i] = *mn;
    hi[i] = *mx;
  }
  // Constraints checkable once the first k variables are fixed.
  std::vector<std::vector<const Constraint*>> byDepth(n + 1);
  for (const auto& c : cs_) {
    std::size_t last = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (c.coeffs[i] != 0) last = i + 1;
    byDepth[last].push_back(&c);
  }
  std::vector<std::int64_t> point(n, 0);
  std::function<bool(std::size_t)> rec = [&](std::size_t depth) -> bool {
    if (depth == n) return fn(point);
    for (std::int64_t v = lo[depth]; v <= hi[depth]; ++v) {
      point[depth] = v;
      bool ok = true;
      for (const Constraint* c : byDepth[depth + 1]) {
        std::int64_t s = c->constant;
        for (std::size_t i = 0; i <= depth; ++i)
          s += c->coeffs[i] * point[i];
        if (c->isEquality ? s != 0 : s < 0) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (!rec(depth + 1)) return false;
    }
    return true;
  };
  return rec(0);
}

std::int64_t IntSet::countPoints() const {
  std::int64_t count = 0;
  enumerate([&](const std::vector<std::int64_t>&) {
    ++count;
    return true;
  });
  return count;
}

std::string IntSet::str() const {
  std::ostringstream os;
  os << "{ [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i) os << ", ";
    os << names_[i];
  }
  os << "] : ";
  for (std::size_t i = 0; i < cs_.size(); ++i) {
    if (i) os << " and ";
    os << cs_[i].str(names_);
  }
  if (cs_.empty()) os << "true";
  os << " }";
  return os.str();
}

}  // namespace polyast
