// Integer-set substrate: conjunctions of affine constraints over named
// integer variables, with Fourier–Motzkin elimination.
//
// This is the from-scratch replacement for the ISL/PipLib machinery the
// paper's implementation relies on. It supports exactly the operations the
// dependence analysis (Sec. III-A) and legality tests (Sec. III-C) need:
//
//   * emptiness testing (rational relaxation — conservative in the safe
//     direction: a set reported non-empty may still be integer-empty, so a
//     dependence is never missed),
//   * projection onto a subset of the variables,
//   * min/max bounds of an affine expression over the set,
//   * exhaustive integer-point enumeration for bounded sets (the oracle
//     used by the property tests).
//
// Sets are small here (tens of variables at most), so the classic FM
// algorithm with gcd normalization and syntactic redundancy pruning is
// entirely adequate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace polyast {

/// One affine constraint: sum_i coeffs[i]*x_i + constant (>= or ==) 0.
struct Constraint {
  std::vector<std::int64_t> coeffs;
  std::int64_t constant = 0;
  bool isEquality = false;

  std::string str(const std::vector<std::string>& names) const;
};

/// An affine expression sum_i coeffs[i]*x_i + constant over a set's space.
struct LinExpr {
  std::vector<std::int64_t> coeffs;
  std::int64_t constant = 0;

  static LinExpr var(std::size_t index, std::size_t numVars);
  static LinExpr constantExpr(std::int64_t c, std::size_t numVars);
  LinExpr operator-(const LinExpr& o) const;
  LinExpr operator+(const LinExpr& o) const;
  bool operator==(const LinExpr& o) const = default;
};

class IntSet {
 public:
  IntSet() = default;
  explicit IntSet(std::vector<std::string> varNames);

  std::size_t numVars() const { return names_.size(); }
  const std::vector<std::string>& varNames() const { return names_; }
  const std::vector<Constraint>& constraints() const { return cs_; }

  /// Adds sum coeffs[i]*x_i + constant >= 0.
  void addInequality(std::vector<std::int64_t> coeffs, std::int64_t constant);
  /// Adds sum coeffs[i]*x_i + constant == 0.
  void addEquality(std::vector<std::int64_t> coeffs, std::int64_t constant);
  /// Adds lo <= x_var <= hi.
  void addBounds(std::size_t var, std::int64_t lo, std::int64_t hi);
  void addConstraint(Constraint c);

  /// True if the set has no rational point (hence no integer point).
  /// This is the conservative emptiness test used for dependence existence.
  /// Memoized: the answer is kept inside the set until the next
  /// addConstraint, and a copy of the set keeps it.
  bool isEmpty() const;

  /// True if the given point satisfies every constraint.
  bool contains(const std::vector<std::int64_t>& point) const;

  /// Existentially projects away every variable NOT in `keep`, preserving
  /// the order of the kept variables. Rational projection (sound
  /// over-approximation of the integer projection).
  IntSet project(const std::vector<std::size_t>& keep) const;

  /// Minimum / maximum of an affine expression over the set, if the set is
  /// non-empty and the expression is bounded in that direction. Bounds are
  /// rational-relaxation bounds rounded toward the feasible region (ceil for
  /// min, floor for max), which is exact whenever the optimum is attained at
  /// integer points (true for all the loop-bound systems we build).
  /// minOf is memoized per expression like isEmpty; maxOf(e) is
  /// minOf(-e), so it shares that memo.
  std::optional<std::int64_t> minOf(const LinExpr& e) const;
  std::optional<std::int64_t> maxOf(const LinExpr& e) const;

  /// Enumerates all integer points (requires every variable bounded).
  /// Callback may return false to stop early; enumerate returns false in
  /// that case. Intended for tests / small oracle computations only.
  bool enumerate(
      const std::function<bool(const std::vector<std::int64_t>&)>& fn) const;

  /// Number of integer points (requires bounded set; test-scale sizes).
  std::int64_t countPoints() const;

  std::string str() const;

 private:
  /// FM-eliminates variable `var`, returning the projected constraint list
  /// over the remaining variables (same indices, column removed).
  static std::vector<Constraint> eliminate(std::vector<Constraint> cs,
                                           std::size_t var);
  static void normalize(Constraint& c);
  /// The uncached queries behind isEmpty / minOf.
  bool emptyByFm() const;
  std::optional<std::int64_t> minByFm(const LinExpr& e) const;
  static std::vector<Constraint> prune(std::vector<Constraint> cs);

  std::vector<std::string> names_;
  std::vector<Constraint> cs_;
  // Answers already computed for exactly cs_. The const queries write
  // them, so one set must not be queried from two threads at once.
  mutable std::optional<bool> emptyMemo_;
  mutable std::vector<std::pair<LinExpr, std::optional<std::int64_t>>>
      minMemo_;
};

}  // namespace polyast
