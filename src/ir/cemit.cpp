#include "ir/cemit.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace polyast::ir {

namespace {

/// Arrays whose names collide with C library identifiers at file scope
/// (math.h Bessel functions etc.) get an _arr suffix in the emitted code.
std::string cname(const std::string& name) {
  static const std::set<std::string> reserved = {
      "y0", "y1", "yn", "j0", "j1", "jn", "gamma", "div",  "exp",
      "log", "pow", "sin", "cos", "tan", "time",  "clock", "main",
      "kernel", "remainder", "index"};
  return reserved.count(name) ? name + "_arr" : name;
}

std::string cAff(const AffExpr& e) { return "(" + e.str() + ")"; }

std::string cBound(const Bound& b, bool isLower) {
  POLYAST_CHECK(!b.parts.empty(), "empty bound in C emission");
  std::string out = cAff(b.parts.back());
  for (std::size_t i = b.parts.size() - 1; i-- > 0;)
    out = std::string(isLower ? "POLYAST_MAX(" : "POLYAST_MIN(") +
          cAff(b.parts[i]) + ", " + out + ")";
  return out;
}

/// Shortest decimal literal that round-trips to exactly `v` — the
/// interpreter computes on the double the builder stored, so the native
/// backend must compile the identical value (plain operator<< truncates to
/// 6 significant digits, which breaks bit-exact differential runs).
std::string cFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string s = buf;
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find('n') == std::string::npos)  // inf/nan never appear in kernels
    s += ".0";
  return s;
}

std::string totalElems(const ArrayDecl& a) {
  std::string total = cAff(a.dims[0]);
  for (std::size_t d = 1; d < a.dims.size(); ++d)
    total += " * " + cAff(a.dims[d]);
  return total;
}

/// Whether any statement value expression uses Min / Max (they need the
/// std::min/std::max-equivalent helper functions in the TU preamble).
void scanMinMax(const ExprPtr& e, bool& usesMin, bool& usesMax) {
  if (!e) return;
  if (e->kind == Expr::Kind::Binary) {
    if (e->binOp == BinOp::Min) usesMin = true;
    if (e->binOp == BinOp::Max) usesMax = true;
  }
  scanMinMax(e->lhs, usesMin, usesMax);
  scanMinMax(e->rhs, usesMin, usesMax);
  scanMinMax(e->cond, usesMin, usesMax);
}

void programMinMax(const Program& p, bool& usesMin, bool& usesMax) {
  for (const auto& s : p.statements()) scanMinMax(s->rhs, usesMin, usesMax);
}

/// Emits the polyast_min/polyast_max helpers when the program needs them.
/// They replicate std::min/std::max (which the interpreter calls) exactly,
/// including NaN propagation — fmin/fmax would differ there.
std::string minMaxHelpers(const Program& p) {
  bool usesMin = false, usesMax = false;
  programMinMax(p, usesMin, usesMax);
  std::string out;
  if (usesMin)
    out +=
        "static double polyast_min(double a, double b) {"
        " return b < a ? b : a; }\n";
  if (usesMax)
    out +=
        "static double polyast_max(double a, double b) {"
        " return a < b ? b : a; }\n";
  if (!out.empty()) out += "\n";
  return out;
}

// ---- free-iterator analysis (what an outlined body must capture) --------

void affFreeNames(const Program& p, const AffExpr& e,
                  const std::set<std::string>& bound,
                  std::set<std::string>& out) {
  for (const auto& [n, c] : e.coeffs())
    if (c != 0 && !p.isParam(n) && !bound.count(n)) out.insert(n);
}

void exprFreeNames(const Program& p, const ExprPtr& e,
                   const std::set<std::string>& bound,
                   std::set<std::string>& out) {
  if (!e) return;
  if (e->kind == Expr::Kind::IterRef) {
    if (!p.isParam(e->name) && !bound.count(e->name)) out.insert(e->name);
  } else if (e->kind == Expr::Kind::ArrayRef) {
    for (const auto& s : e->subs) affFreeNames(p, s, bound, out);
  }
  exprFreeNames(p, e->lhs, bound, out);
  exprFreeNames(p, e->rhs, bound, out);
  exprFreeNames(p, e->cond, bound, out);
}

void nodeFreeIters(const Program& p, const NodePtr& node,
                   std::set<std::string>& bound,
                   std::set<std::string>& out) {
  switch (node->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<Block>(node)->children)
        nodeFreeIters(p, c, bound, out);
      break;
    case Node::Kind::Loop: {
      auto l = std::static_pointer_cast<Loop>(node);
      for (const auto& part : l->lower.parts)
        affFreeNames(p, part, bound, out);
      for (const auto& part : l->upper.parts)
        affFreeNames(p, part, bound, out);
      const bool fresh = bound.insert(l->iter).second;
      nodeFreeIters(p, l->body, bound, out);
      if (fresh) bound.erase(l->iter);
      break;
    }
    case Node::Kind::Stmt: {
      auto s = std::static_pointer_cast<Stmt>(node);
      for (const auto& sub : s->lhsSubs) affFreeNames(p, sub, bound, out);
      for (const auto& g : s->guards) affFreeNames(p, g, bound, out);
      exprFreeNames(p, s->rhs, bound, out);
      break;
    }
  }
}

/// Enclosing iterators a subtree references (scoped: loops inside the
/// subtree bind their own iterator). These are exactly the values a spawn
/// site must pass to its outlined chunk/cell bodies through the env
/// struct.
std::vector<std::string> freeIters(const Program& p, const NodePtr& node) {
  std::set<std::string> bound, out;
  nodeFreeIters(p, node, bound, out);
  return {out.begin(), out.end()};
}

// ---- kernel emission core ----------------------------------------------

class KernelEmitter {
 public:
  KernelEmitter(const Program& p, const KernelFunctionOptions& opt)
      : p_(p), opt_(opt) {
    // Construct ids for the attribution hooks: the same pre-order
    // enumeration the interpreter backend brackets, so both backends
    // report identical (id, kind, iter) rows for a program.
    for (const auto& c : collectParallelConstructs(p))
      constructIds_[c.loop.get()] = c.id;
  }

  std::string emit() {
    std::ostringstream body;
    emitNode(body, p_.root, 1, /*inParallel=*/false);
    std::ostringstream out;
    out << aux_.str();
    out << (opt_.external ? "void " : "static void ") << opt_.name
        << "(void) {\n"
        << body.str() << "}\n";
    return out.str();
  }

 private:
  /// One member of an outlined body's environment struct.
  struct EnvField {
    std::string type;  ///< C type of the struct member (and local copy)
    std::string name;  ///< member name (== local name inside the body)
    std::string init;  ///< expression assigned at the spawn site
  };

  std::string linearIndex(const std::string& array,
                          const std::vector<AffExpr>& subs) {
    const ArrayDecl& decl = p_.array(array);
    POLYAST_CHECK(subs.size() == decl.dims.size(),
                  "rank mismatch emitting " + array);
    std::string idx = cAff(subs[0]);
    for (std::size_t d = 1; d < subs.size(); ++d)
      idx = "(" + idx + ") * " + cAff(decl.dims[d]) + " + " + cAff(subs[d]);
    return cname(array) + "[" + idx + "]";
  }

  std::string cExpr(const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::IntLit:
        // The interpreter evaluates every value expression in double, so
        // integer literals become double literals (an int literal under /
        // would truncate).
        return std::to_string(e->intValue) + ".0";
      case Expr::Kind::FloatLit:
        return cFloat(e->floatValue);
      case Expr::Kind::IterRef:
        // Iterators are int64 in C; the interpreter reads them as doubles.
        return "(double)" + e->name;
      case Expr::Kind::ParamRef:
        return "(double)" + e->name;
      case Expr::Kind::ArrayRef:
        return linearIndex(e->name, e->subs);
      case Expr::Kind::Binary: {
        std::string a = cExpr(e->lhs), b = cExpr(e->rhs);
        switch (e->binOp) {
          case BinOp::Add: return "(" + a + " + " + b + ")";
          case BinOp::Sub: return "(" + a + " - " + b + ")";
          case BinOp::Mul: return "(" + a + " * " + b + ")";
          case BinOp::Div: return "(" + a + " / " + b + ")";
          case BinOp::Min: return "polyast_min(" + a + ", " + b + ")";
          case BinOp::Max: return "polyast_max(" + a + ", " + b + ")";
          case BinOp::Lt: return "(" + a + " < " + b + " ? 1.0 : 0.0)";
          case BinOp::Le: return "(" + a + " <= " + b + " ? 1.0 : 0.0)";
          case BinOp::Gt: return "(" + a + " > " + b + " ? 1.0 : 0.0)";
          case BinOp::Ge: return "(" + a + " >= " + b + " ? 1.0 : 0.0)";
          case BinOp::Eq: return "(" + a + " == " + b + " ? 1.0 : 0.0)";
        }
        break;
      }
      case Expr::Kind::Unary: {
        std::string a = cExpr(e->lhs);
        switch (e->unOp) {
          case UnOp::Neg: return "(-" + a + ")";
          case UnOp::Sqrt: return "sqrt(" + a + ")";
          case UnOp::Exp: return "exp(" + a + ")";
          case UnOp::Abs: return "fabs(" + a + ")";
        }
        break;
      }
      case Expr::Kind::Select:
        return "(" + cExpr(e->cond) + " != 0.0 ? " + cExpr(e->lhs) + " : " +
               cExpr(e->rhs) + ")";
    }
    POLYAST_CHECK(false, "unreachable expression kind in C emission");
  }

  void emitStmt(std::ostream& os, const std::shared_ptr<Stmt>& s,
                const std::string& pad) {
    os << pad;
    if (!s->guards.empty()) {
      os << "if (";
      for (std::size_t i = 0; i < s->guards.size(); ++i) {
        if (i) os << " && ";
        os << cAff(s->guards[i]) << " >= 0";
      }
      os << ") ";
    }
    os << linearIndex(s->lhsArray, s->lhsSubs);
    switch (s->op) {
      case AssignOp::Set: os << " = "; break;
      case AssignOp::AddAssign: os << " += "; break;
      case AssignOp::SubAssign: os << " -= "; break;
      case AssignOp::MulAssign: os << " *= "; break;
      case AssignOp::DivAssign: os << " /= "; break;
    }
    os << cExpr(s->rhs) << ";\n";
  }

  /// `inParallel` = already inside an outlined parallel body: nested marks
  /// run sequentially there (a chunk/cell runs its whole subtree, marks
  /// ignored; ir::collectParallelConstructs does not list them).
  void emitNode(std::ostream& os, const NodePtr& node, int depth,
                bool inParallel) {
    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    switch (node->kind) {
      case Node::Kind::Block:
        for (const auto& c : std::static_pointer_cast<Block>(node)->children)
          emitNode(os, c, depth, inParallel);
        break;
      case Node::Kind::Loop: {
        auto l = std::static_pointer_cast<Loop>(node);
        if (opt_.simd && l->microKernel) {
          emitMicroKernel(os, l, depth, inParallel);
          break;
        }
        if (opt_.parallel == ParallelLowering::Runtime && !inParallel &&
            l->parallel != ParallelKind::None) {
          // Attribution bracket: one enter/exit pair per dynamic
          // encounter, fired even when the trip space is empty and around
          // sequential fallbacks — the same points at which the
          // interpreter backend fires its construct hooks.
          auto cid = constructIds_.find(l.get());
          POLYAST_CHECK(cid != constructIds_.end(),
                        "marked loop missing from the construct index");
          os << pad << "polyast_rt->construct_enter(" << cid->second << ", \""
             << parallelKindName(l->parallel) << "\", \"" << l->iter
             << "\");\n";
          emitParallel(os, l, depth);
          os << pad << "polyast_rt->construct_exit(" << cid->second
             << ");\n";
          break;
        }
        if (opt_.parallel != ParallelLowering::Runtime) {
          if (l->parallel == ParallelKind::Doall) {
            if (opt_.parallel == ParallelLowering::OpenMP)
              os << pad << "#pragma omp parallel for\n";
            else
              os << pad << "/* polyast: doall */\n";
          } else if (l->parallel != ParallelKind::None) {
            // Reduction / pipeline need the runtime's constructs (array
            // reductions, point-to-point awaits); mark them for a
            // downstream pass or manual conversion.
            os << pad << "/* polyast: " << parallelKindName(l->parallel);
            if (l->pipelineDepth > 0) os << " depth=" << l->pipelineDepth;
            os << " */\n";
          }
        }
        os << pad << "for (int64_t " << l->iter << " = "
           << cBound(l->lower, true) << "; " << l->iter << " < "
           << cBound(l->upper, false) << "; " << l->iter << " += "
           << l->step << ") {\n";
        emitNode(os, l->body, depth + 1, inParallel);
        os << pad << "}\n";
        break;
      }
      case Node::Kind::Stmt:
        emitStmt(os, std::static_pointer_cast<Stmt>(node), pad);
        break;
    }
  }

  // ---- packed SIMD microkernel lowering --------------------------------

  static bool exprUsesIterName(const ExprPtr& e, const std::string& iter) {
    if (!e) return false;
    if (e->kind == Expr::Kind::IterRef && e->name == iter) return true;
    if (e->kind == Expr::Kind::ArrayRef)
      for (const auto& s : e->subs)
        if (s.coeff(iter) != 0) return true;
    return exprUsesIterName(e->lhs, iter) || exprUsesIterName(e->rhs, iter) ||
           exprUsesIterName(e->cond, iter);
  }

  /// The plain rolled emission of a loop, ignoring any microkernel tag —
  /// the in-place scalar fallback branch of emitMicroKernel.
  void emitScalarNest(std::ostream& os, const std::shared_ptr<Loop>& l,
                      int depth, bool inParallel) {
    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    os << pad << "for (int64_t " << l->iter << " = "
       << cBound(l->lower, true) << "; " << l->iter << " < "
       << cBound(l->upper, false) << "; " << l->iter << " += " << l->step
       << ") {\n";
    emitNode(os, l->body, depth + 1, inParallel);
    os << pad << "}\n";
  }

  /// Packed SIMD lowering of a tagged contraction nest (legality contract
  /// in ir::MicroKernelTag). The two point loops are replaced wholesale
  /// and the lane dimension runs in vector blocks (32 lanes / eight
  /// polyast_v4d accumulators, then 8 lanes / two) held across the whole
  /// stream loop. When the lane-strided factor is contiguous in the lane
  /// (unit lane coefficient in its minor subscript — gemm, 2mm) the
  /// vectors load straight from the source array; otherwise (syrk's
  /// transposed factor) both factors are first packed into fixed-size
  /// aligned panels. Bit-exactness with the rolled nest: per output cell
  /// the stream-order of the adds is unchanged, the values combined are
  /// the very expressions the scalar code evaluates (IEEE multiply is
  /// commutative bit-for-bit), and partial blocks run scalar lanes so no
  /// padded lane ever touches the output. Panel-path windows larger than
  /// the panels — impossible for tiles this pipeline produces, but cheap
  /// to guard — take the original rolled nest.
  void emitMicroKernel(std::ostream& os, const std::shared_ptr<Loop>& l,
                       int depth, bool inParallel) {
    const MicroKernelTag& tag = *l->microKernel;
    auto inner = soleLoopChild(l->body);
    POLYAST_CHECK(inner && inner->body->children.size() == 1 &&
                      inner->body->children.front()->kind == Node::Kind::Stmt,
                  "microkernel tag on a non-contraction nest");
    auto stmt = std::static_pointer_cast<Stmt>(inner->body->children.front());
    const Loop& lane = l->iter == tag.laneIter ? *l : *inner;
    const Loop& stream = l->iter == tag.streamIter ? *l : *inner;
    POLYAST_CHECK(lane.iter == tag.laneIter && stream.iter == tag.streamIter,
                  "microkernel tag does not match the nest iterators");
    POLYAST_CHECK(stmt->guards.empty() && stmt->op == AssignOp::AddAssign &&
                      stmt->rhs && stmt->rhs->kind == Expr::Kind::Binary &&
                      stmt->rhs->binOp == BinOp::Mul,
                  "microkernel statement is not a multiply-accumulate");
    ExprPtr laneRef, invariant;
    for (const auto& [cand, other] :
         {std::pair(stmt->rhs->lhs, stmt->rhs->rhs),
          std::pair(stmt->rhs->rhs, stmt->rhs->lhs)}) {
      if (cand->kind == Expr::Kind::ArrayRef &&
          exprUsesIterName(cand, lane.iter) &&
          !exprUsesIterName(other, lane.iter)) {
        laneRef = cand;
        invariant = other;
        break;
      }
    }
    POLYAST_CHECK(laneRef, "microkernel rhs has no lane-strided factor");

    // Direct-load eligibility: the lane appears only in the minor
    // subscript of the streamed factor, with coefficient 1, so lane
    // neighbours are adjacent in memory and the vectors can load straight
    // from the source array — no panel, no per-visit packing cost.
    bool direct = !laneRef->subs.empty() &&
                  laneRef->subs.back().coeff(lane.iter) == 1;
    for (std::size_t i = 0; direct && i + 1 < laneRef->subs.size(); ++i)
      if (laneRef->subs[i].coeff(lane.iter) != 0) direct = false;

    const std::string KT = std::to_string(tag.maxStream);
    const std::string JT = std::to_string(tag.maxLane);
    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    std::string p2 = pad + "  ", p3 = p2 + "  ", p4 = p3 + "  ",
                p5 = p4 + "  ", p6 = p5 + "  ";
    os << pad << "{ /* " << (direct ? "direct" : "packed")
       << " simd microkernel: lane=" << tag.laneIter
       << " stream=" << tag.streamIter << " */\n";
    os << p2 << "const int64_t polyast_mk_klo = " << cBound(stream.lower, true)
       << ";\n";
    os << p2 << "const int64_t polyast_mk_khi = "
       << cBound(stream.upper, false) << ";\n";
    os << p2 << "const int64_t polyast_mk_jlo = " << cBound(lane.lower, true)
       << ";\n";
    os << p2 << "const int64_t polyast_mk_jhi = " << cBound(lane.upper, false)
       << ";\n";
    os << p2 << "const int64_t polyast_mk_kn = polyast_mk_khi -"
       << " polyast_mk_klo;\n";
    os << p2 << "const int64_t polyast_mk_jn = polyast_mk_jhi -"
       << " polyast_mk_jlo;\n";
    if (direct)
      os << p2 << "if (polyast_mk_kn > 0 && polyast_mk_jn > 0) {\n";
    else
      os << p2 << "if (polyast_mk_kn > 0 && polyast_mk_jn > 0 &&"
         << " polyast_mk_kn <= " << KT << " && polyast_mk_jn <= " << JT
         << ") {\n";
    if (!direct) {
      os << p3 << "double polyast_mk_a[" << KT
         << "] __attribute__((aligned(32)));\n";
      os << p3 << "double polyast_mk_b[" << KT << " * " << JT
         << "] __attribute__((aligned(32)));\n";
      os << p3 << "for (int64_t polyast_mk_p = 0;"
         << " polyast_mk_p < polyast_mk_kn; ++polyast_mk_p) {\n";
      os << p4 << "const int64_t " << stream.iter
         << " = polyast_mk_klo + polyast_mk_p; (void)" << stream.iter << ";\n";
      os << p4 << "polyast_mk_a[polyast_mk_p] = " << cExpr(invariant) << ";\n";
      os << p4 << "#pragma omp simd\n";
      os << p4 << "for (int64_t polyast_mk_q = 0;"
         << " polyast_mk_q < polyast_mk_jn; ++polyast_mk_q) {\n";
      os << p5 << "const int64_t " << lane.iter
         << " = polyast_mk_jlo + polyast_mk_q;\n";
      os << p5 << "polyast_mk_b[polyast_mk_p * " << JT
         << " + polyast_mk_q] = " << cExpr(laneRef) << ";\n";
      os << p4 << "}\n";
      os << p3 << "}\n";
    }
    // Output-row base pointer at lane == jlo; the lane coefficient in the
    // store is 1, so lane lanes are contiguous from here.
    os << p3 << "double *restrict polyast_mk_c;\n";
    os << p3 << "{\n";
    os << p4 << "const int64_t " << lane.iter << " = polyast_mk_jlo;\n";
    os << p4 << "polyast_mk_c = &"
       << linearIndex(stmt->lhsArray, stmt->lhsSubs) << ";\n";
    os << p3 << "}\n";
    // Vector blocks in two tiers: 32-lane blocks carry eight independent
    // accumulator chains (the per-cell add chain is serial by the
    // bit-exactness contract, so across-lane chains are the only
    // instruction-level parallelism available — eight chains hide the
    // vector-add latency completely), then 8-lane blocks mop up.
    os << p3 << "int64_t polyast_mk_q = 0;\n";
    for (int lanes : {32, 8}) {
      const int accs = lanes / 4;
      os << p3 << "for (; polyast_mk_q + " << lanes
         << " <= polyast_mk_jn; polyast_mk_q += " << lanes << ") {\n";
      for (int a = 0; a < accs; ++a)
        os << p4 << "polyast_v4d polyast_mk_acc" << a
           << " = *(const polyast_v4d *)(polyast_mk_c + polyast_mk_q + "
           << 4 * a << ");\n";
      os << p4 << "for (int64_t polyast_mk_p = 0;"
         << " polyast_mk_p < polyast_mk_kn; ++polyast_mk_p) {\n";
      if (direct) {
        os << p5 << "const int64_t " << stream.iter
           << " = polyast_mk_klo + polyast_mk_p; (void)" << stream.iter
           << ";\n";
        os << p5 << "const double polyast_mk_sc = " << cExpr(invariant)
           << ";\n";
        os << p5 << "const polyast_v4d polyast_mk_s = {polyast_mk_sc,"
           << " polyast_mk_sc, polyast_mk_sc, polyast_mk_sc};\n";
        os << p5 << "const double *polyast_mk_brow;\n";
        os << p5 << "{\n";
        os << p6 << "const int64_t " << lane.iter
           << " = polyast_mk_jlo + polyast_mk_q;\n";
        os << p6 << "polyast_mk_brow = &"
           << linearIndex(laneRef->name, laneRef->subs) << ";\n";
        os << p5 << "}\n";
      } else {
        os << p5 << "const double polyast_mk_sc ="
           << " polyast_mk_a[polyast_mk_p];\n";
        os << p5 << "const polyast_v4d polyast_mk_s = {polyast_mk_sc,"
           << " polyast_mk_sc, polyast_mk_sc, polyast_mk_sc};\n";
        os << p5 << "const double *polyast_mk_brow = polyast_mk_b +"
           << " polyast_mk_p * " << JT << " + polyast_mk_q;\n";
      }
      for (int a = 0; a < accs; ++a)
        os << p5 << "polyast_mk_acc" << a << " += polyast_mk_s *"
           << " *(const polyast_v4d *)(polyast_mk_brow + " << 4 * a
           << ");\n";
      os << p4 << "}\n";
      for (int a = 0; a < accs; ++a)
        os << p4 << "*(polyast_v4d *)(polyast_mk_c + polyast_mk_q + "
           << 4 * a << ") = polyast_mk_acc" << a << ";\n";
      os << p3 << "}\n";
    }
    os << p3 << "for (; polyast_mk_q < polyast_mk_jn; ++polyast_mk_q) {\n";
    os << p4 << "double polyast_mk_acc = polyast_mk_c[polyast_mk_q];\n";
    if (direct) {
      os << p4 << "const int64_t " << lane.iter
         << " = polyast_mk_jlo + polyast_mk_q;\n";
      os << p4 << "for (int64_t polyast_mk_p = 0;"
         << " polyast_mk_p < polyast_mk_kn; ++polyast_mk_p) {\n";
      os << p5 << "const int64_t " << stream.iter
         << " = polyast_mk_klo + polyast_mk_p; (void)" << stream.iter << ";\n";
      os << p5 << "polyast_mk_acc += " << cExpr(stmt->rhs) << ";\n";
      os << p4 << "}\n";
    } else {
      os << p4 << "for (int64_t polyast_mk_p = 0;"
         << " polyast_mk_p < polyast_mk_kn; ++polyast_mk_p)\n";
      os << p5 << "polyast_mk_acc += polyast_mk_a[polyast_mk_p] *"
         << " polyast_mk_b[polyast_mk_p * " << JT << " + polyast_mk_q];\n";
    }
    os << p4 << "polyast_mk_c[polyast_mk_q] = polyast_mk_acc;\n";
    os << p3 << "}\n";
    if (direct) {
      os << p2 << "}\n";
    } else {
      os << p2 << "} else if (polyast_mk_kn > 0 && polyast_mk_jn > 0) {\n";
      emitScalarNest(os, l, depth + 1, inParallel);
      os << p2 << "}\n";
    }
    os << pad << "}\n";
  }

  // ---- runtime lowering of parallelism marks ---------------------------
  //
  // This is the only lowering of parallelism marks onto the runtime. Each
  // spawn site picks its construct with the ir/ast.hpp shape queries and
  // counts it once per dynamic encounter (even for an empty trip space),
  // which is what ParallelRunReport's construct counters report.

  void emitParallel(std::ostream& os, const std::shared_ptr<Loop>& l,
                    int depth) {
    POLYAST_CHECK(l->step >= 1, "non-positive loop step");
    switch (l->parallel) {
      case ParallelKind::Doall:
        emitDoallLike(os, l, depth, /*asReduction=*/false);
        return;
      case ParallelKind::Reduction:
        emitReduction(os, l, depth);
        return;
      case ParallelKind::Pipeline:
        emitPipeline(os, l, depth, /*withReduction=*/false);
        return;
      case ParallelKind::ReductionPipeline:
        emitPipeline(os, l, depth, /*withReduction=*/true);
        return;
      case ParallelKind::None:
        break;
    }
  }

  std::vector<EnvField> capturedFields(const NodePtr& subtree) {
    std::vector<EnvField> fields;
    for (const auto& n : freeIters(p_, subtree))
      fields.push_back({"int64_t", n, n});
    return fields;
  }

  void emitEnvStruct(int id, const std::vector<EnvField>& fields) {
    if (fields.empty()) return;
    aux_ << "typedef struct {\n";
    for (const auto& f : fields)
      aux_ << "  " << f.type << (f.type.back() == '*' ? "" : " ") << f.name
           << ";\n";
    aux_ << "} polyast_env_" << id << "_t;\n";
  }

  void emitEnvUnpack(std::ostream& os, int id,
                     const std::vector<EnvField>& fields,
                     const std::string& pad) {
    if (fields.empty()) return;
    os << pad << "const polyast_env_" << id << "_t *polyast_env = "
       << "(const polyast_env_" << id << "_t *)polyast_envp;\n";
    for (const auto& f : fields)
      os << pad << f.type << (f.type.back() == '*' ? "" : " ") << f.name
         << " = polyast_env->" << f.name << "; (void)" << f.name << ";\n";
  }

  void emitEnvSetup(std::ostream& os, int id,
                    const std::vector<EnvField>& fields,
                    const std::string& pad) {
    if (fields.empty()) return;
    os << pad << "polyast_env_" << id << "_t polyast_env;\n";
    for (const auto& f : fields)
      os << pad << "polyast_env." << f.name << " = " << f.init << ";\n";
  }

  static std::string envArg(const std::vector<EnvField>& fields) {
    return fields.empty() ? "0" : "&polyast_env";
  }

  void emitTripCount(std::ostream& os, const Loop& l,
                     const std::string& pad) {
    os << pad << "const int64_t polyast_lo = " << cBound(l.lower, true)
       << ";\n";
    os << pad << "const int64_t polyast_hi = " << cBound(l.upper, false)
       << ";\n";
    os << pad << "const int64_t polyast_trips = polyast_lo < polyast_hi ? "
       << "(polyast_hi - polyast_lo + " << l.step << " - 1) / " << l.step
       << " : 0;\n";
  }

  /// Doall spawn site; also the lowering of a Reduction mark with no
  /// privatizable accumulator (a valid such mark has no carried dependence
  /// at all, so a plain static-schedule doall is equivalent).
  void emitDoallLike(std::ostream& os, const std::shared_ptr<Loop>& l,
                     int depth, bool asReduction) {
    const int id = id_++;
    const std::vector<EnvField> fields = capturedFields(l);
    const bool guided =
        !asReduction && innerBoundsReference(l->body, l->iter);
    emitEnvStruct(id, fields);
    aux_ << "static void polyast_body_" << id
         << "(void *polyast_envp, unsigned polyast_tid,"
            " int64_t polyast_begin, int64_t polyast_end) {\n"
            "  (void)polyast_envp; (void)polyast_tid;\n";
    emitEnvUnpack(aux_, id, fields, "  ");
    aux_ << "  const int64_t polyast_lo = " << cBound(l->lower, true)
         << ";\n"
            "  for (int64_t polyast_t = polyast_begin;"
            " polyast_t < polyast_end; ++polyast_t) {\n"
         << "    const int64_t " << l->iter << " = polyast_lo + polyast_t * "
         << l->step << ";\n";
    emitNode(aux_, l->body, 2, /*inParallel=*/true);
    aux_ << "  }\n}\n\n";

    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    os << pad << "{\n";
    os << pad << "  polyast_rt->count("
       << (asReduction ? "POLYAST_COUNT_REDUCTION" : "POLYAST_COUNT_DOALL")
       << ");\n";
    if (guided) os << pad << "  polyast_rt->count(POLYAST_COUNT_GUIDED);\n";
    emitTripCount(os, *l, pad + "  ");
    os << pad << "  if (polyast_trips > 0) {\n";
    emitEnvSetup(os, id, fields, pad + "    ");
    os << pad << "    polyast_rt->parallel_for_blocked(polyast_pool,"
       << " polyast_trips, "
       << (guided ? "POLYAST_SCHEDULE_GUIDED" : "POLYAST_SCHEDULE_STATIC")
       << ", 1, polyast_body_" << id << ", " << envArg(fields) << ");\n";
    os << pad << "  }\n" << pad << "}\n";
  }

  void emitReduction(std::ostream& os, const std::shared_ptr<Loop>& l,
                     int depth) {
    const std::vector<std::string> priv = privatizableArrays(l);
    if (priv.empty()) {
      emitDoallLike(os, l, depth, /*asReduction=*/true);
      return;
    }
    const int id = id_++;
    const std::vector<EnvField> fields = capturedFields(l);
    emitEnvStruct(id, fields);
    aux_ << "static void polyast_body_" << id
         << "(void *polyast_envp, unsigned polyast_tid,"
            " double *const *polyast_priv,"
            " int64_t polyast_begin, int64_t polyast_end) {\n"
            "  (void)polyast_envp; (void)polyast_tid;\n";
    emitEnvUnpack(aux_, id, fields, "  ");
    // Route every access to a privatized accumulator into the thread's
    // zero-initialized private buffer (shadows the file-scope array); the
    // runtime merges the partial sums after the chunks drain.
    for (std::size_t k = 0; k < priv.size(); ++k)
      aux_ << "  double *const " << cname(priv[k]) << " = polyast_priv["
           << k << "];\n";
    aux_ << "  const int64_t polyast_lo = " << cBound(l->lower, true)
         << ";\n"
            "  for (int64_t polyast_t = polyast_begin;"
            " polyast_t < polyast_end; ++polyast_t) {\n"
         << "    const int64_t " << l->iter << " = polyast_lo + polyast_t * "
         << l->step << ";\n";
    emitNode(aux_, l->body, 2, /*inParallel=*/true);
    aux_ << "  }\n}\n\n";

    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    os << pad << "{\n";
    os << pad << "  polyast_rt->count(POLYAST_COUNT_REDUCTION);\n";
    emitTripCount(os, *l, pad + "  ");
    os << pad << "  if (polyast_trips > 0) {\n";
    os << pad << "    polyast_reduce_target polyast_targets[" << priv.size()
       << "] = {\n";
    for (const auto& name : priv)
      os << pad << "      { " << cname(name) << ", (uint64_t)("
         << totalElems(p_.array(name)) << ") },\n";
    os << pad << "    };\n";
    emitEnvSetup(os, id, fields, pad + "    ");
    os << pad << "    polyast_rt->parallel_reduce(polyast_pool,"
       << " polyast_trips, polyast_targets, " << priv.size()
       << ", polyast_body_" << id << ", " << envArg(fields) << ");\n";
    os << pad << "  }\n" << pad << "}\n";
  }

  /// Per-thread private accumulator fields/alloc/merge for a
  /// ReductionPipeline (the pipeline constructs have no built-in
  /// privatization, so the TU allocates nthreads * len scratch per
  /// accumulator, cells index it by worker id, and the spawn site sums
  /// the slices into the shared array after the pipeline drains).
  void privFields(const std::vector<std::string>& priv,
                  std::vector<EnvField>& fields) {
    for (std::size_t k = 0; k < priv.size(); ++k) {
      std::string n = "polyast_priv" + std::to_string(k);
      fields.push_back({"double *", n, n});
    }
  }

  void emitPrivAlloc(std::ostream& os, const std::vector<std::string>& priv,
                     const std::string& pad) {
    if (priv.empty()) return;
    os << pad << "const uint64_t polyast_nt = "
       << "(uint64_t)polyast_rt->thread_count(polyast_pool);\n";
    for (std::size_t k = 0; k < priv.size(); ++k)
      os << pad << "double *polyast_priv" << k
         << " = (double *)calloc(polyast_nt * (uint64_t)("
         << totalElems(p_.array(priv[k])) << "), sizeof(double));\n";
  }

  void emitPrivShadows(std::ostream& os,
                       const std::vector<std::string>& priv,
                       const std::string& pad) {
    for (std::size_t k = 0; k < priv.size(); ++k)
      os << pad << "double *const " << cname(priv[k]) << " = polyast_priv"
         << k << " + (uint64_t)polyast_rt->current_tid() * (uint64_t)("
         << totalElems(p_.array(priv[k])) << ");\n";
  }

  void emitPrivMerge(std::ostream& os, const std::vector<std::string>& priv,
                     const std::string& pad) {
    for (std::size_t k = 0; k < priv.size(); ++k) {
      const std::string len = "(uint64_t)(" + totalElems(p_.array(priv[k])) +
                              ")";
      os << pad << "for (uint64_t polyast_i = 0; polyast_i < " << len
         << "; ++polyast_i) {\n"
         << pad << "  double polyast_sum = 0.0;\n"
         << pad << "  for (uint64_t polyast_w = 0; polyast_w < polyast_nt;"
         << " ++polyast_w)\n"
         << pad << "    polyast_sum += polyast_priv" << k
         << "[polyast_w * " << len << " + polyast_i];\n"
         << pad << "  " << cname(priv[k]) << "[polyast_i] += polyast_sum;\n"
         << pad << "}\n"
         << pad << "free(polyast_priv" << k << ");\n";
    }
  }

  void emitFallbackNest(std::ostream& os, const std::shared_ptr<Loop>& l,
                        int depth, const std::string& note) {
    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    os << pad << "polyast_rt->count_fallback(\"" << note << "\");\n";
    emitNode(os, l, depth, /*inParallel=*/true);
  }

  /// Pipeline / ReductionPipeline lowering, deepest shape first:
  /// pipeline3D (depth >= 3, rectangular 3-deep chain), then pipeline2D
  /// (rectangular chained pair), then pipelineDynamic2D (inner bounds
  /// reference the outer iterator), else sequential fallback. Falling
  /// back from a deeper shape to a shallower one is always sound: a
  /// dependence with componentwise non-negative distance on d levels is
  /// ordered a fortiori when only a prefix of those levels is
  /// synchronized cell-by-cell and the rest runs sequentially inside the
  /// cell.
  void emitPipeline(std::ostream& os, const std::shared_ptr<Loop>& l,
                    int depth, bool withReduction) {
    const std::string note =
        "loop " + l->iter + " (" + parallelKindName(l->parallel) + "): " +
        (withReduction ? "reduction pipeline body is not a chained loop nest"
                       : "pipeline body is not a chained loop nest");
    auto inner = soleLoopChild(l->body);
    if (!inner) {
      emitFallbackNest(os, l, depth, note);
      return;
    }
    POLYAST_CHECK(inner->step >= 1, "non-positive loop step");
    const std::int64_t syncDepth =
        l->pipelineDepth > 0 ? l->pipelineDepth : 2;
    const std::vector<std::string> priv =
        withReduction ? privatizableArrays(l) : std::vector<std::string>();
    const char* kindCount = withReduction
                                ? "POLYAST_COUNT_REDUCTION_PIPELINE"
                                : "POLYAST_COUNT_PIPELINE";
    auto third = syncDepth >= 3 ? soleLoopChild(inner->body) : nullptr;
    if (third && boundsIndependentOf(*inner, l->iter) &&
        boundsIndependentOf(*third, l->iter) &&
        boundsIndependentOf(*third, inner->iter)) {
      POLYAST_CHECK(third->step >= 1, "non-positive loop step");
      emitPipelineGrid(os, l, inner, third, depth, kindCount, priv);
      return;
    }
    if (boundsIndependentOf(*inner, l->iter)) {
      emitPipelineGrid(os, l, inner, nullptr, depth, kindCount, priv);
      return;
    }
    emitPipelineDynamic(os, l, inner, depth, kindCount, priv, note);
  }

  /// Rectangular 2D (third == null) or 3D pipeline: all cell coordinates
  /// map back to iterator values by recomputing the chain loops' lower
  /// bounds (independent of the chain iterators by construction; any
  /// enclosing sequential iterators arrive via the env).
  void emitPipelineGrid(std::ostream& os, const std::shared_ptr<Loop>& outer,
                        const std::shared_ptr<Loop>& inner,
                        const std::shared_ptr<Loop>& third, int depth,
                        const char* kindCount,
                        const std::vector<std::string>& priv) {
    const int id = id_++;
    const bool is3d = third != nullptr;
    std::vector<EnvField> fields = capturedFields(outer);
    privFields(priv, fields);
    emitEnvStruct(id, fields);
    aux_ << "static void polyast_cell_" << id << "(void *polyast_envp, ";
    aux_ << (is3d ? "int64_t polyast_p, int64_t polyast_r, int64_t polyast_c"
                  : "int64_t polyast_r, int64_t polyast_c")
         << ") {\n  (void)polyast_envp;\n";
    emitEnvUnpack(aux_, id, fields, "  ");
    if (is3d) {
      aux_ << "  const int64_t " << outer->iter << " = "
           << cBound(outer->lower, true) << " + polyast_p * " << outer->step
           << ";\n";
      aux_ << "  const int64_t " << inner->iter << " = "
           << cBound(inner->lower, true) << " + polyast_r * " << inner->step
           << ";\n";
      aux_ << "  const int64_t " << third->iter << " = "
           << cBound(third->lower, true) << " + polyast_c * " << third->step
           << ";\n";
    } else {
      aux_ << "  const int64_t " << outer->iter << " = "
           << cBound(outer->lower, true) << " + polyast_r * " << outer->step
           << ";\n";
      aux_ << "  const int64_t " << inner->iter << " = "
           << cBound(inner->lower, true) << " + polyast_c * " << inner->step
           << ";\n";
    }
    emitPrivShadows(aux_, priv, "  ");
    emitNode(aux_, is3d ? third->body : inner->body, 1, /*inParallel=*/true);
    aux_ << "}\n\n";

    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    std::string p2 = pad + "  ";
    os << pad << "{\n";
    os << p2 << "polyast_rt->count(" << kindCount << ");\n";
    if (is3d) os << p2 << "polyast_rt->count(POLYAST_COUNT_PIPELINE_3D);\n";
    auto dim = [&](const char* n, const std::shared_ptr<Loop>& lp) {
      os << p2 << "const int64_t polyast_" << n << "_lo = "
         << cBound(lp->lower, true) << ";\n";
      os << p2 << "const int64_t polyast_" << n << "_hi = "
         << cBound(lp->upper, false) << ";\n";
      os << p2 << "const int64_t polyast_" << n << "_n = polyast_" << n
         << "_lo < polyast_" << n << "_hi ? (polyast_" << n
         << "_hi - polyast_" << n << "_lo + " << lp->step << " - 1) / "
         << lp->step << " : 0;\n";
    };
    dim("d0", outer);
    dim("d1", inner);
    if (is3d) dim("d2", third);
    os << p2 << "if (polyast_d0_n > 0 && polyast_d1_n > 0"
       << (is3d ? " && polyast_d2_n > 0" : "") << ") {\n";
    std::string p3 = p2 + "  ";
    emitPrivAlloc(os, priv, p3);
    emitEnvSetup(os, id, fields, p3);
    if (is3d)
      os << p3 << "polyast_rt->pipeline_3d(polyast_pool, polyast_d0_n,"
         << " polyast_d1_n, polyast_d2_n, polyast_cell_" << id << ", "
         << envArg(fields) << ");\n";
    else
      os << p3 << "polyast_rt->pipeline_2d(polyast_pool, polyast_d0_n,"
         << " polyast_d1_n, polyast_cell_" << id << ", " << envArg(fields)
         << ");\n";
    emitPrivMerge(os, priv, p3);
    os << p2 << "}\n" << pad << "}\n";
  }

  /// Triangular/trapezoidal chained pair: per-row column ranges are
  /// computed at run time from the inner bounds, the shared stride-phase
  /// lattice is verified, and on mismatch the nest runs sequentially
  /// (counted as a fallback).
  void emitPipelineDynamic(std::ostream& os,
                           const std::shared_ptr<Loop>& outer,
                           const std::shared_ptr<Loop>& inner, int depth,
                           const char* kindCount,
                           const std::vector<std::string>& priv,
                           const std::string& note) {
    const int id = id_++;
    const std::int64_t s = inner->step;
    std::vector<EnvField> fields = capturedFields(outer);
    fields.push_back({"const int64_t *", "polyast_rowlo", "polyast_rowlo"});
    privFields(priv, fields);
    emitEnvStruct(id, fields);

    aux_ << "static int64_t polyast_need_" << id
         << "(void *polyast_envp, int64_t polyast_r, int64_t polyast_c) {\n";
    emitEnvUnpack(aux_, id, fields, "  ");
    // Cell (r, c) holds inner value j = rowlo[r] + c*s; it awaits every
    // previous-row cell with value <= j. The spawn site's phase check
    // makes the division exact; the runtime clamps to the row length.
    aux_ << "  return (polyast_rowlo[polyast_r] + polyast_c * " << s
         << " - polyast_rowlo[polyast_r - 1]) / " << s << " + 1;\n}\n\n";

    aux_ << "static void polyast_cell_" << id
         << "(void *polyast_envp, int64_t polyast_r, int64_t polyast_c) {\n";
    emitEnvUnpack(aux_, id, fields, "  ");
    aux_ << "  const int64_t " << outer->iter << " = "
         << cBound(outer->lower, true) << " + polyast_r * " << outer->step
         << ";\n";
    aux_ << "  const int64_t " << inner->iter
         << " = polyast_rowlo[polyast_r] + polyast_c * " << s << ";\n";
    emitPrivShadows(aux_, priv, "  ");
    emitNode(aux_, inner->body, 1, /*inParallel=*/true);
    aux_ << "}\n\n";

    std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    std::string p2 = pad + "  ";
    std::string p3 = p2 + "  ";
    std::string p4 = p3 + "  ";
    os << pad << "{\n";
    os << p2 << "const int64_t polyast_rlo = " << cBound(outer->lower, true)
       << ";\n";
    os << p2 << "const int64_t polyast_rhi = "
       << cBound(outer->upper, false) << ";\n";
    os << p2 << "const int64_t polyast_rows = polyast_rlo < polyast_rhi ? "
       << "(polyast_rhi - polyast_rlo + " << outer->step << " - 1) / "
       << outer->step << " : 0;\n";
    os << p2 << "if (polyast_rows <= 0) {\n";
    os << p3 << "polyast_rt->count(" << kindCount << ");\n";
    os << p3 << "polyast_rt->count(POLYAST_COUNT_PIPELINE_DYNAMIC);\n";
    os << p2 << "} else {\n";
    os << p3 << "int64_t *polyast_rowlo = (int64_t *)malloc("
       << "sizeof(int64_t) * (uint64_t)polyast_rows);\n";
    os << p3 << "int64_t *polyast_rowcols = (int64_t *)malloc("
       << "sizeof(int64_t) * (uint64_t)polyast_rows);\n";
    os << p3 << "for (int64_t polyast_r = 0; polyast_r < polyast_rows;"
       << " ++polyast_r) {\n";
    os << p4 << "const int64_t " << outer->iter
       << " = polyast_rlo + polyast_r * " << outer->step << ";\n";
    os << p4 << "const int64_t polyast_ilo = " << cBound(inner->lower, true)
       << ";\n";
    os << p4 << "const int64_t polyast_ihi = "
       << cBound(inner->upper, false) << ";\n";
    os << p4 << "polyast_rowlo[polyast_r] = polyast_ilo;\n";
    os << p4 << "polyast_rowcols[polyast_r] = polyast_ilo < polyast_ihi ? "
       << "(polyast_ihi - polyast_ilo + " << s << " - 1) / " << s
       << " : 0;\n";
    os << p3 << "}\n";
    // Transitive coverage (a dependence skipping rows is still ordered by
    // the chained row-to-row awaits) needs a value j0 <= j1 <= j2 in every
    // intermediate row — guaranteed when all non-empty rows sample one
    // stride-s lattice: convexity of the affine bounds gives the
    // interval, the shared phase the lattice point. Mixed phases fall
    // back.
    os << p3 << "int polyast_ok = 1;\n";
    os << p3 << "int64_t polyast_first = -1;\n";
    os << p3 << "for (int64_t polyast_r = 0; polyast_r < polyast_rows;"
       << " ++polyast_r) {\n";
    os << p4 << "if (polyast_rowcols[polyast_r] <= 0) continue;\n";
    os << p4 << "if (polyast_first < 0) polyast_first = polyast_r;\n";
    os << p4 << "const int64_t polyast_delta = polyast_rowlo[polyast_r] - "
       << "polyast_rowlo[polyast_first];\n";
    os << p4 << "if (((polyast_delta % " << s << ") + " << s << ") % " << s
       << " != 0) { polyast_ok = 0; break; }\n";
    os << p3 << "}\n";
    os << p3 << "if (polyast_ok) {\n";
    os << p4 << "polyast_rt->count(" << kindCount << ");\n";
    os << p4 << "polyast_rt->count(POLYAST_COUNT_PIPELINE_DYNAMIC);\n";
    emitPrivAlloc(os, priv, p4);
    emitEnvSetup(os, id, fields, p4);
    os << p4 << "polyast_rt->pipeline_dynamic_2d(polyast_pool,"
       << " polyast_rowcols, polyast_rows, polyast_need_" << id
       << ", polyast_cell_" << id << ", " << envArg(fields) << ");\n";
    emitPrivMerge(os, priv, p4);
    os << p3 << "} else {\n";
    emitFallbackNest(os, outer, depth + 3, note);
    os << p3 << "}\n";
    os << p3 << "free(polyast_rowlo);\n";
    os << p3 << "free(polyast_rowcols);\n";
    os << p2 << "}\n" << pad << "}\n";
  }

  const Program& p_;
  KernelFunctionOptions opt_;
  std::ostringstream aux_;
  std::map<const Loop*, std::int64_t> constructIds_;
  int id_ = 0;
};

// ---- TU assembly --------------------------------------------------------

std::string arrayDeclarations(const Program& p) {
  std::string out;
  for (const auto& a : p.arrays)
    out += "static double *" + cname(a.name) + "; /* " + totalElems(a) +
           " elements */\n";
  out += "\n";
  return out;
}

const char* kSeederHelpers =
    // Mirrors exec::Context::seedAll so checksums are comparable.
    "static void polyast_seed(double *buf, const char *name, "
    "int64_t n) {\n"
    "  uint64_t h = 1469598103934665603ULL;\n"
    "  for (const char *c = name; *c; ++c)\n"
    "    h = (h ^ (uint64_t)*c) * 1099511628211ULL;\n"
    "  for (int64_t i = 0; i < n; ++i) {\n"
    "    uint64_t x = h ^ ((uint64_t)i * 0x9e3779b97f4a7c15ULL);\n"
    "    x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ULL; x ^= x >> 27;\n"
    "    buf[i] = 0.5 + (double)(x % 1000003ULL) / 1000003.0;\n"
    "  }\n"
    "}\n\n"
    "static double polyast_checksum(const double *buf, int64_t n) {\n"
    "  double s = 0.0, w = 1.0;\n"
    "  for (int64_t i = 0; i < n; ++i) {\n"
    "    s += w * buf[i];\n"
    "    w = (w >= 4.0) ? 1.0 : w + 1e-4;\n"
    "  }\n"
    "  return s;\n"
    "}\n\n";

std::string emitMain(const Program& p) {
  std::ostringstream os;
  os << "int main(void) {\n";
  for (const auto& a : p.arrays) {
    const std::string total = totalElems(a);
    os << "  " << cname(a.name)
       << " = (double *)malloc(sizeof(double) * (" << total << "));\n";
    os << "  polyast_seed(" << cname(a.name) << ", \"" << a.name << "\", "
       << total << ");\n";
  }
  os << "  struct timespec t0, t1;\n"
        "  clock_gettime(CLOCK_MONOTONIC, &t0);\n"
        "  kernel();\n"
        "  clock_gettime(CLOCK_MONOTONIC, &t1);\n"
        "  double secs = (double)(t1.tv_sec - t0.tv_sec) +\n"
        "                1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);\n";
  os << "  double total = 0.0;\n";
  for (const auto& a : p.arrays) {
    os << "  { double polyast_c = polyast_checksum(" << cname(a.name)
       << ", " << totalElems(a) << "); total += polyast_c;\n    printf(\""
       << a.name << ": %.17g\\n\", polyast_c); }\n";
  }
  os << "  printf(\"total: %.17g\\n\", total);\n"
        "  printf(\"seconds: %.6f\\n\", secs);\n"
        "  return 0;\n}\n";
  return os.str();
}

/// The capi structs as seen from the JIT TU: a textual mirror of
/// runtime/capi.hpp (same field order and types — that is the ABI, guarded
/// by the version stamp).
std::string nativeCapiDecls() {
  std::ostringstream os;
  os << "#define POLYAST_COUNT_DOALL 0\n"
        "#define POLYAST_COUNT_GUIDED 1\n"
        "#define POLYAST_COUNT_REDUCTION 2\n"
        "#define POLYAST_COUNT_PIPELINE 3\n"
        "#define POLYAST_COUNT_PIPELINE_DYNAMIC 4\n"
        "#define POLYAST_COUNT_PIPELINE_3D 5\n"
        "#define POLYAST_COUNT_REDUCTION_PIPELINE 6\n"
        "#define POLYAST_SCHEDULE_STATIC 0\n"
        "#define POLYAST_SCHEDULE_GUIDED 1\n"
        "\n"
        "typedef struct polyast_reduce_target {\n"
        "  double *data;\n"
        "  uint64_t size;\n"
        "} polyast_reduce_target;\n"
        "\n"
        "typedef struct polyast_runtime_api {\n"
        "  int64_t abi_version;\n"
        "  void (*parallel_for_blocked)(void *pool, int64_t trips,"
        " int schedule, int64_t min_block,\n"
        "      void (*chunk)(void *env, unsigned tid, int64_t begin,"
        " int64_t end), void *env);\n"
        "  void (*parallel_reduce)(void *pool, int64_t trips,"
        " const polyast_reduce_target *targets, int64_t n_targets,\n"
        "      void (*chunk)(void *env, unsigned tid, double *const *priv,"
        " int64_t begin, int64_t end), void *env);\n"
        "  void (*pipeline_2d)(void *pool, int64_t rows, int64_t cols,\n"
        "      void (*cell)(void *env, int64_t r, int64_t c), void *env);\n"
        "  void (*pipeline_3d)(void *pool, int64_t planes, int64_t rows,"
        " int64_t cols,\n"
        "      void (*cell)(void *env, int64_t p, int64_t r, int64_t c),"
        " void *env);\n"
        "  void (*pipeline_dynamic_2d)(void *pool, const int64_t *row_cols,"
        " int64_t rows,\n"
        "      int64_t (*need)(void *env, int64_t r, int64_t c),\n"
        "      void (*cell)(void *env, int64_t r, int64_t c), void *env);\n"
        "  unsigned (*thread_count)(void *pool);\n"
        "  unsigned (*current_tid)(void);\n"
        "  void (*count)(int what);\n"
        "  void (*count_fallback)(const char *note);\n"
        "  void (*construct_enter)(int64_t id, const char *kind,"
        " const char *iter);\n"
        "  void (*construct_exit)(int64_t id);\n"
        "} polyast_runtime_api;\n"
        "\n"
        "typedef struct polyast_kernel_args {\n"
        "  const int64_t *params;\n"
        "  double *const *buffers;\n"
        "  void *pool;\n"
        "  const polyast_runtime_api *rt;\n"
        "} polyast_kernel_args;\n\n";
  return os.str();
}

}  // namespace

std::string emitKernelFunction(const Program& program,
                               const KernelFunctionOptions& options) {
  return KernelEmitter(program, options).emit();
}

std::string emitC(const Program& program, const CEmitOptions& options) {
  std::ostringstream os;
  os << "/* Generated by PolyAST from program '" << program.name
     << "'. */\n";
  if (options.withMain)
    os << "#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
          "#include <stdint.h>\n#include <time.h>\n\n";
  else
    os << "#include <math.h>\n#include <stdint.h>\n\n";
  os << "#define POLYAST_MAX(a, b) ((a) > (b) ? (a) : (b))\n";
  os << "#define POLYAST_MIN(a, b) ((a) < (b) ? (a) : (b))\n\n";
  for (const auto& name : program.params) {
    os << "#ifndef " << name << "\n#define " << name << " "
       << program.paramDefaults.at(name) << "\n#endif\n";
  }
  os << "\n";
  os << arrayDeclarations(program);
  os << minMaxHelpers(program);
  if (options.withMain) os << kSeederHelpers;
  KernelFunctionOptions ko;
  ko.parallel = options.openmp ? ParallelLowering::OpenMP
                               : ParallelLowering::Comments;
  ko.external = !options.withMain;  // kernel-only TUs export the kernel
  os << emitKernelFunction(program, ko) << "\n";
  if (options.withMain) os << emitMain(program);
  return os.str();
}

std::string emitNativeKernelTU(const Program& program,
                               const NativeTUOptions& options) {
  const bool simd = options.simd && programHasMicroKernels(program);
  std::ostringstream os;
  os << "/* Generated by PolyAST (native backend) from program '"
     << program.name << "'.\n"
     << " * Self-contained JIT TU: compiled into a shared object and driven"
        " through\n"
     << " * polyast_kernel_run (see runtime/capi.hpp, ABI v"
     << kNativeKernelAbi << "). */\n";
  os << "#include <math.h>\n#include <stdint.h>\n#include <stdlib.h>\n\n";
  os << "#define POLYAST_MAX(a, b) ((a) > (b) ? (a) : (b))\n";
  os << "#define POLYAST_MIN(a, b) ((a) < (b) ? (a) : (b))\n\n";
  if (simd)
    os << "/* Packed microkernels use portable GCC/Clang vector extensions"
          " (no\n"
          " * intrinsics); aligned(8) permits unaligned loads/stores. */\n"
          "typedef double polyast_v4d\n"
          "    __attribute__((vector_size(32), aligned(8), may_alias));\n\n";
  os << nativeCapiDecls();
  os << "static const polyast_runtime_api *polyast_rt;\n"
        "static void *polyast_pool;\n\n";
  for (const auto& name : program.params)
    os << "static int64_t " << name << ";\n";
  os << "\n" << arrayDeclarations(program);
  os << minMaxHelpers(program);
  KernelFunctionOptions ko;
  ko.parallel = ParallelLowering::Runtime;
  ko.name = "polyast_kernel";
  ko.simd = simd;
  os << emitKernelFunction(program, ko) << "\n";
  os << "int64_t polyast_kernel_abi(void) { return " << kNativeKernelAbi
     << "; }\n\n";
  os << "void polyast_kernel_run(const polyast_kernel_args *polyast_args)"
        " {\n";
  for (std::size_t i = 0; i < program.params.size(); ++i)
    os << "  " << program.params[i] << " = polyast_args->params[" << i
       << "]; (void)" << program.params[i] << ";\n";
  for (std::size_t i = 0; i < program.arrays.size(); ++i)
    os << "  " << cname(program.arrays[i].name) << " = polyast_args->buffers["
       << i << "]; (void)" << cname(program.arrays[i].name) << ";\n";
  os << "  polyast_pool = polyast_args->pool; (void)polyast_pool;\n"
        "  polyast_rt = polyast_args->rt; (void)polyast_rt;\n"
        "  polyast_kernel();\n"
        "}\n";
  return os.str();
}

}  // namespace polyast::ir
