#include "exec/interp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/attrib.hpp"
#include "support/error.hpp"

namespace polyast::exec {

using ir::AffExpr;
using ir::Expr;

Context::Context(const ir::Program& program,
                 std::map<std::string, std::int64_t> paramOverrides) {
  params_ = program.paramDefaults;
  for (const auto& [k, v] : paramOverrides) {
    POLYAST_CHECK(params_.count(k), "override for unknown parameter: " + k);
    params_[k] = v;
  }
  for (const auto& a : program.arrays) {
    std::vector<std::int64_t> d;
    std::int64_t total = 1;
    for (const auto& dim : a.dims) {
      std::int64_t v = dim.evaluate(params_);
      POLYAST_CHECK(v > 0, "non-positive array dimension for " + a.name);
      d.push_back(v);
      total *= v;
    }
    dims_[a.name] = std::move(d);
    buffers_[a.name].assign(static_cast<std::size_t>(total), 0.0);
  }
}

std::int64_t Context::param(const std::string& name) const {
  auto it = params_.find(name);
  POLYAST_CHECK(it != params_.end(), "unknown parameter: " + name);
  return it->second;
}

std::vector<double>& Context::buffer(const std::string& array) {
  auto it = buffers_.find(array);
  POLYAST_CHECK(it != buffers_.end(), "unknown array: " + array);
  return it->second;
}

const std::vector<double>& Context::buffer(const std::string& array) const {
  auto it = buffers_.find(array);
  POLYAST_CHECK(it != buffers_.end(), "unknown array: " + array);
  return it->second;
}

const std::vector<std::int64_t>& Context::dims(const std::string& array) const {
  auto it = dims_.find(array);
  POLYAST_CHECK(it != dims_.end(), "unknown array: " + array);
  return it->second;
}

double& Context::at(const std::string& array,
                    const std::vector<std::int64_t>& indices) {
  const auto& d = dims(array);
  POLYAST_CHECK(indices.size() == d.size(),
                "rank mismatch accessing " + array);
  std::int64_t flat = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    POLYAST_CHECK(indices[i] >= 0 && indices[i] < d[i],
                  "index out of bounds accessing " + array + " dim " +
                      std::to_string(i) + " = " + std::to_string(indices[i]));
    flat = flat * d[i] + indices[i];
  }
  return buffer(array)[static_cast<std::size_t>(flat)];
}

void Context::seedAll() {
  for (auto& [name, buf] : buffers_) {
    std::uint64_t h = 1469598103934665603ull;
    for (char c : name) h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ull;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      std::uint64_t x = h ^ (i * 0x9e3779b97f4a7c15ull);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      // Values in [0.5, 1.5): well conditioned for products and sums.
      buf[i] = 0.5 + static_cast<double>(x % 1000003ull) / 1000003.0;
    }
  }
}

double Context::maxAbsDiff(const Context& other) const {
  double worst = 0.0;
  for (const auto& [name, buf] : buffers_) {
    auto it = other.buffers_.find(name);
    if (it == other.buffers_.end()) continue;
    POLYAST_CHECK(it->second.size() == buf.size(),
                  "buffer size mismatch for " + name);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      double x = buf[i], y = it->second[i];
      // Identical non-finite values (both NaN, or equal infinities) are
      // ties — legal reorderings keep per-cell operation sequences
      // identical, so overflow patterns must match exactly. A non-finite
      // value on one side only is a real divergence.
      if (std::isnan(x) || std::isnan(y)) {
        if (std::isnan(x) != std::isnan(y))
          return std::numeric_limits<double>::infinity();
        continue;
      }
      if (std::isinf(x) || std::isinf(y)) {
        if (x != y) return std::numeric_limits<double>::infinity();
        continue;
      }
      worst = std::max(worst, std::fabs(x - y));
    }
  }
  return worst;
}

namespace {

/// Marked loop -> attribution construct id (ir::collectParallelConstructs).
using ConstructIds = std::map<const ir::Loop*, std::int64_t>;

/// obs::constructEnter/constructExit around one dynamic encounter of a
/// construct's loop; inert for loops that are not constructs. RAII, so a
/// throwing body still closes the bracket.
class ConstructBracket {
 public:
  ConstructBracket(const ConstructIds* ids, const ir::Loop& l) {
    if (!ids) return;
    auto it = ids->find(&l);
    if (it == ids->end()) return;
    id_ = it->second;
    obs::constructEnter(id_, ir::parallelKindName(l.parallel).c_str(),
                        l.iter.c_str());
  }
  ~ConstructBracket() {
    if (id_ >= 0) obs::constructExit(id_);
  }
  ConstructBracket(const ConstructBracket&) = delete;
  ConstructBracket& operator=(const ConstructBracket&) = delete;

 private:
  std::int64_t id_ = -1;
};

class Machine {
 public:
  Machine(const ir::Program& program, Context& ctx, bool countOnly,
          const ConstructIds* constructs = nullptr)
      : prog_(program), ctx_(ctx), countOnly_(countOnly),
        constructs_(constructs) {
    for (const auto& [k, v] : ctx.params()) env_[k] = v;
  }

  std::int64_t execute() {
    walk(prog_.root);
    return instances_;
  }

  std::int64_t executeNode(const ir::NodePtr& node,
                           const std::map<std::string, std::int64_t>&
                               bindings) {
    for (const auto& [k, v] : bindings) env_[k] = v;
    walk(node);
    return instances_;
  }

 private:
  void walk(const ir::NodePtr& node) {
    switch (node->kind) {
      case ir::Node::Kind::Block: {
        for (const auto& c :
             std::static_pointer_cast<ir::Block>(node)->children)
          walk(c);
        break;
      }
      case ir::Node::Kind::Loop: {
        auto l = std::static_pointer_cast<ir::Loop>(node);
        const ConstructBracket bracket(constructs_, *l);
        // An empty bound list has no finite extreme: iterating from the
        // INT64 sentinel is undefined behaviour, so reject it outright.
        POLYAST_CHECK(!l->lower.parts.empty() && !l->upper.parts.empty(),
                      "loop '" + l->iter + "' has an empty bound list");
        std::int64_t lo = std::numeric_limits<std::int64_t>::min();
        for (const auto& part : l->lower.parts)
          lo = std::max(lo, part.evaluate(env_));
        std::int64_t hi = std::numeric_limits<std::int64_t>::max();
        for (const auto& part : l->upper.parts)
          hi = std::min(hi, part.evaluate(env_));
        POLYAST_CHECK(l->step >= 1, "non-positive loop step");
        // Restore any shadowed binding (an iterator name reused by an
        // inner loop, or bound by runSubtree).
        const bool shadowed = env_.count(l->iter) != 0;
        const std::int64_t saved = shadowed ? env_[l->iter] : 0;
        for (std::int64_t v = lo; v < hi; v += l->step) {
          env_[l->iter] = v;
          walk(l->body);
        }
        if (shadowed)
          env_[l->iter] = saved;
        else
          env_.erase(l->iter);
        break;
      }
      case ir::Node::Kind::Stmt: {
        auto s = std::static_pointer_cast<ir::Stmt>(node);
        bool live = true;
        for (const auto& g : s->guards)
          if (g.evaluate(env_) < 0) {
            live = false;
            break;
          }
        if (!live) break;
        ++instances_;
        if (countOnly_) break;
        std::vector<std::int64_t> idx;
        idx.reserve(s->lhsSubs.size());
        for (const auto& sub : s->lhsSubs) idx.push_back(sub.evaluate(env_));
        double value = eval(s->rhs);
        double& cell = ctx_.at(s->lhsArray, idx);
        switch (s->op) {
          case ir::AssignOp::Set: cell = value; break;
          case ir::AssignOp::AddAssign: cell += value; break;
          case ir::AssignOp::SubAssign: cell -= value; break;
          case ir::AssignOp::MulAssign: cell *= value; break;
          case ir::AssignOp::DivAssign: cell /= value; break;
        }
        break;
      }
    }
  }

  double eval(const ir::ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::IntLit:
        return static_cast<double>(e->intValue);
      case Expr::Kind::FloatLit:
        return e->floatValue;
      case Expr::Kind::IterRef:
      case Expr::Kind::ParamRef: {
        auto it = env_.find(e->name);
        POLYAST_CHECK(it != env_.end(), "unbound name: " + e->name);
        return static_cast<double>(it->second);
      }
      case Expr::Kind::ArrayRef: {
        std::vector<std::int64_t> idx;
        idx.reserve(e->subs.size());
        for (const auto& sub : e->subs) idx.push_back(sub.evaluate(env_));
        return ctx_.at(e->name, idx);
      }
      case Expr::Kind::Binary: {
        double a = eval(e->lhs);
        double b = eval(e->rhs);
        switch (e->binOp) {
          case ir::BinOp::Add: return a + b;
          case ir::BinOp::Sub: return a - b;
          case ir::BinOp::Mul: return a * b;
          case ir::BinOp::Div: return a / b;
          case ir::BinOp::Min: return std::min(a, b);
          case ir::BinOp::Max: return std::max(a, b);
          case ir::BinOp::Lt: return a < b ? 1.0 : 0.0;
          case ir::BinOp::Le: return a <= b ? 1.0 : 0.0;
          case ir::BinOp::Gt: return a > b ? 1.0 : 0.0;
          case ir::BinOp::Ge: return a >= b ? 1.0 : 0.0;
          case ir::BinOp::Eq: return a == b ? 1.0 : 0.0;
        }
        break;
      }
      case Expr::Kind::Unary: {
        double a = eval(e->lhs);
        switch (e->unOp) {
          case ir::UnOp::Neg: return -a;
          case ir::UnOp::Sqrt: return std::sqrt(a);
          case ir::UnOp::Exp: return std::exp(a);
          case ir::UnOp::Abs: return std::fabs(a);
        }
        break;
      }
      case Expr::Kind::Select:
        return eval(e->cond) != 0.0 ? eval(e->lhs) : eval(e->rhs);
    }
    POLYAST_CHECK(false, "unreachable expression kind");
  }

  const ir::Program& prog_;
  Context& ctx_;
  bool countOnly_;
  const ConstructIds* constructs_;
  std::map<std::string, std::int64_t> env_;
  std::int64_t instances_ = 0;
};

}  // namespace

void run(const ir::Program& program, Context& ctx) {
  Machine(program, ctx, /*countOnly=*/false).execute();
}

void runBracketed(const ir::Program& program, Context& ctx) {
  ConstructIds ids;
  for (const auto& c : ir::collectParallelConstructs(program))
    ids[c.loop.get()] = c.id;
  Machine(program, ctx, /*countOnly=*/false, &ids).execute();
}

void runSubtree(const ir::Program& program, Context& ctx,
                const ir::NodePtr& node,
                const std::map<std::string, std::int64_t>& bindings) {
  Machine(program, ctx, /*countOnly=*/false)
      .executeNode(node, bindings);
}

std::int64_t countInstances(const ir::Program& program, Context& ctx) {
  return Machine(program, ctx, /*countOnly=*/true).execute();
}

}  // namespace polyast::exec
