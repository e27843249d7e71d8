#include "analysis/mutations.hpp"

#include <algorithm>
#include <ostream>

#include "analysis/analysis.hpp"
#include "support/error.hpp"

namespace polyast::analysis {

namespace {

using ir::AffExpr;
using ir::Loop;
using ir::Node;
using ir::NodePtr;

std::shared_ptr<Loop> findLoop(const NodePtr& n, const std::string& iter) {
  switch (n->kind) {
    case Node::Kind::Block:
      for (const auto& c : std::static_pointer_cast<ir::Block>(n)->children)
        if (auto l = findLoop(c, iter)) return l;
      return nullptr;
    case Node::Kind::Loop: {
      auto l = std::static_pointer_cast<Loop>(n);
      if (l->iter == iter) return l;
      return findLoop(l->body, iter);
    }
    case Node::Kind::Stmt:
      return nullptr;
  }
  return nullptr;
}

std::shared_ptr<Loop> requireLoop(ir::Program& p, const std::string& iter) {
  auto l = findLoop(p.root, iter);
  POLYAST_CHECK(l != nullptr, "mutation: no loop '" + iter + "'");
  return l;
}

}  // namespace

const std::vector<Mutation>& mutationCorpus() {
  static const std::vector<Mutation> corpus = {
      {"interchange-illegal", "seidel-2d", "legality", "violated-dependence",
       "swap the i/j loop headers of seidel-2d; the (0,1,-1) stencil "
       "dependence flips",
       [](ir::Program& p) {
         auto i = requireLoop(p, "i");
         auto j = requireLoop(p, "j");
         std::swap(i->iter, j->iter);
         std::swap(i->lower, j->lower);
         std::swap(i->upper, j->upper);
         std::swap(i->step, j->step);
       }},
      {"reversal-illegal", "gemm", "legality", "violated-dependence",
       "reverse the gemm k loop by substituting k -> NK-1-k in its body; "
       "the accumulation order flips",
       [](ir::Program& p) {
         auto k = requireLoop(p, "k");
         POLYAST_CHECK(k->upper.isSingle(), "mutation: multi-part upper");
         ir::substituteIterInTree(
             k->body, "k",
             k->upper.single() - AffExpr(1) - AffExpr::term("k"));
       }},
      {"overfuse-illegal", "jacobi-1d-imper", "legality",
       "violated-dependence",
       "fuse the two inner loops of jacobi-1d-imper into one; the "
       "loop-independent anti dependence S2 -> S1 flips at the fused level",
       [](ir::Program& p) {
         auto t = requireLoop(p, "t");
         POLYAST_CHECK(t->body->children.size() == 2,
                       "mutation: expected two loops under t");
         auto a = std::static_pointer_cast<Loop>(t->body->children[0]);
         auto b = std::static_pointer_cast<Loop>(t->body->children[1]);
         ir::renameIterInTree(b, b->iter, a->iter);
         for (const auto& c : b->body->children)
           a->body->children.push_back(c);
         t->body->children.pop_back();
       }},
      {"doall-race", "seidel-2d", "races", "doall-race",
       "mark the seidel-2d i loop Doall; it carries the stencil "
       "dependences",
       [](ir::Program& p) {
         requireLoop(p, "i")->parallel = ir::ParallelKind::Doall;
       }},
      {"false-reduction", "seidel-2d", "races", "reduction-race",
       "mark the seidel-2d t loop Reduction; its carried dependences are "
       "not accumulator updates",
       [](ir::Program& p) {
         requireLoop(p, "t")->parallel = ir::ParallelKind::Reduction;
       }},
      {"dropped-sync", "seidel-2d", "races", "pipeline-race",
       "mark the seidel-2d t loop Pipeline; the (1,-1,0) dependence is "
       "not covered by the point-to-point sync pattern",
       [](ir::Program& p) {
         requireLoop(p, "t")->parallel = ir::ParallelKind::Pipeline;
       }},
      {"subscript-overflow", "gemm", "bounds", "out-of-bounds",
       "widen the gemm update's lhs column subscript to C[i][j+1]; the "
       "last column runs past the extent",
       [](ir::Program& p) {
         auto stmts = p.statements();
         POLYAST_CHECK(stmts.size() == 2, "mutation: expected two stmts");
         stmts[1]->lhsSubs[1] += AffExpr(1);
       }},
      {"nonassoc-relaxation", "gemm", "reductions", "unproven-relaxation",
       "turn the gemm update into C[i][j] *= ... while keeping it flagged "
       "a reduction and marking the k loop Reduction; the operator left "
       "the associative whitelist, so the edge has no purity proof",
       [](ir::Program& p) {
         auto stmts = p.statements();
         POLYAST_CHECK(stmts.size() == 2, "mutation: expected two stmts");
         stmts[1]->op = ir::AssignOp::MulAssign;
         stmts[1]->isReductionUpdate = true;  // the flag is never trusted
         requireLoop(p, "k")->parallel = ir::ParallelKind::Reduction;
       }},
      {"escaped-relaxation", "gemm", "reductions", "escaped-relaxation",
       "mark the gemm k loop Doall; the proven-pure accumulation edge on "
       "C is interleaved by a construct that will not privatize it",
       [](ir::Program& p) {
         requireLoop(p, "k")->parallel = ir::ParallelKind::Doall;
       }},
      {"aliased-accumulation", "gemm", "reductions", "unproven-relaxation",
       "insert a plain store C[i][0] = 0.0 into the gemm k loop marked "
       "Reduction; the may-alias write between accumulations voids the "
       "purity proof (and makes C unprivatizable)",
       [](ir::Program& p) {
         auto k = requireLoop(p, "k");
         k->parallel = ir::ParallelKind::Reduction;
         auto stmts = p.statements();
         int maxId = 0;
         for (const auto& s : stmts) maxId = std::max(maxId, s->id);
         auto store = std::make_shared<ir::Stmt>();
         store->id = maxId + 1;
         store->label = "Sz";
         store->op = ir::AssignOp::Set;
         store->lhsArray = "C";
         store->lhsSubs = {AffExpr::term("i"), AffExpr(0)};
         store->rhs = ir::floatLit(0.0);
         k->body->children.insert(k->body->children.begin(), store);
       }},
  };
  return corpus;
}

std::vector<MutationOutcome> runMutationCorpus(
    const std::function<ir::Program(const std::string&)>& buildKernel,
    std::ostream* log) {
  std::vector<MutationOutcome> out;
  for (const auto& m : mutationCorpus()) {
    MutationOutcome oc;
    oc.mutation = &m;
    ir::Program prog = buildKernel(m.kernel);
    AnalysisSession session;
    poly::DependenceCache deps;
    session.analyze(prog, "<input>", deps);
    oc.cleanBefore = session.engine().errors() == 0;
    m.apply(prog);
    session.analyze(prog, "mutant:" + m.name, deps);
    for (const auto& d : session.engine().diagnostics()) {
      if (d.severity != Severity::Error) continue;
      if (d.analysis == m.expectAnalysis && d.code == m.expectCode) {
        oc.caught = true;
        oc.note = d.str();
        break;
      }
    }
    if (!oc.caught)
      oc.note = session.engine().diagnostics().empty()
                    ? "no diagnostics"
                    : session.engine().diagnostics().back().str();
    if (log)
      *log << "[mutation] " << m.name << ": "
           << (oc.cleanBefore && oc.caught ? "caught" : "MISSED") << " — "
           << oc.note << "\n";
    out.push_back(std::move(oc));
  }
  return out;
}

bool allMutationsCaught(const std::vector<MutationOutcome>& outcomes) {
  for (const auto& oc : outcomes)
    if (!oc.cleanBefore || !oc.caught) return false;
  return !outcomes.empty();
}

}  // namespace polyast::analysis
