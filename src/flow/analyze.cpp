#include "flow/analyze.hpp"

#include <utility>

namespace polyast::flow {

AnalyzePass::AnalyzePass(std::shared_ptr<analysis::AnalysisSession> session,
                         std::string point)
    : session_(std::move(session)), point_(std::move(point)) {}

PassResult AnalyzePass::run(ir::Program& program, PassContext& ctx) {
  const auto& engine = session_->engine();
  std::size_t errors0 = engine.errors();
  std::size_t warnings0 = engine.warnings();
  session_->analyze(program, point_, ctx.dependences);

  PassResult r;
  r.counters["diag_errors"] =
      static_cast<std::int64_t>(engine.errors() - errors0);
  r.counters["diag_warnings"] =
      static_cast<std::int64_t>(engine.warnings() - warnings0);
  if (engine.errors() > errors0) {
    // Surface the first new error in the pass report; the full list stays
    // on the engine.
    for (std::size_t i = engine.diagnostics().size(); i-- > 0;) {
      const auto& d = engine.diagnostics()[i];
      if (d.severity == analysis::Severity::Error && d.afterPass == point_) {
        r.note = d.str();
        break;
      }
    }
  }
  return r;
}

PassPipeline withAnalysis(
    const PassPipeline& pipe,
    std::shared_ptr<analysis::AnalysisSession> session) {
  PassPipeline out(pipe.name());
  out.nameSuffix = pipe.nameSuffix;
  out.add(std::make_shared<AnalyzePass>(session, "<input>"));
  for (const auto& p : pipe.passes()) {
    out.add(p);
    out.add(std::make_shared<AnalyzePass>(session, p->name()));
  }
  return out;
}

}  // namespace polyast::flow
