#include "exec/backend.hpp"

#include <sstream>

#include "exec/native_exec.hpp"
#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace polyast::exec {

std::string ParallelRunReport::summary() const {
  std::ostringstream os;
  os << "parallel execution [" << backend << "]: " << doallLoops
     << " doall (" << guidedLoops << " guided), " << reductionLoops
     << " reduction, " << pipelineLoops << " pipeline ("
     << pipelineDynamicLoops << " dynamic, " << pipeline3dLoops << " 3d), "
     << reductionPipelineLoops << " reduction-pipeline, "
     << sequentialFallbacks << " sequential fallback(s)";
  if (nativeCompiles + nativeCacheHits + nativeFallbacks > 0)
    os << "; native: " << nativeCompiles << " compile(s), "
       << nativeCacheHits << " cache hit(s), " << nativeFallbacks
       << " backend fallback(s)";
  for (const auto& n : notes) os << "\n  - " << n;
  return os.str();
}

void recordRunMetrics(const ParallelRunReport& report) {
  auto& m = obs::Registry::global();
  m.counter("exec.par.doall_loops").add(report.doallLoops);
  m.counter("exec.par.guided_loops").add(report.guidedLoops);
  m.counter("exec.par.reduction_loops").add(report.reductionLoops);
  m.counter("exec.par.pipeline_loops").add(report.pipelineLoops);
  m.counter("exec.par.pipeline_dynamic_loops")
      .add(report.pipelineDynamicLoops);
  m.counter("exec.par.pipeline3d_loops").add(report.pipeline3dLoops);
  m.counter("exec.par.reduction_pipeline_loops")
      .add(report.reductionPipelineLoops);
  m.counter("exec.par.sequential_fallbacks").add(report.sequentialFallbacks);
  if (report.nativeCompiles > 0)
    m.counter("exec.native.compiles").add(report.nativeCompiles);
  if (report.nativeCacheHits > 0)
    m.counter("exec.native.cache_hits").add(report.nativeCacheHits);
  if (report.nativeFallbacks > 0)
    m.counter("exec.native.fallbacks").add(report.nativeFallbacks);
  m.note("exec.backend", report.backend);
}

void Backend::prepare(const ir::Program&) {}

double Backend::toleranceFor(const ParallelRunReport& report) {
  const bool reassociates =
      report.reductionLoops + report.reductionPipelineLoops > 0;
  return reassociates ? 1e-9 : 0.0;
}

VerifyResult Backend::verify(const ir::Program& program, Context& ctx,
                             Context& oracle, runtime::ThreadPool& pool,
                             ParallelRunReport* reportOut,
                             obs::PerfAggregate* perf) {
  polyast::exec::run(program, oracle);  // the sequential interpreter
  ParallelRunReport report = this->run(program, ctx, pool, perf);
  VerifyResult result;
  result.maxAbsDiff = ctx.maxAbsDiff(oracle);
  result.tolerance = toleranceFor(report);
  if (reportOut) *reportOut = std::move(report);
  return result;
}

ParallelRunReport InterpBackend::run(const ir::Program& program,
                                     Context& ctx, runtime::ThreadPool&,
                                     obs::PerfAggregate* perf) {
  obs::Span span(obs::Tracer::global(), "exec.parallel", "exec");
  span.attr("program", program.name);
  span.attr("threads", std::int64_t{1});
  span.attr("backend", "interp");
  if (perf) perf->beginThread();
  // Per-construct attribution, bracketed tightly around the run (the
  // native backend brackets its kernel entry the same way, so this also
  // covers its degraded-to-interpreter path with the right backend).
  obs::ConstructProfiler* cprof = obs::ConstructProfiler::current();
  if (cprof) cprof->beginRun("interp");
  if (obs::constructHooksActive())
    runBracketed(program, ctx);
  else
    polyast::exec::run(program, ctx);
  if (cprof) cprof->endRun();
  if (perf) perf->endThread();
  ParallelRunReport report;  // dispatched nothing: every counter stays 0
  recordRunMetrics(report);
  return report;
}

std::vector<std::string> backendNames() { return {"interp", "native"}; }

bool hasBackend(const std::string& name) {
  for (const auto& n : backendNames())
    if (n == name) return true;
  return false;
}

std::unique_ptr<Backend> makeBackend(const std::string& name) {
  if (name == "interp") return std::make_unique<InterpBackend>();
  if (name == "native") return std::make_unique<NativeBackend>();
  POLYAST_CHECK(false, "unknown execution backend '" + name + "'");
}

}  // namespace polyast::exec
