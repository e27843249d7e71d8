#include "flow/pipeline.hpp"

#include <chrono>
#include <optional>
#include <ostream>
#include <sstream>

#include "dl/dl_predict.hpp"
#include "ir/cemit.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"

namespace polyast::flow {

namespace {

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mirrors one executed pass into the metrics registry — the single write
/// site every registry consumer (`--metrics-out`, the bench artifacts)
/// observes, so it cannot drift from the PipelineReport.
void recordPassMetrics(obs::Registry& metrics, const PassReport& record) {
  metrics.counter("flow." + record.pass + ".runs").add();
  if (record.rssHwmKb > 0)
    metrics.gauge("flow." + record.pass + ".rss_hwm_kb")
        .set(static_cast<double>(record.rssHwmKb));
  for (const auto& [name, value] : record.counters)
    metrics.counter("flow." + name).add(value);
  if (!record.succeeded) {
    metrics.counter("flow." + record.pass + ".fallbacks").add();
    metrics.note("flow." + record.pass + ".fallback_reason", record.note);
  }
  if (record.semanticsBroken) {
    metrics.counter("flow.verify.breaks").add();
    metrics.note("flow.verify.break." + record.pass, record.verifyNote);
  }
}

}  // namespace

PassPipeline& PassPipeline::add(std::shared_ptr<Pass> pass) {
  POLYAST_CHECK(pass != nullptr, "null pass added to pipeline");
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<std::string> PassPipeline::passNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

ir::Program PassPipeline::run(const ir::Program& input) const {
  PassContext ctx;
  return run(input, ctx);
}

ir::Program PassPipeline::run(const ir::Program& input,
                              PassContext& ctx) const {
  auto pipelineStart = std::chrono::steady_clock::now();
  obs::Tracer& tracer = obs::Tracer::global();
  // Lazy name: the concatenation runs only when tracing is enabled, so a
  // disabled compile pays one relaxed load here, not a string build.
  obs::Span pipelineSpan(
      tracer, [this] { return "pipeline:" + name_; }, "flow");
  pipelineSpan.attr("program", input.name);
  pipelineSpan.attr("passes",
                    static_cast<std::int64_t>(passes_.size()));
  ir::Program out = input.deepCopy();
  // However the run ends, drop the dependence analysis of `out`.
  struct ClearDependences {
    poly::DependenceCache& cache;
    ~ClearDependences() { cache.clear(); }
  } clearDependences{ctx.dependences};

  // Reference execution for the inter-pass oracle: run the *input* once;
  // every pass output must reproduce these buffers exactly.
  std::optional<exec::Context> reference;
  std::int64_t referenceInstances = 0;
  if (ctx.verify.enabled) {
    reference.emplace(ctx.makeOracleContext(input));
    referenceInstances = exec::countInstances(input, *reference);
    exec::run(input, *reference);
  }

  for (const auto& pass : passes_) {
    PassReport record;
    record.pass = pass->name();
    obs::Span span(tracer, pass->name(), "pass");
    auto t0 = std::chrono::steady_clock::now();
    PassResult result = pass->run(out, ctx);
    record.millis = msSince(t0);
    record.rssHwmKb = obs::selfprof::peakRssKb();
    record.succeeded = result.succeeded;
    record.counters = std::move(result.counters);
    record.note = std::move(result.note);
    span.attr("succeeded", record.succeeded);
    if (record.rssHwmKb > 0) span.attr("rss_hwm_kb", record.rssHwmKb);
    for (const auto& [name, value] : record.counters)
      span.attr(name, value);
    if (!record.note.empty()) span.attr("note", record.note);

    if (ctx.dump.wants(record.pass)) {
      *ctx.dump.stream << "// ---- after pass '" << record.pass << "' ----\n"
                       << (ctx.dump.asC ? ir::emitC(out)
                                        : ir::printProgram(out));
    }

    if (ctx.verify.enabled) {
      exec::Context current = ctx.makeOracleContext(out);
      std::int64_t instances = exec::countInstances(out, current);
      exec::run(out, current);
      double diff = reference->maxAbsDiff(current);
      record.verified = true;
      record.oracleMaxAbsDiff = diff;
      span.attr("verified", true);
      span.attr("oracle_max_abs_diff", diff);
      if (instances != referenceInstances || diff > ctx.verify.tolerance) {
        std::ostringstream os;
        if (instances != referenceInstances)
          os << "executed " << instances << " statement instances, expected "
             << referenceInstances;
        else
          os << "max |diff| " << diff << " exceeds tolerance "
             << ctx.verify.tolerance;
        if (!ctx.verify.continueAfterFailure) {
          recordPassMetrics(*ctx.metrics, record);
          ctx.report.passes.push_back(std::move(record));
          ctx.report.totalMillis = msSince(pipelineStart);
          throw VerificationError(pass->name(), os.str());
        }
        // Record the break and re-base the oracle reference onto the
        // broken output, so the next pass is judged only on divergence it
        // introduces itself.
        record.semanticsBroken = true;
        record.verifyNote = os.str();
        span.attr("semantics_broken", true);
        // The attr vector is built before instant() can check enabled();
        // guard here so a disabled run never pays for it.
        if (tracer.enabled())
          tracer.instant("semantics-break", "verify",
                         {{"pass", obs::AttrValue(pass->name())}});
        reference = std::move(current);
        referenceInstances = instances;
      }
    }
    recordPassMetrics(*ctx.metrics, record);
    ctx.report.passes.push_back(std::move(record));
  }

  out.name = input.name + nameSuffix;
  ctx.report.totalMillis = msSince(pipelineStart);
  ctx.metrics->gauge("flow.total_millis").set(ctx.report.totalMillis);

  // Schedule selection is final here: record what the DL model predicts
  // for the loop structure the pipeline just committed to (dl.predict.*),
  // so `--perf` runs can put measured counters next to it (dlcheck).
  dl::recordPrediction(
      dl::predictProgram(out, ctx.verify.params), *ctx.metrics);
  return out;
}

}  // namespace polyast::flow
