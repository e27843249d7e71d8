// Observability-layer tests: span nesting (including across threads),
// histogram bucket semantics, exporter round-trips through the bundled
// JSON parser, the pipeline integration (one span per executed pass, the
// registry mirroring the pipeline report, continue-after-failure
// verification), and the native JIT's parallel lowering validated against
// the sequential interpreter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "exec/native_exec.hpp"
#include "flow/presets.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace polyast::obs {
namespace {

const SpanRecord* findSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

TEST(Trace, DisabledSpanIsInertAndRecordsNothing) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    Span s(tracer, "outer", "test");
    EXPECT_FALSE(s.active());
    s.attr("k", std::int64_t{1});  // must be a no-op, not a crash
  }
  tracer.instant("i", "test");
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Trace, LazySpanCostsNothingWhenDisabled) {
  // The disabled-cost guarantee for dynamic names and attributes: the
  // builder lambdas must never run while the tracer is off — a disabled
  // run pays one relaxed atomic load, no string assembly.
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  int nameBuilds = 0;
  int attrBuilds = 0;
  {
    Span s(
        tracer,
        [&] {
          ++nameBuilds;
          return std::string("lazy:name");
        },
        "test");
    EXPECT_FALSE(s.active());
    s.attrLazy("k", [&] {
      ++attrBuilds;
      return std::int64_t{42};
    });
  }
  EXPECT_EQ(nameBuilds, 0);
  EXPECT_EQ(attrBuilds, 0);
  EXPECT_TRUE(tracer.spans().empty());

  // Enabled: both builders run exactly once and land in the record.
  tracer.setEnabled(true);
  {
    Span s(
        tracer,
        [&] {
          ++nameBuilds;
          return std::string("lazy:name");
        },
        "test");
    EXPECT_TRUE(s.active());
    s.attrLazy("k", [&] {
      ++attrBuilds;
      return std::int64_t{42};
    });
  }
  EXPECT_EQ(nameBuilds, 1);
  EXPECT_EQ(attrBuilds, 1);
  std::vector<SpanRecord> spans = tracer.spans();
  const SpanRecord* rec = findSpan(spans, "lazy:name");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->attrs.size(), 1u);
  EXPECT_EQ(rec->attrs[0].first, "k");
  EXPECT_EQ(std::get<std::int64_t>(rec->attrs[0].second), 42);
}

TEST(Trace, NestingWithinAThreadAndIsolationAcrossThreads) {
  Tracer tracer;
  tracer.setEnabled(true);
  {
    Span outer(tracer, "outer", "test");
    Span inner(tracer, "inner", "test");
    // Sibling work on other threads must not parent under this thread's
    // open spans.
    std::thread a([&] {
      tracer.nameCurrentThread("worker-a");
      Span s(tracer, "thread-a", "test");
    });
    std::thread b([&] { Span s(tracer, "thread-b", "test"); });
    a.join();
    b.join();
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  const SpanRecord* outer = findSpan(spans, "outer");
  const SpanRecord* inner = findSpan(spans, "inner");
  const SpanRecord* ta = findSpan(spans, "thread-a");
  const SpanRecord* tb = findSpan(spans, "thread-b");
  ASSERT_TRUE(outer && inner && ta && tb);
  EXPECT_EQ(outer->parentId, 0u);
  EXPECT_EQ(inner->parentId, outer->id);
  EXPECT_EQ(ta->parentId, 0u);
  EXPECT_EQ(tb->parentId, 0u);
  EXPECT_EQ(outer->threadId, inner->threadId);
  EXPECT_NE(ta->threadId, outer->threadId);
  EXPECT_NE(tb->threadId, outer->threadId);
  EXPECT_NE(ta->threadId, tb->threadId);
  // Time containment (what Chrome uses to nest): the child started no
  // earlier and ended no later than its parent.
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durNs, outer->startNs + outer->durNs);
  auto names = tracer.threadNames();
  ASSERT_TRUE(names.count(ta->threadId));
  EXPECT_EQ(names.at(ta->threadId), "worker-a");
}

TEST(Trace, EndIsIdempotentAndClearResetsEpoch) {
  Tracer tracer;
  tracer.setEnabled(true);
  Span s(tracer, "once", "test");
  s.end();
  s.end();
  EXPECT_EQ(tracer.spans().size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Metrics, HistogramBucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  // Bucket i counts x <= bounds[i]: boundary values land in the earlier
  // bucket, everything above the last bound in the overflow bucket.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.0000001);
  h.observe(10.0);
  h.observe(100.0);
  h.observe(1e6);
  auto buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(Metrics, ExpBoundsShape) {
  auto b = expBounds(2.0, 4.0, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
  EXPECT_DOUBLE_EQ(b[1], 8.0);
  EXPECT_DOUBLE_EQ(b[2], 32.0);
}

TEST(Metrics, RegistrySharesInstrumentsByNameAndSurvivesReset) {
  Registry reg;
  Counter& c1 = reg.counter("x");
  Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.note("n", "hello");
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("x"), 3);
  EXPECT_EQ(snap.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.notes.at("n"), "hello");
  reg.reset();
  c1.add(1);  // reference from before reset() must still be live
  EXPECT_EQ(reg.snapshot().counter("x"), 1);
  EXPECT_TRUE(reg.snapshot().notes.empty());
}

TEST(Json, WriterEscapesAndParserRoundTrips) {
  std::ostringstream out;
  JsonWriter w(out);
  w.beginObject();
  w.key("quote\"and\\slash").value("line\nbreak\ttab");
  w.key("num").value(-12.5);
  w.key("int").value(std::int64_t{-7});
  w.key("flag").value(true);
  w.key("nil").null();
  w.key("arr").beginArray().value(1).value(2).endArray();
  w.endObject();
  JsonValue v = parseJson(out.str());
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("quote\"and\\slash")->text, "line\nbreak\ttab");
  EXPECT_DOUBLE_EQ(v.find("num")->number, -12.5);
  EXPECT_DOUBLE_EQ(v.find("int")->number, -7.0);
  EXPECT_TRUE(v.find("flag")->boolValue);
  EXPECT_EQ(v.find("nil")->kind, JsonValue::Kind::Null);
  ASSERT_EQ(v.find("arr")->items.size(), 2u);
  EXPECT_THROW(parseJson("{\"unterminated\": "), Error);
  EXPECT_THROW(parseJson("{} trailing"), Error);
}

TEST(Export, ChromeTraceRoundTrip) {
  Tracer tracer;
  tracer.setEnabled(true);
  tracer.nameCurrentThread("main");
  {
    Span outer(tracer, "outer", "flow");
    outer.attr("program", "gemm");
    outer.attr("count", std::int64_t{3});
    Span inner(tracer, "inner", "pass");
    inner.attr("ok", true);
  }
  tracer.instant("mark", "verify");

  std::ostringstream out;
  writeChromeTrace(out, tracer);
  JsonValue v = parseJson(out.str());
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("displayTimeUnit")->text, "ms");
  const JsonValue* events = v.find("traceEvents");
  ASSERT_TRUE(events && events->isArray());
  bool sawThreadName = false, sawOuter = false, sawInner = false,
       sawInstant = false;
  for (const auto& ev : events->items) {
    const std::string& ph = ev.find("ph")->text;
    const std::string& name = ev.find("name")->text;
    if (ph == "M" && name == "thread_name") {
      sawThreadName = true;
      EXPECT_EQ(ev.find("args")->find("name")->text, "main");
    } else if (ph == "X" && name == "outer") {
      sawOuter = true;
      EXPECT_EQ(ev.find("cat")->text, "flow");
      EXPECT_EQ(ev.find("args")->find("program")->text, "gemm");
      EXPECT_DOUBLE_EQ(ev.find("args")->find("count")->number, 3.0);
      EXPECT_GE(ev.find("dur")->number, 0.0);
    } else if (ph == "X" && name == "inner") {
      sawInner = true;
      // parent_id cross-references the enclosing span's span_id.
      EXPECT_TRUE(ev.find("args")->find("parent_id"));
      EXPECT_TRUE(ev.find("args")->find("ok")->boolValue);
    } else if (ph == "i" && name == "mark") {
      sawInstant = true;
      EXPECT_EQ(ev.find("s")->text, "t");
    }
  }
  EXPECT_TRUE(sawThreadName);
  EXPECT_TRUE(sawOuter);
  EXPECT_TRUE(sawInner);
  EXPECT_TRUE(sawInstant);
}

TEST(Export, MetricsJsonAndCsvRoundTrip) {
  Registry reg;
  reg.counter("a.count").add(42);
  reg.gauge("b.gauge").set(1.25);
  Histogram& h = reg.histogram("c.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  reg.note("d.note", "free \"text\"");
  auto snap = reg.snapshot();

  std::ostringstream out;
  writeMetricsJson(out, snap);
  JsonValue v = parseJson(out.str());
  EXPECT_EQ(v.find("schema")->text, "polyast-metrics-v1");
  EXPECT_DOUBLE_EQ(v.find("counters")->find("a.count")->number, 42.0);
  EXPECT_DOUBLE_EQ(v.find("gauges")->find("b.gauge")->number, 1.25);
  const JsonValue* hist = v.find("histograms")->find("c.hist");
  ASSERT_TRUE(hist);
  ASSERT_EQ(hist->find("bounds")->items.size(), 2u);
  ASSERT_EQ(hist->find("bucket_counts")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(hist->find("bucket_counts")->items[0].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("bucket_counts")->items[1].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("bucket_counts")->items[2].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 3.0);
  EXPECT_EQ(v.find("notes")->find("d.note")->text, "free \"text\"");

  std::ostringstream csv;
  writeMetricsCsv(csv, snap);
  EXPECT_NE(csv.str().find("kind,name,key,value"), std::string::npos);
  EXPECT_NE(csv.str().find("counter,\"a.count\",value,42"),
            std::string::npos);

  EXPECT_FALSE(metricsSummary(snap).empty());
}

}  // namespace
}  // namespace polyast::obs

namespace polyast::flow {
namespace {

std::map<std::string, std::int64_t> oddParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = (name == "TSTEPS") ? 3 : 7;
  return params;
}

/// Deliberately breaks semantics by making every statement dead.
class BreakPass final : public Pass {
 public:
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext&) override {
    for (const auto& stmt : program.statements())
      stmt->guards.push_back(ir::AffExpr(-1));
    return {};
  }

 private:
  inline static const std::string name_ = "break-semantics";
};

/// Breaks semantics the other way: revives statements BreakPass killed.
/// Relative to a reference rebased onto BreakPass's output this is a
/// second, independent break.
class UnbreakPass final : public Pass {
 public:
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext&) override {
    for (const auto& stmt : program.statements()) stmt->guards.clear();
    return {};
  }

 private:
  inline static const std::string name_ = "unbreak-semantics";
};

TEST(PipelineObs, OneSpanPerExecutedPass) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  ir::Program p = kernels::buildKernel("gemm");
  PassContext ctx;
  obs::Registry local;
  ctx.metrics = &local;
  makePipeline("polyast").run(p, ctx);
  tracer.setEnabled(false);
  auto spans = tracer.spans();
  tracer.clear();

  std::size_t passSpans = 0;
  const obs::SpanRecord* pipelineSpan = nullptr;
  for (const auto& s : spans) {
    if (s.category == "pass") ++passSpans;
    if (s.name == "pipeline:polyast") pipelineSpan = &s;
  }
  ASSERT_TRUE(pipelineSpan != nullptr);
  EXPECT_EQ(passSpans, ctx.report.passes.size());
  // Every pass span is a child of the pipeline span.
  for (const auto& s : spans) {
    if (s.category == "pass") {
      EXPECT_EQ(s.parentId, pipelineSpan->id);
    }
  }
}

TEST(PipelineObs, FlowReportIsAViewOverTheRegistry) {
  ir::Program p = kernels::buildKernel("gemm");
  PassContext ctx;
  obs::Registry local;
  ctx.metrics = &local;
  makePipeline("polyast").run(p, ctx);
  auto m = local.snapshot();
  // Per-pass run counters: one per executed pass.
  for (const auto& rec : ctx.report.passes)
    EXPECT_EQ(m.counter("flow." + rec.pass + ".runs"), 1) << rec.pass;
  // Stage counters reach the registry under the flow. prefix with the
  // same totals the report sums.
  for (const char* c : {"doall", "skews", "bands_tiled"})
    EXPECT_EQ(m.counter(std::string("flow.") + c),
              ctx.report.counter(c))
        << c;
  EXPECT_GT(m.gauges.at("flow.total_millis"), 0.0);
  // Nothing leaked into the global registry's flow.<pass>.runs for this
  // isolated run: the pipeline wrote only through ctx.metrics.
}

TEST(PipelineObs, ContinueAfterFailureRecordsEveryBreak) {
  ir::Program p = kernels::buildKernel("gemm");
  PassPipeline pipe("doubly-broken");
  pipe.add(std::make_shared<BreakPass>())
      .add(std::make_shared<UnbreakPass>());
  PassContext ctx;
  obs::Registry local;
  ctx.metrics = &local;
  ctx.verify.enabled = true;
  ctx.verify.continueAfterFailure = true;
  auto params = oddParams(p);
  ctx.verify.makeContext = [params](const ir::Program& q) {
    return kernels::makeContext(q, params);
  };
  EXPECT_NO_THROW(pipe.run(p, ctx));
  ASSERT_EQ(ctx.report.passes.size(), 2u);
  EXPECT_TRUE(ctx.report.passes[0].semanticsBroken);
  // The reference was rebased onto the first break, so the second pass is
  // charged with its own (reverting) change — not exonerated by undoing
  // the first one.
  EXPECT_TRUE(ctx.report.passes[1].semanticsBroken);
  EXPECT_EQ(ctx.report.brokenPasses(), 2);
  EXPECT_EQ(local.snapshot().counter("flow.verify.breaks"), 2);
  EXPECT_NE(ctx.report.summary().find("BROKE SEMANTICS"), std::string::npos);
}

}  // namespace
}  // namespace polyast::flow

namespace polyast::exec {
namespace {

std::map<std::string, std::int64_t> oddParams(const ir::Program& p) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : p.params)
    params[name] = (name == "TSTEPS") ? 3 : 7;
  return params;
}

// The ParExec tests drive the native JIT backend — the only executor that
// maps parallelism marks onto the runtime — and check it against the
// sequential interpreter. They skip without a C compiler, like
// native_exec_test.

bool haveCompiler() {
  return std::system("command -v cc > /dev/null 2>&1") == 0;
}

/// JIT cache private to this process, removed at exit, so runs never
/// share (or leave behind) compiled objects.
const std::string& privateJitCache() {
  struct Dir {
    std::string path;
    Dir() {
      char tmpl[] = "/tmp/polyast_obs_test_XXXXXX";
      const char* d = mkdtemp(tmpl);
      path = d ? d : "/tmp/polyast_obs_test_fallback";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
  };
  static const Dir dir;
  return dir.path;
}

struct NativeRun {
  ParallelRunReport report;
  VerifyResult check;
};

/// Optimizes `kernel` with `preset`, runs it natively on 3 threads and
/// verifies it against the sequential interpreter. A degraded run fails:
/// these tests are about the parallel lowering, not the fallback.
NativeRun runNative(const std::string& kernel,
                    const std::string& preset = "polyast") {
  ir::Program p = kernels::buildKernel(kernel);
  flow::PassContext ctx;
  obs::Registry local;
  ctx.metrics = &local;
  ir::Program q = flow::makePipeline(preset).run(p, ctx);
  auto params = oddParams(q);
  Context seq = kernels::makeContext(q, params);
  Context par = kernels::makeContext(q, params);
  runtime::ThreadPool pool(3);
  NativeBackendOptions opts;
  opts.cacheDir = privateJitCache();
  NativeBackend native(opts);
  NativeRun r;
  r.check = native.verify(q, par, seq, pool, &r.report);
  EXPECT_EQ(r.report.backend, "native") << kernel << " / " << preset;
  EXPECT_EQ(r.report.nativeFallbacks, 0) << r.report.summary();
  return r;
}

TEST(ParExec, DoallKernelRunsInParallelAndMatches) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("gemm");
  EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0);
  EXPECT_GE(r.report.doallLoops, 1);
  EXPECT_FALSE(r.report.summary().empty());
}

TEST(ParExec, PipelineKernelMatches) {
  // seidel-2d carries loop dependences: the flow marks pipelines, and the
  // lowering either maps them onto a pipeline construct or falls back
  // sequentially — both must match the sequential interpretation exactly.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("seidel-2d");
  EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0);
  EXPECT_GE(r.report.pipelineLoops + r.report.sequentialFallbacks, 1);
}

TEST(ParExec, EmitsRuntimeSpansWhenTraced) {
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  NativeRun r = runNative("gemm");
  tracer.setEnabled(false);
  auto spans = tracer.spans();
  tracer.clear();
  EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0);
  std::size_t chunks = 0;
  bool sawHarness = false;
  for (const auto& s : spans) {
    if (s.name == "doall.chunk") ++chunks;
    if (s.name == "exec.parallel") sawHarness = true;
  }
  EXPECT_TRUE(sawHarness);
  EXPECT_GE(chunks, 1u);
}

TEST(ParExec, EveryKernelMatchesSequentialWithNoFallbacks) {
  // Full lowering coverage: across the whole PolyBench table and both the
  // tiled and untiled flows, every parallelism mark must reach a runtime
  // construct (zero sequential fallbacks) and the parallel buffers must
  // match the sequential interpretation — bit-for-bit for doall/pipeline
  // execution (statement instances are merely reordered), and within
  // reassociation tolerance when reduction accumulators were privatized.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  for (const auto& info : kernels::allKernels()) {
    for (const char* preset : {"polyast", "polyast-notile"}) {
      NativeRun r = runNative(info.name, preset);
      const ParallelRunReport& rep = r.report;
      EXPECT_EQ(rep.sequentialFallbacks, 0)
          << info.name << " / " << preset << "\n"
          << rep.summary();
      const bool reassociates =
          rep.reductionLoops + rep.reductionPipelineLoops > 0;
      if (reassociates)
        EXPECT_LE(r.check.maxAbsDiff, 1e-9) << info.name << " / " << preset;
      else
        EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0)
            << info.name << " / " << preset;
    }
  }
}

TEST(ParExec, ReductionKernelPrivatizesAndMatches) {
  // mvt's fused form reduces into x1 and x2: the lowering must map the
  // marks onto parallelReduce (not fall back) and merge per-thread
  // accumulators into the shared targets.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("mvt");
  EXPECT_GE(r.report.reductionLoops, 1);
  EXPECT_EQ(r.report.sequentialFallbacks, 0) << r.report.summary();
  EXPECT_LE(r.check.maxAbsDiff, 1e-9);
}

TEST(ParExec, TimeTiledStencilUsesPipeline3D) {
  // seidel-2d's time-tiled nest is a rectangular 3-deep tile chain whose
  // mark claims sync depth 3: the lowering must use the 3D doacross grid.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("seidel-2d");
  EXPECT_GE(r.report.pipeline3dLoops, 1) << r.report.summary();
  EXPECT_EQ(r.report.sequentialFallbacks, 0);
  EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0);
}

TEST(ParExec, SkewedStencilUsesDynamicPipeline) {
  // Untiled jacobi-1d-imper is a skewed (non-rectangular) pipeline with a
  // non-unit inner step whose rows share one stride lattice: the dynamic
  // 2D doacross must apply instead of a sequential fallback.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("jacobi-1d-imper", "polyast-notile");
  EXPECT_GE(r.report.pipelineDynamicLoops, 1) << r.report.summary();
  EXPECT_EQ(r.report.sequentialFallbacks, 0);
  EXPECT_DOUBLE_EQ(r.check.maxAbsDiff, 0.0);
}

TEST(ParExec, GuidedScheduleSelectedForImbalancedDoall) {
  // symm's triangular doall loops reference the marked iterator in inner
  // bounds; the lowering must pick the guided schedule for them.
  if (!haveCompiler()) GTEST_SKIP() << "no C compiler on PATH";
  NativeRun r = runNative("symm");
  EXPECT_GE(r.report.guidedLoops, 1) << r.report.summary();
  EXPECT_EQ(r.report.sequentialFallbacks, 0);
  EXPECT_LE(r.check.maxAbsDiff, 1e-9);
}

TEST(ParExec, RunSubtreeExecutesWithBindings) {
  // i-loop body executed directly for i = 2 must touch exactly row 2.
  ir::Program p = kernels::buildKernel("gemm");
  auto params = oddParams(p);
  Context full = kernels::makeContext(p, params);
  Context partial = kernels::makeContext(p, params);
  run(p, full);
  ASSERT_EQ(p.root->children.size(), 1u);
  ASSERT_EQ(p.root->children[0]->kind, ir::Node::Kind::Loop);
  auto loop = std::static_pointer_cast<ir::Loop>(p.root->children[0]);
  runSubtree(p, partial, loop->body, {{loop->iter, 2}});
  Context pristine = kernels::makeContext(p, params);
  const auto& cBefore = pristine.buffer("C");
  const auto& cFull = full.buffer("C");
  const auto& cPart = partial.buffer("C");
  std::int64_t n = partial.dims("C")[1];
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_DOUBLE_EQ(cPart[2 * n + j], cFull[2 * n + j]) << j;
  }
  // Other rows untouched (still the seeded values).
  for (std::int64_t j = 0; j < n; ++j)
    EXPECT_DOUBLE_EQ(cPart[0 * n + j], cBefore[0 * n + j]) << j;
}

}  // namespace
}  // namespace polyast::exec
