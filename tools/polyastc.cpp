// polyastc — the source-to-source compiler driver.
//
// Usage:
//   polyastc --list
//   polyastc --list-pipelines
//   polyastc --analysis-selfcheck
//   polyastc <kernel> [--pipeline NAME]
//            [--emit c|ir|none] [--tile N] [--time-tile N]
//            [--simd on|off] [--no-openmp]
//            [--verify-each-pass] [--dump-after PASS|all]
//            [--reductions strict|relaxed]
//            [--analyze[=legality,races,bounds,reductions]]
//            [--fail-on error|warning]
//            [--diagnostics-out FILE]
//            [--execute] [--backend interp|native] [--threads N]
//            [--perf] [--perf-out FILE] [--attrib-out FILE]
//            [--trace-out FILE] [--metrics-out FILE] [--obs-summary]
//            [--compile-profile-out FILE]
//
// Flags also accept the --flag=value form. --pipeline selects a
// registered preset (default polyast), including the ablation variants
// such as polyast-notile and polyast-noregtile (see --list-pipelines).
//
// <kernel> may be `all`: every suite kernel runs through the same flags
// (emission is suppressed). Combined with --execute --perf --perf-out
// this produces the suite-level polyast-dlcheck-v1 artifact.
//
// --verify-each-pass runs the interpreter oracle after every pass on
// verification-scale parameters (extents sized to cross at least two
// full tiles, so the steady-state tiled code actually executes) and
// attributes any semantic break to the pass that introduced it. Verification continues past a break (the reference
// is rebased onto the broken output, so each pass is judged only on the
// divergence it introduces itself); every breaking pass is recorded as a
// `flow.verify.breaks` metric plus a "semantics-break" trace instant.
//
// --analyze interleaves the static analyses (src/analysis) with the
// pipeline: legality (violated baseline dependences), races (parallel
// marks re-proven), reductions (relaxed reduction schedules re-proven
// from the post-transform dependence graph), bounds (subscripts vs
// extents + lints) — after the input and after every pass. Optionally restrict to a comma-separated
// subset. --fail-on picks the severity that fails the run (default
// error); --diagnostics-out writes the polyast-diagnostics-v1 JSON
// (validated by tools/obs_validate --diagnostics).
//
// --analysis-selfcheck runs the mutation corpus: each seeded-illegal
// transform (flipped permutation, dropped sync, over-fused loops, ...)
// must be flagged by the matching analysis.
//
// Exit codes (docs/ANALYSIS.md):
//   0  success
//   2  static analysis reported findings at/above --fail-on (or the
//      self-check missed a mutation)
//   3  dynamic verification break (--verify-each-pass oracle or
//      --execute divergence)
//   4  usage error (bad flag, unknown kernel/pipeline/emit mode)
//
// Observability (docs/OBSERVABILITY.md):
//   --trace-out FILE    enable the global tracer; write a Chrome
//                       trace-event JSON (chrome://tracing / Perfetto)
//                       with one span per executed pass and — with
//                       --execute — per-thread runtime lanes.
//   --metrics-out FILE  write the metrics registry (DL query counts,
//                       dependence-test counters, runtime sync/wait
//                       stats, ...) as JSON, or CSV if FILE ends in .csv.
//                       Also turns on latency timing (histograms).
//   --obs-summary       print a human-readable metrics table to stderr.
//   --execute           run the transformed program at test scale on
//                       the selected backend and validate the buffers
//                       against a sequential interpretation.
//   --backend NAME      execution backend for --execute: `interp`
//                       (default, the sequential interpreter — marks
//                       are ignored) or `native` (JIT-compile the
//                       program to a shared object via the system C
//                       toolchain — cached under $POLYAST_JIT_CACHE —
//                       and run the machine code on the thread pool,
//                       doall/reduction/pipeline marks mapped onto the
//                       runtime; degrades to interp with a reported
//                       reason when no toolchain is usable or
//                       POLYAST_JIT=off).
//   --threads N         thread-pool size for --backend native (default:
//                       all cores); the interpreter runs on one thread.
//   --perf              measure the --execute run with per-thread
//                       hardware-counter sessions (src/obs/perf.hpp;
//                       implies --execute). Degrades gracefully to
//                       wall/TSC-only when perf_event_open is
//                       unavailable (POLYAST_PERF=off forces this).
//   --perf-out FILE     write the polyast-dlcheck-v1 JSON: the DL
//                       model's predicted distinct lines per kernel
//                       next to the measured counters, plus a
//                       suite-level rank-correlation summary (implies
//                       --perf).
//   --attrib-out FILE   write the polyast-attrib-v1 JSON (implies
//                       --perf): per parallel construct — doall,
//                       reduction, pipeline — the counter deltas
//                       attributed at construct boundaries, next to the
//                       DL model's per-nest predictions, with
//                       per-kernel and pooled rank correlations. Works
//                       on both backends (native kernels report
//                       construct boundaries through the capi hook
//                       table).
//   --compile-profile-out FILE
//                       write the polyast-compile-profile-v1 JSON: the
//                       compiler's own hot-path counters (FM
//                       eliminations, IntSet ops, dependence tests with
//                       sampled cost, selection-search candidates) as
//                       per-kernel rows that telescope exactly to the
//                       process totals, plus compile wall time and
//                       peak-RSS gauges (validated by tools/obs_validate
//                       --compile-profile; see docs/OBSERVABILITY.md).
//
// Examples:
//   polyastc 2mm --pipeline polyast --emit c > 2mm_opt.c && cc -O3 2mm_opt.c
//   polyastc gemm --pipeline pocc-vect --emit ir
//   polyastc seidel-2d --pipeline polyast --verify-each-pass --dump-after all
//   polyastc gemm --execute --backend native --trace-out trace.json
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/mutations.hpp"
#include "dl/dl_predict.hpp"
#include "exec/backend.hpp"
#include "exec/native_exec.hpp"
#include "flow/analyze.hpp"
#include "flow/presets.hpp"
#include "ir/cemit.hpp"
#include "kernels/polybench.hpp"
#include "obs/attrib.hpp"
#include "obs/dlcheck.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

using namespace polyast;

namespace {

int usage() {
  std::cerr
      << "usage: polyastc <kernel>|--list|--list-pipelines"
         "|--analysis-selfcheck\n"
         "                [--pipeline NAME]\n"
         "                [--emit c|ir|none] [--tile N] [--time-tile N]\n"
         "                [--simd on|off] [--no-openmp]\n"
         "                [--verify-each-pass] [--dump-after PASS|all]\n"
         "                [--reductions strict|relaxed]\n"
         "                [--analyze[=legality,races,bounds,reductions]]"
         " [--fail-on error|warning]\n"
         "                [--diagnostics-out FILE]\n"
         "                [--execute] [--backend interp|native]"
         " [--threads N] [--perf]\n"
         "                [--perf-out FILE] [--attrib-out FILE]\n"
         "                [--trace-out FILE] [--metrics-out FILE]"
         " [--obs-summary]\n"
         "                [--compile-profile-out FILE]\n"
         "kernel may be 'all' to run every suite kernel (no emission)\n"
         "exit codes: 0 ok, 2 analysis findings, 3 dynamic verification"
         " break, 4 usage\n";
  return 4;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string kernel = argv[1];
  if (kernel == "--list") {
    for (const auto& k : kernels::allKernels())
      std::cout << k.name << "\t" << k.description << "\n";
    return 0;
  }
  if (kernel == "--list-pipelines") {
    for (const auto& name : flow::pipelinePresets()) std::cout << name << "\n";
    return 0;
  }
  if (kernel == "--analysis-selfcheck") {
    auto outcomes = analysis::runMutationCorpus(
        [](const std::string& k) { return kernels::buildKernel(k); },
        &std::cerr);
    bool ok = analysis::allMutationsCaught(outcomes);
    std::cerr << "analysis self-check: " << outcomes.size()
              << " mutation(s), " << (ok ? "all caught" : "MISSED SOME")
              << "\n";
    return ok ? 0 : 2;
  }

  std::string pipeline = "polyast";
  std::string emit = "c";
  std::string traceOut;
  std::string metricsOut;
  bool obsSummary = false;
  bool execute = false;
  std::string backend = "interp";
  bool perf = false;
  std::string perfOut;
  std::string attribOut;
  std::string compileProfileOut;
  unsigned threads = 0;
  flow::PipelineOptions options;
  flow::DumpOptions dump;
  bool openmp = true;
  bool verifyEachPass = false;
  bool analyze = false;
  std::string analyzeList;
  std::string failOn = "error";
  std::string diagnosticsOut;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inlineValue;
    bool hasInline = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      inlineValue = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      hasInline = true;
    }
    auto next = [&]() -> std::string {
      if (hasInline) return inlineValue;
      if (i + 1 >= argc) {
        usage();
        exit(4);
      }
      return argv[++i];
    };
    auto nextInt = [&]() -> std::int64_t {
      std::string v = next();
      try {
        return std::stoll(v);
      } catch (const std::exception&) {
        std::cerr << "expected a number for " << arg << ", got '" << v
                  << "'\n";
        exit(4);
      }
    };
    if (arg == "--pipeline") pipeline = next();
    else if (arg == "--emit") emit = next();
    else if (arg == "--reductions") {
      std::string mode = next();
      if (mode == "strict")
        options.affine.reductions = poly::ReductionMode::Strict;
      else if (mode == "relaxed")
        options.affine.reductions = poly::ReductionMode::Relaxed;
      else {
        std::cerr << "expected strict|relaxed for --reductions, got '"
                  << mode << "'\n";
        return 4;
      }
    }
    else if (arg == "--simd") {
      std::string mode = next();
      if (mode == "on") options.ast.simd = true;
      else if (mode == "off") options.ast.simd = false;
      else {
        std::cerr << "expected on|off for --simd, got '" << mode << "'\n";
        return 4;
      }
    }
    else if (arg == "--tile") options.ast.tileSize = nextInt();
    else if (arg == "--time-tile") options.ast.timeTileSize = nextInt();
    else if (arg == "--no-openmp") openmp = false;
    else if (arg == "--verify-each-pass") verifyEachPass = true;
    else if (arg == "--analyze") {
      analyze = true;
      if (hasInline) analyzeList = inlineValue;
    } else if (arg == "--fail-on") failOn = next();
    else if (arg == "--diagnostics-out") diagnosticsOut = next();
    else if (arg == "--trace-out") traceOut = next();
    else if (arg == "--metrics-out") metricsOut = next();
    else if (arg == "--obs-summary") obsSummary = true;
    else if (arg == "--execute") execute = true;
    else if (arg == "--backend") backend = next();
    else if (arg == "--perf") perf = true;
    else if (arg == "--perf-out") {
      perfOut = next();
      perf = true;
    } else if (arg == "--attrib-out") {
      attribOut = next();
      perf = true;
    } else if (arg == "--compile-profile-out") compileProfileOut = next();
    else if (arg == "--threads") threads = static_cast<unsigned>(nextInt());
    else if (arg == "--dump-after") {
      dump.after.insert(next());
      dump.stream = &std::cerr;
    } else return usage();
  }
  if (perf) execute = true;  // counters measure the parallel run
  if (!exec::hasBackend(backend)) {
    std::cerr << "unknown backend '" << backend << "' (";
    bool first = true;
    for (const auto& n : exec::backendNames()) {
      if (!first) std::cerr << ", ";
      std::cerr << n;
      first = false;
    }
    std::cerr << ")\n";
    return 4;
  }
  if (!flow::hasPipelinePreset(pipeline)) {
    std::cerr << "unknown pipeline '" << pipeline
              << "' (try --list-pipelines)\n";
    return 4;
  }
  if (failOn != "error" && failOn != "warning") return usage();

  analysis::AnalysisOptions aopt;
  if (!analyzeList.empty()) {
    aopt.legality = aopt.races = aopt.bounds = aopt.reductions = false;
    std::string list = analyzeList;
    while (!list.empty()) {
      auto comma = list.find(',');
      std::string name = list.substr(0, comma);
      list = comma == std::string::npos ? "" : list.substr(comma + 1);
      if (name == "legality") aopt.legality = true;
      else if (name == "races") aopt.races = true;
      else if (name == "bounds") aopt.bounds = true;
      else if (name == "reductions") aopt.reductions = true;
      else {
        std::cerr << "unknown analysis '" << name
                  << "' (legality, races, bounds, reductions)\n";
        return 4;
      }
    }
  }
  // Tell the analyses which scheduling contract the pipeline ran under:
  // in relaxed mode a violated relaxable baseline edge is the licensed
  // reassociation (legality remark), and the reductions pass carries the
  // proof obligation for it.
  aopt.relaxedReductions =
      options.affine.reductions == poly::ReductionMode::Relaxed;

  if (!traceOut.empty()) obs::Tracer::global().setEnabled(true);
  // Metrics counters are always on; per-event latency timing (histograms)
  // only when someone will consume them.
  if (!metricsOut.empty() || obsSummary)
    obs::Registry::global().setTimingEnabled(true);

  if (emit != "c" && emit != "ir" && emit != "none") return usage();

  std::vector<std::string> kernelNames;
  if (kernel == "all") {
    for (const auto& k : kernels::allKernels()) kernelNames.push_back(k.name);
    emit = "none";  // 22 concatenated translation units help nobody
  } else {
    kernelNames.push_back(kernel);
  }

  // One pool for every measured kernel, created on first use so plain
  // compilations never spin up threads.
  std::unique_ptr<runtime::ThreadPool> pool;
  // One backend across the kernel loop: a `all`-suite native run reuses
  // the process's loaded kernels and reports cache hits per program.
  std::unique_ptr<exec::Backend> execBackend;
  obs::DlCheckReport dlreport;
  obs::AttribReport attribReport;
  // Per-kernel brackets around pipe.run: the counter deltas become one
  // profile row per kernel, telescoping to the process totals.
  obs::selfprof::Collector selfprofCollector;
  bool dynamicBroken = false;
  bool analysisFailed = false;
  ir::Program out;  // last kernel's result, for emission

  for (const auto& kernelName : kernelNames) {
    ir::Program program;
    try {
      program = kernels::buildKernel(kernelName);
    } catch (const ::polyast::Error&) {
      std::cerr << "unknown kernel '" << kernelName << "' (try --list)\n";
      return 4;
    }

    // Test-scale parameters, conditioned inputs (solver kernels need e.g.
    // diagonally dominant matrices). Shared by --execute, the analysis
    // witness search, and the DL predictions in the dlcheck artifact.
    std::map<std::string, std::int64_t> params;
    for (const auto& name : program.params)
      params[name] = name == "TSTEPS" ? 3 : 7;

    flow::PassContext ctx;
    ctx.dump = dump;
    if (verifyEachPass) {
      // Verification-scale parameters: the spatial extents must exceed the
      // tile size (two full tiles plus an odd remainder) and the time
      // extent the time-tile size, or the oracle only ever executes the
      // degenerate boundary-tile special case and proves nothing about the
      // steady state the tiled code spends its life in.
      std::map<std::string, std::int64_t> verifyParams;
      for (const auto& name : program.params)
        verifyParams[name] = name == "TSTEPS"
                                 ? options.ast.timeTileSize + 2
                                 : 2 * options.ast.tileSize + 5;
      ctx.verify.enabled = true;
      ctx.verify.continueAfterFailure = true;
      ctx.verify.makeContext = [verifyParams](const ir::Program& p) {
        return kernels::makeContext(p, verifyParams);
      };
    }

    std::shared_ptr<analysis::AnalysisSession> session;
    try {
      flow::PassPipeline pipe = flow::makePipeline(pipeline, options);
      if (analyze) {
        aopt.witnessParams = params;
        session = std::make_shared<analysis::AnalysisSession>(aopt);
        pipe = flow::withAnalysis(pipe, session);
      }
      if (!compileProfileOut.empty()) selfprofCollector.beginScop();
      out = pipe.run(program, ctx);
      if (!compileProfileOut.empty()) {
        std::int64_t stmts = 0;
        std::set<const ir::Loop*> loopSet;
        for (const auto& [id, loops] : program.enclosingLoops()) {
          ++stmts;
          for (const auto& l : loops) loopSet.insert(l.get());
        }
        selfprofCollector.endScop(kernelName, stmts,
                                  static_cast<std::int64_t>(loopSet.size()),
                                  ctx.report.totalMillis);
      }
      std::cerr << "pipeline '" << pipeline << "' on " << kernelName << " ("
                << ctx.report.passes.size() << " passes"
                << (verifyEachPass ? ", oracle-verified" : "") << "):\n"
                << ctx.report.summary();
      if (int broken = ctx.report.brokenPasses(); broken > 0) {
        std::cerr << "error: " << broken << " pass(es) broke semantics\n";
        dynamicBroken = true;
      }
    } catch (const flow::VerificationError& e) {
      std::cerr << "pipeline '" << pipeline << "' FAILED VERIFICATION on "
                << kernelName << "\n"
                << ctx.report.summary() << "error: " << e.what() << "\n";
      return 3;
    }

    if (session) {
      const auto& engine = session->engine();
      std::cerr << "analysis:\n" << engine.summary();
      if (!diagnosticsOut.empty() &&
          !analysis::writeDiagnosticsFile(diagnosticsOut, engine,
                                          program.name, pipeline)) {
        std::cerr << "error: cannot write " << diagnosticsOut << "\n";
        return 1;
      }
      std::size_t fatal =
          engine.errors() + (failOn == "warning" ? engine.warnings() : 0);
      if (fatal > 0) {
        std::cerr << "error: " << fatal << " analysis finding(s) at/above --"
                  << "fail-on=" << failOn << "\n";
        analysisFailed = true;
      }
    }

    if (execute) {
      // Run the transformed program on the selected execution backend and
      // check it against a plain sequential interpretation of the same
      // program. Doall and pipeline execution reorder whole statement
      // instances, so every cell's arithmetic is bit-identical; reduction
      // privatization reassociates the accumulated sums, so those runs get
      // a tolerance (Backend::toleranceFor).
      // The interpreter runs on the calling thread: no idle workers, and
      // the artifacts' thread count says what was measured.
      if (!pool)
        pool = std::make_unique<runtime::ThreadPool>(
            backend == "native" ? threads : 1u);
      if (!execBackend) execBackend = exec::makeBackend(backend);
      exec::Context seq = kernels::makeContext(out, params);
      exec::Context par = kernels::makeContext(out, params);
      obs::PerfAggregate agg;
      // Construct-level attribution rides along with --perf: the profiler
      // is installed across verify() — the oracle (exec::run) never fires
      // construct hooks, and the backend run brackets itself with
      // beginRun/endRun on its driving thread.
      std::unique_ptr<obs::ConstructProfiler> cprof;
      if (perf) {
        cprof = std::make_unique<obs::ConstructProfiler>();
        cprof->install();
      }
      exec::ParallelRunReport rep;
      exec::VerifyResult check = execBackend->verify(
          out, par, seq, *pool, &rep, perf ? &agg : nullptr);
      if (cprof) cprof->uninstall();
      std::cerr << rep.summary() << "\n"
                << "parallel vs sequential max abs diff: "
                << check.maxAbsDiff << " on "
                << (rep.backend == "native" ? pool->threadCount() : 1u)
                << " thread(s) (tolerance " << check.tolerance << ")\n";
      if (!check.passed()) {
        std::cerr << "error: parallel execution diverged\n";
        dynamicBroken = true;
      }

      if (perf) {
        agg.recordTo(obs::Registry::global());
        dl::ProgramPrediction pred = dl::predictProgram(out, params);
        obs::DlCheckKernel entry;
        entry.kernel = kernelName;
        entry.pipeline = pipeline;
        entry.backend = rep.backend;
        entry.reductions = aopt.relaxedReductions ? "relaxed" : "strict";
        // Effective, not requested: a scalar retry after a rejected
        // vector TU (or an interp degradation) reports "off".
        auto* native = dynamic_cast<exec::NativeBackend*>(execBackend.get());
        entry.simd = native && native->usedSimd() ? "on" : "off";
        entry.predictedLines = pred.predictedLines;
        entry.predictedCost = pred.predictedCost;
        entry.nests = static_cast<int>(pred.nests.size());
        entry.measured = agg.totals();
        entry.threadsMeasured = agg.threadsMeasured();
        entry.threadsDegraded = agg.threadsDegraded();
        std::cerr << "perf " << kernelName << ": wall_ns="
                  << entry.measured.wallNs;
        for (const auto& [cname, v] : entry.measured.counters)
          std::cerr << " " << cname << "=" << v;
        if (entry.threadsDegraded > 0)
          std::cerr << " (degraded: " << entry.measured.degradedReason << ")";
        std::cerr << " | predicted lines=" << entry.predictedLines << "\n";
        dlreport.kernels.push_back(std::move(entry));

        // Construct-level attribution: pair the profiler's measured rows
        // with the DL model's per-nest predictions. A nest belongs to the
        // construct whose iterator chain prefixes the nest's chain (the
        // construct's marked loop encloses the nest); sequential nests
        // match no construct and stay in the residual.
        obs::AttribKernel ak;
        ak.kernel = kernelName;
        ak.pipeline = pipeline;
        ak.backend = cprof->backend().empty() ? rep.backend
                                              : cprof->backend();
        ak.total = cprof->total();
        ak.residual = cprof->residual();
        std::map<std::int64_t, std::vector<std::string>> chains;
        for (const auto& c : ir::collectParallelConstructs(out))
          chains[c.id] = c.chain;
        for (const auto& row : cprof->rows()) {
          obs::AttribConstruct ac;
          ac.id = row.id;
          ac.kind = row.kind;
          ac.iter = row.iter;
          ac.enters = row.enters;
          ac.measured = row.measured;
          const std::vector<std::string>& chain = chains[row.id];
          for (std::size_t ci = 0; ci < chain.size(); ++ci)
            ac.nest += (ci ? "." : "") + chain[ci];
          for (const auto& n : pred.nests) {
            if (n.iters.size() < chain.size()) continue;
            if (!std::equal(chain.begin(), chain.end(), n.iters.begin()))
              continue;
            ac.predictedLines += n.predictedLines;
            ac.predictedCost += n.memCostPerIter * n.totalIterations;
            ac.predictedIters += n.totalIterations;
            ++ac.predictedNests;
          }
          std::cerr << "attrib " << kernelName << "@" << ak.backend << " ["
                    << ac.id << "] " << ac.kind << ":" << ac.nest
                    << " enters=" << ac.enters << " wall_ns="
                    << ac.measured.wallNs;
          for (const auto& [cname, v] : ac.measured.counters)
            std::cerr << " " << cname << "=" << v;
          std::cerr << " | predicted cost=" << ac.predictedCost << "\n";
          ak.constructs.push_back(std::move(ac));
        }
        attribReport.kernels.push_back(std::move(ak));
      }
    }
  }

  if (pool) {
    dlreport.threads = static_cast<int>(pool->threadCount());
    attribReport.threads = static_cast<int>(pool->threadCount());
  }

  try {
    if (perf && !perfOut.empty()) obs::writeDlCheckFile(perfOut, dlreport);
    if (perf && !attribOut.empty())
      obs::writeAttribFile(attribOut, attribReport);
    if (!compileProfileOut.empty())
      obs::selfprof::writeCompileProfileFile(compileProfileOut,
                                             selfprofCollector.finish(pipeline));
    if (!traceOut.empty())
      obs::writeChromeTraceFile(traceOut, obs::Tracer::global());
    if (!metricsOut.empty()) {
      // Mirror the self-profiling totals as selfprof.* counters so one
      // metrics artifact carries them next to the flow.* pass metrics.
      obs::selfprof::mirrorToRegistry(obs::Registry::global());
      obs::writeMetricsFile(metricsOut, obs::Registry::global().snapshot());
    }
  } catch (const ::polyast::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (obsSummary)
    std::cerr << obs::metricsSummary(obs::Registry::global().snapshot());

  if (emit == "ir") {
    std::cout << ir::printProgram(out);
  } else if (emit == "c") {
    ir::CEmitOptions copt;
    copt.openmp = openmp;
    std::cout << ir::emitC(out, copt);
  }
  // Dynamic breaks outrank static findings: the oracle caught an actual
  // wrong answer, not just a possible one.
  if (dynamicBroken) return 3;
  if (analysisFailed) return 2;
  return 0;
}
