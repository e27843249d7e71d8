// polyast_bench — seeded, closed-loop benchmark of the PolyAST compiler:
// compile time, first native run through the JIT, and run time of the
// generated code, end to end and layer by layer.
//
//   polyast_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--work-dir DIR] [--smoke]
//
// One client in one process. A workload sets itself up several times
// (setup_s is the median), then runs whole rounds over its inputs, in an
// order shuffled by the seed, for about --seconds. Every compiled program
// is checked against the sequential interpreter. stdout gets one line per
// metric and, last, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate,
// traced run that reports the per-layer metrics and writes a Chrome trace
// and layers.json under --work-dir. The layers are timed from here, around
// calls into their public functions. README.md documents every workload
// and metric.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/scop_gen.hpp"
#include "exec/backend.hpp"
#include "exec/interp.hpp"
#include "exec/native_exec.hpp"
#include "flow/presets.hpp"
#include "ir/ast.hpp"
#include "ir/cemit.hpp"
#include "kernels/polybench.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "transform/ast_stage.hpp"

namespace {

using namespace polyast;
namespace fs = std::filesystem;
namespace selfprof = obs::selfprof;
using Clock = std::chrono::steady_clock;
using Params = std::map<std::string, std::int64_t>;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Statistics.

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (char c : s)
    h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
        1099511628211ULL;
  return h;
}

// ---------------------------------------------------------------------
// Accounting shared by every workload.

/// Timed operations by input item (kernel@preset, family-size, kernel).
struct Samples {
  std::map<std::string, std::vector<double>> ms;

  void add(const std::string& item, double v) { ms[item].push_back(v); }
  std::vector<double> all() const {
    std::vector<double> out;
    for (const auto& [item, v] : ms) out.insert(out.end(), v.begin(), v.end());
    return out;
  }
  /// The q-quantile of each item's samples.
  std::vector<double> itemQuantiles(double q) const {
    std::vector<double> out;
    for (const auto& [item, v] : ms) out.push_back(quantile(v, q));
    return out;
  }
};

/// Pass/fail accounting: every operation that can fail is attempted once.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for stderr

  /// Runs `fn`, which returns an empty string on success or why the
  /// operation failed; an exception counts as a failure too.
  template <typename Fn>
  void attempt(const std::string& what, Fn&& fn) {
    ++attempted;
    std::string why;
    try {
      why = fn();
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    if (why.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what + ": " + why);
  }
};

/// Process-global counters the layers bump themselves: selfprof's
/// compile-time operations plus the registry counters of src/dl and
/// src/runtime. Deltas around a call attribute its work.
using Counts = std::map<std::string, double>;

Counts countsNow() {
  static const char* const kRegistry[] = {
      "dl.permutation_queries", "dl.distinct_lines_evals", "dl.fusion_checks",
      "runtime.sync.p2p_waits", "runtime.sync.barriers",
      "runtime.sync.spin_iterations"};
  Counts c;
  for (selfprof::Op op : selfprof::allOps())
    c[selfprof::opName(op)] = static_cast<double>(selfprof::value(op));
  for (const char* name : kRegistry)
    c[name] =
        static_cast<double>(obs::Registry::global().counter(name).value());
  return c;
}

void addDelta(Counts& into, const Counts& before, const Counts& after) {
  for (const auto& [name, v] : after) into[name] += v - before.at(name);
}

/// Per-layer accounting for the traced run. Busy times and counts are
/// totals; the report divides them by the passes over the input set they
/// cover (`compilePasses` for flow/emit/JIT work, `oraclePasses` for
/// interpreter checks, `runPasses` for native runs).
struct Layers {
  Counts compileCounts;
  std::map<std::string, double> passMs;  ///< PipelineReport, by pass
  double flowMs = 0.0;                   ///< pipeline runs timed from here
  double emitMs = 0.0;
  double tuBytes = 0.0;
  double simdPrograms = 0.0;
  std::vector<double> jitColdMs;  ///< NativeBackend::prepare, empty cache
  std::vector<double> jitWarmMs;  ///< prepare + run, fresh backend, warm cache
  double jitCompiles = 0.0;
  double jitCacheHits = 0.0;
  double jitFallbacks = 0.0;
  double soBytes = 0.0;
  double oracleMs = 0.0;
  int oraclePasses = 0;  ///< passes of interpreter checks over the inputs
  int compilePasses = 0;

  std::map<std::string, std::vector<double>> runMs;  ///< native runs by kernel
  Counts runCounts;
  double constructNs = 0.0;  ///< inside runtime constructs (profiled runs)
  double profiledNs = 0.0;   ///< whole profiled runs
  int runPasses = 0;

  void addJit(const exec::ParallelRunReport& r) {
    jitCompiles += static_cast<double>(r.nativeCompiles);
    jitCacheHits += static_cast<double>(r.nativeCacheHits);
    jitFallbacks += static_cast<double>(r.nativeFallbacks);
  }

  void addRun(const std::string& kernel, double ms,
              const exec::ParallelRunReport& r, const Counts& before) {
    runMs[kernel].push_back(ms);
    addDelta(runCounts, before, countsNow());
    runCounts["doall"] += static_cast<double>(r.doallLoops);
    runCounts["reduction"] +=
        static_cast<double>(r.reductionLoops + r.reductionPipelineLoops);
    runCounts["pipeline"] +=
        static_cast<double>(r.pipelineLoops + r.pipelineDynamicLoops +
                            r.pipeline3dLoops + r.reductionPipelineLoops);
    runCounts["sequential_fallbacks"] +=
        static_cast<double>(r.sequentialFallbacks);
    if (const obs::ConstructProfiler* p = obs::ConstructProfiler::current()) {
      for (const auto& row : p->rows())
        constructNs += static_cast<double>(row.measured.wallNs);
      profiledNs += static_cast<double>(p->total().wallNs);
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  bool smoke = false;
  std::string workDir = "polyast-bench-work";
};

/// State of one benchmark process.
struct Bench {
  Options opt;
  Outcome outcome;
  Samples ops;  ///< the workload's end-to-end operation, timed
  Layers layers;
  std::vector<double> setupS;
  std::vector<double> roundS;
  double peakRssMb = 0.0;  ///< VmHWM after the timed rounds
  std::mt19937_64 rng;
  std::string digest;  ///< of the IR the setup compiled, when it compiles
  fs::path jitRoot;    ///< private JIT caches, removed at exit
  int jitDirs = 0;

  /// A fresh, empty JIT cache directory under jitRoot.
  std::string newJitDir() {
    fs::path dir = jitRoot / ("c" + std::to_string(jitDirs++));
    fs::create_directories(dir);
    return dir.string();
  }

  std::vector<std::size_t> shuffled(std::size_t n) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
  }
};

/// Removes a directory tree when it goes out of scope.
struct DirGuard {
  fs::path path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

std::string digestOf(const std::map<std::string, std::string>& irByItem) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [item, ir] : irByItem) h = fnv1a(fnv1a(h, item), ir);
  return hex64(h);
}

double soBytesIn(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".so")
      bytes += static_cast<double>(e.file_size());
  return bytes;
}

// ---------------------------------------------------------------------
// Calls into the layers, timed from outside.

/// Binds every parameter to `extent`, time steps to `steps`.
Params scaled(const ir::Program& p, std::int64_t extent, std::int64_t steps) {
  Params out;
  for (const auto& name : p.params)
    out[name] = name == "TSTEPS" ? steps : extent;
  return out;
}

/// Test scale, as polyastc --execute uses it.
Params testParams(const ir::Program& p) { return scaled(p, 7, 3); }

/// The flow's default tile sizes. Extents of one or two full tiles plus an
/// odd remainder make the interpreter run the steady-state tiled code.
constexpr transform::AstOptions kAst{};
constexpr std::int64_t kOneTile = kAst.tileSize + 5;
constexpr std::int64_t kTwoTiles = 2 * kAst.tileSize + 5;

/// flow::PassPipeline::run. Per-pass times come from the pipeline's own
/// PipelineReport; the whole call is timed here.
ir::Program runFlow(const flow::PassPipeline& pipe, const ir::Program& input,
                    Layers& layers) {
  obs::Span span("bench.flow", "bench");
  const Counts before = countsNow();
  flow::PassContext ctx;
  const auto t0 = Clock::now();
  ir::Program out = pipe.run(input, ctx);
  layers.flowMs += msSince(t0);
  addDelta(layers.compileCounts, before, countsNow());
  for (const auto& pass : ctx.report.passes)
    layers.passMs[pass.pass] += pass.millis;
  return out;
}

/// ir::emitNativeKernelTU, the C the native backend compiles.
void runEmit(const ir::Program& program, Layers& layers) {
  obs::Span span("bench.emit", "bench");
  const auto t0 = Clock::now();
  const std::string tu = ir::emitNativeKernelTU(program);
  layers.emitMs += msSince(t0);
  layers.tuBytes += static_cast<double>(tu.size());
  if (ir::programHasMicroKernels(program)) layers.simdPrograms += 1.0;
}

/// The sequential interpreter's result for `program` on the seeded,
/// conditioned inputs every backend run starts from.
exec::Context interpret(const ir::Program& program, const Params& params,
                        Layers& layers) {
  obs::Span span("bench.oracle", "bench");
  const auto t0 = Clock::now();
  exec::Context ctx = kernels::makeContext(program, params);
  exec::run(program, ctx);
  layers.oracleMs += msSince(t0);
  return ctx;
}

/// Empty when `got` matches the oracle within `tolerance`.
std::string compare(const exec::Context& got, const exec::Context& oracle,
                    double tolerance) {
  const double diff = got.maxAbsDiff(oracle);
  if (diff <= tolerance) return "";
  std::ostringstream os;
  os << "max |diff| " << diff << " vs the interpreter exceeds " << tolerance;
  return os.str();
}

/// Checks a native run: no degradation, outputs within
/// Backend::toleranceFor of the interpreter on the original program.
std::string checkNative(const exec::ParallelRunReport& report,
                        const exec::Context& got, const exec::Context& oracle) {
  if (report.nativeFallbacks > 0)
    return "native backend degraded: " +
           (report.notes.empty() ? std::string("?") : report.notes.back());
  return compare(got, oracle, exec::Backend::toleranceFor(report));
}

std::string checkFinite(const ir::Program& program, const exec::Context& ctx) {
  for (const auto& a : program.arrays)
    for (double v : ctx.buffer(a.name))
      if (!std::isfinite(v)) return "non-finite value in " + a.name;
  return "";
}

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs, warms and verifies; timed as setup_s.
  virtual void setup(Bench& b) = 0;
  /// One timed pass over every input, in seed-shuffled order.
  virtual void round(Bench& b, int r) = 0;
  /// Untimed checks after the last round.
  virtual void finish(Bench&) {}
  /// Extra human-readable lines.
  virtual void describe(const Bench&, std::ostream&) const {}
};

/// suite-compile: the 22 PolyBench kernels under the paper's flow and the
/// Pluto-like baseline, compiled to the native TU. Never runs native code.
class SuiteCompile : public Workload {
 public:
  void setup(Bench& b) override {
    jobs_.clear();
    pipes_.clear();
    for (const char* preset : {"polyast", "pocc"})
      pipes_.push_back(flow::makePipeline(preset));
    std::map<std::string, std::string> irs;
    for (const auto& k : kernels::allKernels())
      for (const auto& pipe : pipes_) {
        Job job{k.name, k.name + "@" + pipe.name(), &pipe, k.build(), {}, ""};
        b.outcome.attempt(job.item + " setup", [&] {
          Layers untracked;
          job.compiled = runFlow(*job.pipe, job.input, untracked);
          runEmit(job.compiled, untracked);
          job.ir = ir::printProgram(job.compiled);
          irs[job.item] = job.ir;
          return std::string();
        });
        jobs_.push_back(std::move(job));
      }
    b.digest = digestOf(irs);
  }

  /// Every round must reproduce the setup's IR byte for byte; finish()
  /// checks that IR against the interpreter once.
  void round(Bench& b, int) override {
    for (std::size_t i : b.shuffled(jobs_.size())) {
      Job& job = jobs_[i];
      if (job.ir.empty()) continue;  // its setup failed
      b.outcome.attempt(job.item, [&] {
        const auto t0 = Clock::now();
        ir::Program out = runFlow(*job.pipe, job.input, b.layers);
        runEmit(out, b.layers);
        b.ops.add(job.item, msSince(t0));
        return ir::printProgram(out) == job.ir
                   ? std::string()
                   : std::string("IR differs from the setup compile");
      });
    }
    ++b.layers.compilePasses;
  }

  /// One full tile plus a remainder in every dimension and time step, so
  /// the interpreter runs the tiled steady state; exact, since no
  /// transformation reassociates.
  void finish(Bench& b) override {
    std::map<std::string, exec::Context> oracles;  // by kernel
    for (const Job& job : jobs_) {
      if (job.ir.empty()) continue;
      b.outcome.attempt(job.item + " check", [&] {
        const Params params =
            scaled(job.input, kOneTile, kAst.timeTileSize + 2);
        auto it = oracles.find(job.kernel);
        if (it == oracles.end())
          it = oracles
                   .emplace(job.kernel, interpret(job.input, params, b.layers))
                   .first;
        return compare(interpret(job.compiled, params, b.layers), it->second,
                       0.0);
      });
    }
    ++b.layers.oraclePasses;
  }

 private:
  struct Job {
    std::string kernel;
    std::string item;
    const flow::PassPipeline* pipe;
    ir::Program input;
    ir::Program compiled;  ///< the setup compile
    std::string ir;        ///< its printed IR
  };
  std::vector<flow::PassPipeline> pipes_;
  std::vector<Job> jobs_;
};

/// scop-scale: synthetic deep / wide / dense SCoPs (bench/common/scop_gen)
/// that stress Fourier–Motzkin, dependence testing and selection; round r
/// generates its programs from seed + r.
class ScopScale : public Workload {
 public:
  void setup(Bench& b) override {
    pipe_ = flow::makePipeline("polyast");
    inputs_ = generate(b, 0);
    setupIr_.clear();
    for (const Input& in : inputs_)
      b.outcome.attempt(in.item + " setup", [&] {
        Layers untracked;
        ir::Program out = runFlow(pipe_, in.program, untracked);
        runEmit(out, untracked);
        setupIr_[in.item] = ir::printProgram(out);
        return check(in, out, untracked);
      });
    b.digest = digestOf(setupIr_);
  }

  void round(Bench& b, int r) override {
    if (r > 0) inputs_ = generate(b, r);
    for (std::size_t i : b.shuffled(inputs_.size())) {
      const Input& in = inputs_[i];
      b.outcome.attempt(in.item, [&] {
        const auto t0 = Clock::now();
        ir::Program out = runFlow(pipe_, in.program, b.layers);
        runEmit(out, b.layers);
        b.ops.add(in.item, msSince(t0));
        if (r == 0 && ir::printProgram(out) != setupIr_[in.item])
          return std::string("IR differs from the setup compile (same seed)");
        return check(in, out, b.layers);
      });
    }
    ++b.layers.compilePasses;
    ++b.layers.oraclePasses;
  }

 private:
  struct Input {
    std::string item;  ///< family-size
    bool executable;
    ir::Program program;
  };

  /// wide and dense stay in bounds, so the interpreter checks every output
  /// buffer at two full tiles. deep's recurrence reads one row before its
  /// iteration space and cannot run; for it only the executed statement
  /// instances are compared.
  static std::string check(const Input& in, const ir::Program& out,
                           Layers& layers) {
    if (in.executable) {
      const Params params = scaled(in.program, kTwoTiles, 0);
      return compare(interpret(out, params, layers),
                     interpret(in.program, params, layers), 0.0);
    }
    obs::Span span("bench.oracle", "bench");
    const auto t0 = Clock::now();
    const Params params = scaled(in.program, 5, 0);
    exec::Context a = kernels::makeContext(in.program, params);
    exec::Context c = kernels::makeContext(out, params);
    const std::int64_t want = exec::countInstances(in.program, a);
    const std::int64_t got = exec::countInstances(out, c);
    layers.oracleMs += msSince(t0);
    if (got == want) return std::string();
    return "executes " + std::to_string(got) +
           " statement instances, expected " + std::to_string(want);
  }

  std::vector<Input> generate(const Bench& b, int r) const {
    static const std::vector<std::pair<const char*, std::vector<int>>>
        kSizes = {{"deep", {4, 5, 6, 7}}, {"wide", {12, 24, 36}},
                  {"dense", {8, 12, 16}}};
    static const std::vector<std::pair<const char*, std::vector<int>>>
        kSmoke = {{"deep", {3, 4}}, {"wide", {4, 6}}, {"dense", {4}}};
    std::vector<Input> out;
    for (const auto& [family, sizes] : b.opt.smoke ? kSmoke : kSizes)
      for (int size : sizes) {
        scopgen::GenOptions g;
        g.family = family;
        g.size = size;
        g.seed = b.opt.seed + static_cast<std::uint64_t>(r);
        out.push_back({std::string(family) + "-" + std::to_string(size),
                       std::string(family) != "deep", scopgen::generate(g)});
      }
    return out;
  }

  flow::PassPipeline pipe_;
  std::vector<Input> inputs_;
  std::map<std::string, std::string> setupIr_;
};

/// jit-cold: what a user pays on first use. Each kernel goes through the
/// flow, NativeBackend::prepare and one native run at test scale with an
/// empty private cache; then a fresh backend repeats prepare + run over
/// the warm cache (the cache's read path).
class JitCold : public Workload {
 public:
  explicit JitCold(runtime::ThreadPool& pool) : pool_(pool) {}

  /// Compiles every kernel once, so the timed first uses start from a
  /// warm process and differ only in what the JIT has to do.
  void setup(Bench& b) override {
    pipe_ = flow::makePipeline("polyast");
    jobs_.clear();
    std::map<std::string, std::string> irs;
    for (const auto& k : kernels::allKernels()) {
      Job job{k.name, k.build(), ""};
      b.outcome.attempt(job.kernel + " setup", [&] {
        Layers untracked;
        job.ir = ir::printProgram(runFlow(pipe_, job.input, untracked));
        irs[job.kernel] = job.ir;
        return std::string();
      });
      jobs_.push_back(std::move(job));
    }
    b.digest = digestOf(irs);
  }

  void round(Bench& b, int) override {
    for (std::size_t i : b.shuffled(jobs_.size())) {
      Job& job = jobs_[i];
      if (job.ir.empty()) continue;  // its setup failed
      b.outcome.attempt(job.kernel, [&]() -> std::string {
        const Params params = testParams(job.input);
        const std::string dir = b.newJitDir();
        DirGuard removeDir{dir};
        exec::Context cold = kernels::makeContext(job.input, params);
        exec::Context warm = kernels::makeContext(job.input, params);

        const auto t0 = Clock::now();
        ir::Program program = runFlow(pipe_, job.input, b.layers);
        exec::ParallelRunReport coldReport;
        {
          exec::NativeBackend backend({dir, {}, false});
          const auto tp = Clock::now();
          {
            obs::Span span("bench.jit", "bench");
            backend.prepare(program);
          }
          b.layers.jitColdMs.push_back(msSince(tp));
          const Counts before = countsNow();
          const auto tr = Clock::now();
          coldReport = backend.run(program, cold, pool_);
          const double runMs = msSince(tr);
          b.ops.add(job.kernel, msSince(t0));
          b.layers.addRun(job.kernel, runMs, coldReport, before);
        }
        b.layers.addJit(coldReport);
        const exec::Context oracle = interpret(job.input, params, b.layers);
        if (std::string err = checkNative(coldReport, cold, oracle);
            !err.empty())
          return "cold run: " + err;

        const auto tw = Clock::now();
        exec::NativeBackend backend({dir, {}, false});
        {
          obs::Span span("bench.jit", "bench");
          backend.prepare(program);
        }
        const Counts before = countsNow();
        const auto tr = Clock::now();
        exec::ParallelRunReport warmReport = backend.run(program, warm, pool_);
        const double runMs = msSince(tr);
        b.layers.jitWarmMs.push_back(msSince(tw));
        b.layers.addRun(job.kernel, runMs, warmReport, before);
        b.layers.addJit(warmReport);
        b.layers.soBytes += soBytesIn(dir);
        // prepare() emits the TU internally; the traced run measures the
        // emitter on its own, outside the timed first run.
        if (b.opt.trace) runEmit(program, b.layers);
        if (std::string err = checkNative(warmReport, warm, oracle);
            !err.empty())
          return "warm run: " + err;
        if (ir::printProgram(program) != job.ir)
          return "IR differs from the setup compile";
        return "";
      });
    }
    ++b.layers.compilePasses;
    ++b.layers.oraclePasses;
    ++b.layers.runPasses;
  }

 private:
  struct Job {
    std::string kernel;
    ir::Program input;
    std::string ir;  ///< printed IR of the setup compile
  };
  runtime::ThreadPool& pool_;
  flow::PassPipeline pipe_;
  std::vector<Job> jobs_;
};

struct RunKernel {
  const char* name;
  std::int64_t extent;  ///< figure scale
  std::int64_t steps;
  std::int64_t verifyExtent;  ///< interpreter-checked scale
};

/// Four kernels from each of the paper's doall (Fig. 7), reduction
/// (Fig. 8) and pipeline (Fig. 9) groups. doitgen's 4-deep nest is
/// verified at one tile, the rest at two.
constexpr RunKernel kRunSet[] = {
    {"gemm", 512, 0, kTwoTiles},         {"2mm", 384, 0, kTwoTiles},
    {"syrk", 512, 0, kTwoTiles},         {"doitgen", 96, 0, kOneTile},
    {"mvt", 3000, 0, kTwoTiles},         {"gemver", 3000, 0, kTwoTiles},
    {"atax", 3000, 0, kTwoTiles},        {"covariance", 384, 0, kTwoTiles},
    {"jacobi-1d-imper", 40000, 200, kTwoTiles},
    {"jacobi-2d-imper", 1000, 20, kTwoTiles},
    {"seidel-2d", 1000, 10, kTwoTiles},  {"fdtd-2d", 1000, 20, kTwoTiles},
};

/// run-serial / run-parallel: the run set, JIT-compiled once at setup and
/// timed at figure scale.
class RunKernels : public Workload {
 public:
  explicit RunKernels(runtime::ThreadPool& pool) : pool_(pool) {}

  void setup(Bench& b) override {
    jobs_.clear();
    backend_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    b.layers = Layers{};  // the compile stage of the last setup is reported
    const flow::PassPipeline pipe = flow::makePipeline("polyast");
    dir_ = b.newJitDir();
    backend_ = std::make_unique<exec::NativeBackend>(
        exec::NativeBackendOptions{dir_, {}, false});
    for (const RunKernel& k : kRunSet) {
      Job job{&k, kernels::buildKernel(k.name), {}, std::nullopt, 0.0};
      b.outcome.attempt(std::string(k.name) + " setup", [&] {
        job.program = runFlow(pipe, job.input, b.layers);
        if (b.opt.trace) runEmit(job.program, b.layers);
        const auto tp = Clock::now();
        {
          obs::Span span("bench.jit", "bench");
          backend_->prepare(job.program);
        }
        b.layers.jitColdMs.push_back(msSince(tp));

        const Params verify =
            scaled(job.input, k.verifyExtent, kAst.timeTileSize + 2);
        const exec::Context oracle = interpret(job.input, verify, b.layers);
        exec::Context got = kernels::makeContext(job.input, verify);
        const exec::ParallelRunReport report =
            backend_->run(job.program, got, pool_);
        b.layers.addJit(report);
        if (std::string err = checkNative(report, got, oracle); !err.empty())
          return err;

        const Params figure = b.opt.smoke
                                  ? verify
                                  : scaled(job.input, k.extent, k.steps);
        job.ctx.emplace(kernels::makeContext(job.input, figure));
        job.flops = kernels::kernel(k.name).flops(figure);
        return std::string();
      });
      jobs_.push_back(std::move(job));
    }
    b.layers.soBytes += soBytesIn(dir_);
    b.layers.compilePasses = 1;
    b.layers.oraclePasses = 1;

    std::map<std::string, std::string> irs;
    for (const Job& job : jobs_)
      irs[job.kernel->name] = ir::printProgram(job.program);
    b.digest = digestOf(irs);
  }

  void round(Bench& b, int) override {
    for (std::size_t i : b.shuffled(jobs_.size())) {
      Job& job = jobs_[i];
      if (!job.ctx) continue;
      b.outcome.attempt(job.kernel->name, [&] {
        const Counts before = countsNow();
        const auto t0 = Clock::now();
        const exec::ParallelRunReport report =
            backend_->run(job.program, *job.ctx, pool_);
        const double ms = msSince(t0);
        b.ops.add(job.kernel->name, ms);
        b.layers.addRun(job.kernel->name, ms, report, before);
        return report.nativeFallbacks > 0 ? std::string("native run degraded")
                                          : std::string();
      });
    }
    ++b.layers.runPasses;
  }

  void finish(Bench& b) override {
    for (const Job& job : jobs_)
      if (job.ctx)
        b.outcome.attempt(std::string(job.kernel->name) + " output",
                          [&] { return checkFinite(job.program, *job.ctx); });
  }

  void describe(const Bench& b, std::ostream& out) const override {
    std::vector<double> rates;
    for (const Job& job : jobs_) {
      auto it = b.ops.ms.find(job.kernel->name);
      if (it != b.ops.ms.end())
        rates.push_back(job.flops / (median(it->second) * 1e6));
    }
    out << "info run_gflops_geomean " << obs::formatJsonNumber(geomean(rates))
        << " GF/s\n";
  }

 private:
  struct Job {
    const RunKernel* kernel;
    ir::Program input;
    ir::Program program;
    std::optional<exec::Context> ctx;  ///< figure-scale inputs
    double flops;
  };
  runtime::ThreadPool& pool_;
  std::string dir_;
  std::unique_ptr<exec::NativeBackend> backend_;
  std::vector<Job> jobs_;
};

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> endToEnd(const Bench& b) {
  return {
      {"setup_s", median(b.setupS), "s"},
      {"op_ms_p50_geomean", geomean(b.ops.itemQuantiles(0.5)), "ms"},
      {"op_ms_p25_geomean", geomean(b.ops.itemQuantiles(0.25)), "ms"},
      {"peak_rss_mb", b.peakRssMb, "MB"},
  };
}

std::vector<Metric> perLayer(const Bench& b) {
  const Layers& l = b.layers;
  const double cp = std::max(l.compilePasses, 1);
  const double rp = std::max(l.runPasses, 1);
  auto c = [&](const char* name) {
    auto it = l.compileCounts.find(name);
    return it == l.compileCounts.end() ? 0.0 : it->second;
  };
  auto r = [&](const char* name) {
    auto it = l.runCounts.find(name);
    return it == l.runCounts.end() ? 0.0 : it->second / rp;
  };
  auto pass = [&](const char* name) {
    auto it = l.passMs.find(name);
    return it == l.passMs.end() ? 0.0 : it->second / cp;
  };
  double passTotal = 0.0;
  for (const auto& [name, ms] : l.passMs) passTotal += ms;

  std::vector<Metric> m = {
      {"intset.fm_eliminations", c("fm.eliminations") / cp, "count"},
      {"intset.fm_constraints_in", c("fm.constraints_in") / cp, "count"},
      {"intset.fm_constraints_out", c("fm.constraints_out") / cp, "count"},
      {"intset.fm_survival",
       ratio(c("fm.constraints_out"), c("fm.constraints_in")), "ratio"},
      {"intset.fm_cap_hits", c("fm.cap_hits") / cp, "count"},
      {"intset.empty_tests", c("intset.empty_tests") / cp, "count"},
      {"intset.bound_queries", c("intset.bound_queries") / cp, "count"},
      {"intset.projects", c("intset.projects") / cp, "count"},
      {"poly.dep_tests", c("dep.tests") / cp, "count"},
      {"poly.dep_proven_ratio", ratio(c("dep.proven"), c("dep.tests")),
       "ratio"},
      {"poly.dep_test_us",
       ratio(c("dep.sampled_ns"), c("dep.sampled_tests")) / 1000.0, "us"},
      {"transform.sel_candidates", c("sel.candidates") / cp, "count"},
      {"transform.sel_cap_hits", c("sel.cap_hits") / cp, "count"},
      {"transform.sel_fallbacks", c("sel.fallbacks") / cp, "count"},
      {"dl.permutation_queries", c("dl.permutation_queries") / cp, "count"},
      {"dl.distinct_lines_evals", c("dl.distinct_lines_evals") / cp, "count"},
      {"dl.fusion_checks", c("dl.fusion_checks") / cp, "count"},
      {"flow.affine_ms", pass("affine"), "ms"},
      {"flow.skew_ms", pass("skew"), "ms"},
      {"flow.parallelism_ms", pass("parallelism"), "ms"},
      {"flow.tile_ms", pass("tile"), "ms"},
      {"flow.wavefront_ms", pass("wavefront"), "ms"},
      {"flow.register-tile_ms", pass("register-tile"), "ms"},
      {"flow.copy_ms", std::max(l.flowMs - passTotal, 0.0) / cp, "ms"},
      {"ir.emit_ms", l.emitMs / cp, "ms"},
      {"ir.tu_bytes", l.tuBytes / cp, "bytes"},
      {"ir.simd_programs", l.simdPrograms / cp, "count"},
      {"exec.jit_cold_ms_p50", quantile(l.jitColdMs, 0.5), "ms"},
      {"exec.jit_cold_ms_p90", quantile(l.jitColdMs, 0.9), "ms"},
      {"exec.jit_warm_ms_p50", quantile(l.jitWarmMs, 0.5), "ms"},
      {"exec.jit_compiles", l.jitCompiles / cp, "count"},
      {"exec.jit_cache_hits", l.jitCacheHits / cp, "count"},
      {"exec.jit_fallbacks", l.jitFallbacks / cp, "count"},
      {"exec.so_bytes", l.soBytes / cp, "bytes"},
      {"exec.oracle_ms", l.oracleMs / std::max(l.oraclePasses, 1), "ms"},
  };
  for (const RunKernel& k : kRunSet) {
    auto it = l.runMs.find(k.name);
    m.push_back({std::string("exec.run_ms.") + k.name,
                 it == l.runMs.end() ? 0.0 : median(it->second), "ms"});
  }
  m.push_back({"runtime.doall_loops", r("doall"), "count"});
  m.push_back({"runtime.reduction_loops", r("reduction"), "count"});
  m.push_back({"runtime.pipeline_loops", r("pipeline"), "count"});
  m.push_back({"runtime.sequential_fallbacks", r("sequential_fallbacks"),
               "count"});
  m.push_back({"runtime.p2p_waits", r("runtime.sync.p2p_waits"), "count"});
  m.push_back({"runtime.barriers", r("runtime.sync.barriers"), "count"});
  m.push_back({"runtime.spin_iterations", r("runtime.sync.spin_iterations"),
               "count"});
  m.push_back({"runtime.construct_share", ratio(l.constructNs, l.profiledNs),
               "ratio"});
  // The traced run's own op geomean: against the untraced run's
  // op_ms_p50_geomean it gives the tracing overhead.
  m.push_back(
      {"trace.op_ms_p50_geomean", geomean(b.ops.itemQuantiles(0.5)), "ms"});
  return m;
}

void writeMetricsObject(obs::JsonWriter& w,
                        const std::vector<Metric>& metrics) {
  w.beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name).beginObject();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.endObject();
  }
  w.endObject();
}

void writeLayersJson(const Bench& b, const std::vector<Metric>& layers,
                     const std::string& path) {
  std::ofstream out(path);
  obs::JsonWriter w(out);
  w.beginObject();
  w.key("schema").value("polyast-bench-layers-v1");
  w.key("workload").value(b.opt.workload);
  w.key("seed").value(static_cast<std::uint64_t>(b.opt.seed));
  w.key("rounds").value(b.roundS.size());
  w.key("per_layer");
  writeMetricsObject(w, layers);
  w.key("end_to_end_traced");
  writeMetricsObject(w, endToEnd(b));
  w.endObject();
  out << "\n";
}

// ---------------------------------------------------------------------
// Command line.

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "suite-compile", "scop-scale", "jit-cold", "run-serial", "run-parallel"};
  return names;
}

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: polyast_bench --workload NAME --seed N [--seconds S]\n"
               "                     [--trace 0|1] [--work-dir DIR] [--smoke]\n"
               "workloads:";
  for (const auto& w : workloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv, std::string& error) {
  Options o;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool inlineValue = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      inlineValue = true;
    }
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (!inlineValue) {
      if (i + 1 >= argc) {
        error = "missing value for " + arg;
        return std::nullopt;
      }
      value = argv[++i];
    }
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::exception();
        haveSeed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value, &used);
        if (used != value.size() || !std::isfinite(o.seconds) ||
            o.seconds <= 0.0)
          throw std::exception();
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::exception();
        o.trace = value == "1";
      } else if (arg == "--work-dir") {
        o.workDir = value;
      } else {
        error = "unknown option " + arg;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + arg;
      return std::nullopt;
    }
  }
  if (std::find(workloadNames().begin(), workloadNames().end(), o.workload) ==
      workloadNames().end()) {
    error = "unknown or missing --workload '" + o.workload + "'";
    return std::nullopt;
  }
  if (!haveSeed) {
    error = "--seed N is required";
    return std::nullopt;
  }
  return o;
}

fs::path traceDir(const Options& o) {
  return fs::absolute(o.workDir) / "trace";
}

std::string traceStem(const Options& o) {
  return o.workload + "-seed" + std::to_string(o.seed);
}

/// Setups, then whole rounds until --seconds have passed (the last one
/// finishes), then the untimed checks.
void measure(Bench& b, Workload& workload) {
  // Three setups at least; cheap ones repeat for up to a second so their
  // median is not one noisy millisecond reading.
  double setupTotalS = 0.0;
  while (b.setupS.empty() ||
         (!b.opt.smoke && (b.setupS.size() < 3 ||
                           (setupTotalS < 1.0 && b.setupS.size() < 25)))) {
    obs::Span span("bench.setup", "bench");
    const auto t0 = Clock::now();
    workload.setup(b);
    b.setupS.push_back(msSince(t0) / 1000.0);
    setupTotalS += b.setupS.back();
  }
  if (b.opt.trace) fs::create_directories(traceDir(b.opt));

  const auto start = Clock::now();
  for (int r = 0;; ++r) {
    if (r > 0 && (b.opt.smoke || msSince(start) / 1000.0 >= b.opt.seconds))
      break;
    const auto t0 = Clock::now();
    {
      obs::Span span("bench.round", "bench");
      workload.round(b, r);
    }
    b.roundS.push_back(msSince(t0) / 1000.0);
    if (b.opt.trace) {
      // The Chrome trace keeps setup and the first round; later rounds
      // are dropped as they finish, so tracing memory stays bounded.
      if (r == 0)
        obs::writeChromeTraceFile(
            (traceDir(b.opt) / (traceStem(b.opt) + ".trace.json")).string(),
            obs::Tracer::global());
      obs::Tracer::global().clear();
    }
  }
  // Before the final checks, whose interpreter runs are not the workload.
  b.peakRssMb = static_cast<double>(selfprof::peakRssKb()) / 1024.0;
  workload.finish(b);
}

/// The human-readable lines; the JSON result follows them in main().
void report(const Bench& b, const Workload& workload,
            const std::vector<Metric>& metrics) {
  std::cout << "workload " << b.opt.workload << " seed " << b.opt.seed
            << " rounds " << b.roundS.size() << " setups " << b.setupS.size()
            << " ops " << b.ops.all().size()
            << (b.opt.trace ? " (traced)" : "") << "\n";
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " " << obs::formatJsonNumber(m.value)
              << " " << m.unit << "\n";
  const std::vector<double> all = b.ops.all();
  std::cout << "info op_ms pooled p50 "
            << obs::formatJsonNumber(quantile(all, 0.5)) << " p90 "
            << obs::formatJsonNumber(quantile(all, 0.9)) << " n "
            << all.size() << "\n";
  for (const auto& [item, v] : b.ops.ms)
    std::cout << "info item " << item << " p50_ms "
              << obs::formatJsonNumber(median(v)) << " p25_ms "
              << obs::formatJsonNumber(quantile(v, 0.25)) << " n " << v.size()
              << "\n";
  std::cout << "info round_s";
  for (double s : b.roundS) std::cout << " " << obs::formatJsonNumber(s);
  std::cout << "\n";
  if (!b.digest.empty()) std::cout << "info ir_digest " << b.digest << "\n";
  std::cout << "info error_rate "
            << obs::formatJsonNumber(
                   ratio(static_cast<double>(b.outcome.failed),
                         static_cast<double>(b.outcome.attempted)))
            << " (" << b.outcome.failed << "/" << b.outcome.attempted << ")\n";
  workload.describe(b, std::cout);
  if (b.opt.trace) {
    const fs::path stem = traceDir(b.opt) / traceStem(b.opt);
    writeLayersJson(b, metrics, stem.string() + ".layers.json");
    std::cout << "info trace " << stem.string() << ".trace.json\n"
              << "info layers " << stem.string() << ".layers.json\n";
  }
  for (const std::string& f : b.outcome.failures)
    std::cerr << "FAILED " << f << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Options> parsed = parse(argc, argv, error);
  if (!parsed) return usage(error);

  Bench b;
  b.opt = *parsed;
  b.rng.seed(b.opt.seed);
  b.jitRoot = fs::absolute(b.opt.workDir) / ("jit-" + std::to_string(getpid()));
  DirGuard removeJitRoot{b.jitRoot};
  fs::create_directories(b.jitRoot);

  // At most nproc pool threads, and at most the 4 the workload is sized for.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  runtime::ThreadPool pool(b.opt.workload == "run-parallel" ? std::min(hw, 4u)
                                                            : 1u);

  std::unique_ptr<obs::ConstructProfiler> profiler;
  if (b.opt.trace) {
    obs::Tracer::global().setEnabled(true);
    profiler = std::make_unique<obs::ConstructProfiler>();
    profiler->install();
  }

  std::unique_ptr<Workload> workload;
  if (b.opt.workload == "suite-compile") {
    workload = std::make_unique<SuiteCompile>();
  } else if (b.opt.workload == "scop-scale") {
    workload = std::make_unique<ScopScale>();
  } else if (b.opt.workload == "jit-cold") {
    workload = std::make_unique<JitCold>(pool);
  } else {
    workload = std::make_unique<RunKernels>(pool);
  }

  measure(b, *workload);
  if (profiler) profiler->uninstall();
  const std::vector<Metric> metrics = b.opt.trace ? perLayer(b) : endToEnd(b);
  report(b, *workload, metrics);

  const bool correct = b.outcome.failed == 0 && b.outcome.attempted > 0;
  obs::JsonWriter w(std::cout);
  w.beginObject();
  w.key("correct").value(correct);
  w.key("attempted").value(b.outcome.attempted);
  w.key("failed").value(b.outcome.failed);
  w.key("metrics");
  writeMetricsObject(w, metrics);
  w.endObject();
  std::cout << std::endl;
  return correct ? 0 : 1;
}
