// The paper's Table I and Figs. 7-12, plus the tile and unroll ablations,
// measured on the code the compiler emits.
//
// Every row is one PolyBench kernel through one flow preset
// (flow::makePipeline), JIT-compiled by the native backend and timed at
// figure scale. A row follows one contract:
//   * the flow runs once, and the backend compiles its output once, before
//     anything is timed;
//   * Backend::verify checks the JIT kernel against the sequential
//     interpreter at verification scale (two of the row's tiles plus a
//     remainder per spatial extent; doitgen one tile, its 4-deep oracle is
//     too slow at two) before the row is registered. A row that degrades
//     to the interpreter, loses its SIMD TU, or mismatches ends the binary
//     with exit status 1 instead of being timed;
//   * the timed loop runs the kernel at the figure sizes below, with the
//     seeded inputs restored before every iteration. Only the kernel entry
//     is timed: each iteration runs under its own obs::PerfAggregate, whose
//     mean wall over the measuring threads is the iteration time
//     (google-benchmark manual time), so the backend's per-call TU emission
//     and cache lookup stay out of it. GF/s comes from KernelInfo::flops;
//   * a row whose emitted TU is byte-identical to an earlier row of the
//     same kernel, figure and thread count is printed as an alias
//     ("alias fig7/gemm/pocc-vect = fig7/gemm/pocc") and not timed.
//
// Rows:
//   fig7 / fig8 / fig9  the doall / reduction / pipeline group of
//                       KernelInfo::group, each kernel x {identity, pocc,
//                       pocc-vect, polyast} with SIMD off, plus a
//                       `<preset>-simd` row wherever the SIMD-enabled flow
//                       tags microkernels. Table I is the 2mm rows of fig7.
//   fig10 / fig11 / fig12  {1,2,4}-thread sweeps: gemm and atax under
//                       polyast, seidel-2d under polyast and pocc.
//   ablation            polyast gemm with AstOptions::tileSize in
//                       {8..128}, and unrollInner x unrollOuter in
//                       {1,2,4}^2 (SIMD off: microkernel tags replace
//                       unrolling).
// Rows other than the sweeps run on POLYAST_THREADS threads (default: all
// cores).
//
// At exit every timed row's fastest iteration (its PerfAggregate reading:
// host noise only ever adds time), paired with the DL model's prediction at
// figure scale, is written as polyast-dlcheck-v1 to
// bench_figures_dlcheck.json in the working directory. Its kernel field is
// `<figure>/<kernel>` (plus the sweep or ablation variant), its pipeline
// field the preset, so bench_compare keeps every row in its own series.
//
// Usage: bench_figures [google-benchmark flags], e.g.
//   bench_figures --benchmark_filter='^fig7/gemm/' --benchmark_min_time=0.05
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "dl/dl_predict.hpp"
#include "exec/native_exec.hpp"
#include "flow/presets.hpp"
#include "ir/cemit.hpp"
#include "kernels/polybench.hpp"
#include "obs/dlcheck.hpp"
#include "support/error.hpp"

namespace polyast::bench {
namespace {

using Params = std::map<std::string, std::int64_t>;

/// Figure scale: one spatial extent for every parameter but TSTEPS.
struct FigureSize {
  const char* kernel;
  std::int64_t extent;
  std::int64_t steps;  ///< TSTEPS; 0 for kernels without time loop
};

constexpr FigureSize kFigureSizes[] = {
    {"2mm", 240, 0},          {"3mm", 220, 0},
    {"adi", 400, 10},         {"atax", 1400, 0},
    {"bicg", 1400, 0},        {"cholesky", 400, 0},
    {"correlation", 450, 0},  {"covariance", 450, 0},
    {"doitgen", 48, 0},       {"fdtd-2d", 400, 30},
    {"fdtd-apml", 96, 0},     {"gemm", 256, 0},
    {"gemver", 1200, 0},      {"gesummv", 1500, 0},
    {"jacobi-1d-imper", 10000, 100},
    {"jacobi-2d-imper", 500, 30},
    {"mvt", 1400, 0},         {"seidel-2d", 500, 20},
    {"symm", 256, 0},         {"syr2k", 220, 0},
    {"syrk", 256, 0},         {"trisolv", 1600, 0},
};

Params scaled(const ir::Program& p, std::int64_t extent, std::int64_t steps) {
  Params out;
  for (const auto& name : p.params)
    out[name] = name == "TSTEPS" ? steps : extent;
  return out;
}

Params figureParams(const std::string& kernel, const ir::Program& p) {
  for (const FigureSize& s : kFigureSizes)
    if (kernel == s.kernel) return scaled(p, s.extent, s.steps);
  POLYAST_CHECK(false, "no figure size for kernel " + kernel);
}

struct Row {
  std::string figure;
  std::string kernel;
  std::string preset;
  std::string variant;  ///< "", "threads:N", "tile:N" or "unroll:IxO"
  bool simd = false;
  unsigned threads = 0;  ///< 0: the shared pool
  flow::PipelineOptions options;

  std::string column() const { return preset + (simd ? "-simd" : ""); }
  std::string suffix() const { return variant.empty() ? "" : "/" + variant; }
  std::string name() const {
    return figure + "/" + kernel + "/" + column() + suffix();
  }
  /// Two of the row's tiles plus a remainder per spatial extent (doitgen:
  /// one), so the full-tile code the figure size times is verified too.
  Params verificationParams(const ir::Program& p) const {
    const std::int64_t tiles = kernel == "doitgen" ? 1 : 2;
    return scaled(p, tiles * options.ast.tileSize + 5,
                  options.ast.timeTileSize + 2);
  }
  /// The dlcheck kernel field: the row name without its preset column.
  std::string series() const { return figure + "/" + kernel + suffix(); }
  /// Rows compared for aliases share kernel, figure and thread count.
  std::string scope() const {
    return figure + "/" + kernel + "/" + std::to_string(threads);
  }
};

std::vector<Row> allRows() {
  std::vector<Row> rows;
  auto row = [](std::string figure, std::string kernel, std::string preset,
                std::string variant, bool simd) {
    Row r{std::move(figure), std::move(kernel), std::move(preset),
          std::move(variant), simd, 0, {}};
    r.options.ast.simd = simd;
    return r;
  };
  using Group = kernels::KernelInfo::Group;
  const std::pair<Group, const char*> figures[] = {
      {Group::Doall, "fig7"}, {Group::Reduction, "fig8"},
      {Group::Pipeline, "fig9"}};
  for (const auto& [group, figure] : figures)
    for (const auto& k : kernels::allKernels()) {
      if (k.group != group) continue;
      for (const char* preset : {"identity", "pocc", "pocc-vect", "polyast"})
        for (bool simd : {false, true})
          if (!simd || std::string(preset) != "identity")
            rows.push_back(row(figure, k.name, preset, "", simd));
    }

  const struct {
    const char* figure;
    const char* kernel;
    std::vector<const char*> presets;
  } sweeps[] = {{"fig10", "gemm", {"polyast"}},
                {"fig11", "atax", {"polyast"}},
                {"fig12", "seidel-2d", {"polyast", "pocc"}}};
  for (const auto& s : sweeps)
    for (unsigned threads : {1u, 2u, 4u})
      for (const char* preset : s.presets) {
        Row r = row(s.figure, s.kernel, preset,
                    "threads:" + std::to_string(threads), false);
        r.threads = threads;
        rows.push_back(std::move(r));
      }

  for (std::int64_t tile : {8, 16, 32, 64, 128}) {
    Row r = row("ablation", "gemm", "polyast",
                "tile:" + std::to_string(tile), false);
    r.options.ast.tileSize = tile;
    rows.push_back(std::move(r));
  }
  for (std::int64_t inner : {1, 2, 4})
    for (std::int64_t outer : {1, 2, 4}) {
      Row r = row("ablation", "gemm", "polyast",
                  "unroll:" + std::to_string(inner) + "x" +
                      std::to_string(outer),
                  false);
      r.options.ast.unrollInner = inner;
      r.options.ast.unrollOuter = outer;
      rows.push_back(std::move(r));
    }
  return rows;
}

/// google-benchmark's --benchmark_filter semantics (regex search over the
/// registered name, leading '-' negates), applied before registration so
/// unselected rows are never compiled or verified.
bool selected(const std::string& name) {
  std::string filter = benchmark::GetBenchmarkFilter();
  if (filter.empty() || filter == "all") return true;
  const bool negate = filter[0] == '-';
  if (negate) filter.erase(0, 1);
  try {
    return std::regex_search(name + "/manual_time",
                             std::regex(filter, std::regex::extended)) !=
           negate;
  } catch (const std::regex_error&) {
    std::cerr << "bench_figures: invalid --benchmark_filter '" << filter
              << "'\n";
    std::exit(1);
  }
}

[[noreturn]] void rejectRow(const Row& row, const std::string& why) {
  std::cerr << "bench_figures: " << row.name() << ": " << why
            << "; not timing it\n";
  std::exit(1);
}

class Figures {
 public:
  Figures() = default;
  // Registered benchmarks capture `this`.
  Figures(const Figures&) = delete;
  Figures& operator=(const Figures&) = delete;

  /// Runs the flows of every selected row (and of the earlier rows of its
  /// alias scope), prints aliases, verifies and registers the rest.
  void registerRows() {
    const std::vector<Row> rows = allRows();
    std::map<std::string, std::size_t> lastSelected;  // by scope
    for (std::size_t i = 0; i < rows.size(); ++i)
      if (selected(rows[i].name())) lastSelected[rows[i].scope()] = i;

    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        emitted;  // scope -> (TU, row name) of the rows kept so far
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      auto last = lastSelected.find(row.scope());
      if (last == lastSelected.end() || i > last->second) continue;
      ir::Program input = kernels::buildKernel(row.kernel);
      flow::PassContext ctx;
      ir::Program program =
          flow::makePipeline(row.preset, row.options).run(input, ctx);
      if (row.simd && !ir::programHasMicroKernels(program)) continue;
      const std::string tu = ir::emitNativeKernelTU(program);
      auto& seen = emitted[row.scope()];
      auto same = std::find_if(seen.begin(), seen.end(),
                               [&](const auto& e) { return e.first == tu; });
      if (same != seen.end()) {
        if (selected(row.name()))
          std::cout << "alias " << row.name() << " = " << same->second
                    << "\n";
        continue;
      }
      seen.emplace_back(tu, row.name());
      if (selected(row.name())) add(row, std::move(program));
    }
    std::cout.flush();
  }

  void writeDlCheck() const {
    obs::DlCheckReport report;
    report.threads = static_cast<int>(pool().threadCount());
    for (const auto& p : prepared_)
      if (p->fastestNs > 0.0) report.kernels.push_back(p->entry);
    obs::writeDlCheckFile("bench_figures_dlcheck.json", report);
  }

 private:
  struct Prepared {
    Row row;
    ir::Program program;
    Params params;  ///< figure scale
    double flops = 0.0;
    obs::DlCheckKernel entry;  ///< measured side: the fastest iteration
    double fastestNs = 0.0;    ///< its per-thread wall; 0 until timed
  };

  void add(const Row& row, ir::Program program) {
    auto p = std::make_unique<Prepared>();
    p->row = row;
    p->program = std::move(program);
    p->params = figureParams(row.kernel, p->program);
    p->flops = kernels::kernel(row.kernel).flops(p->params);
    verify(*p);
    const dl::ProgramPrediction pred =
        dl::predictProgram(p->program, p->params);
    p->entry.kernel = row.series();
    p->entry.pipeline = row.preset;
    p->entry.backend = backend_.name();
    p->entry.simd = row.simd ? "on" : "off";
    p->entry.predictedLines = pred.predictedLines;
    p->entry.predictedCost = pred.predictedCost;
    p->entry.nests = static_cast<int>(pred.nests.size());
    benchmark::RegisterBenchmark(
        row.name().c_str(),
        [this, raw = p.get()](benchmark::State& s) { time(s, *raw); })
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    prepared_.push_back(std::move(p));
  }

  static std::unique_ptr<runtime::ThreadPool> ownPool(const Row& row) {
    return row.threads ? std::make_unique<runtime::ThreadPool>(row.threads)
                       : nullptr;
  }

  void verify(const Prepared& p) {
    auto own = ownPool(p.row);
    runtime::ThreadPool& threads = own ? *own : pool();
    backend_.prepare(p.program);
    const Params params = p.row.verificationParams(p.program);
    exec::Context got = kernels::makeContext(p.program, params);
    exec::Context oracle = kernels::makeContext(p.program, params);
    exec::ParallelRunReport report;
    const exec::VerifyResult check =
        backend_.verify(p.program, got, oracle, threads, &report);
    if (report.nativeFallbacks > 0)
      rejectRow(p.row, "degraded to the interpreter (" +
                           backend_.degradedReason() + ")");
    if (backend_.usedSimd() != p.row.simd)
      rejectRow(p.row, "SIMD TU expected but the scalar TU loaded");
    if (!check.passed())
      rejectRow(p.row, "mismatches the interpreter: max abs diff " +
                           std::to_string(check.maxAbsDiff));
  }

  void time(benchmark::State& state, Prepared& p) {
    auto own = ownPool(p.row);
    runtime::ThreadPool& threads = own ? *own : pool();
    const exec::Context input = kernels::makeContext(p.program, p.params);
    exec::Context ctx = input;
    for (auto _ : state) {
      ctx = input;
      obs::PerfAggregate agg;
      backend_.run(p.program, ctx, threads, &agg);
      benchmark::ClobberMemory();
      const obs::PerfReading reading = agg.totals();
      const double wallNs = static_cast<double>(reading.wallNs) /
                            std::max(1, agg.threadsMeasured());
      state.SetIterationTime(wallNs * 1e-9);
      if (p.fastestNs > 0.0 && wallNs >= p.fastestNs) continue;
      p.fastestNs = wallNs;
      p.entry.measured = reading;
      p.entry.threadsMeasured = agg.threadsMeasured();
      p.entry.threadsDegraded = agg.threadsDegraded();
    }
    reportGflops(state, p.flops);
  }

  exec::NativeBackend backend_;
  std::vector<std::unique_ptr<Prepared>> prepared_;
};

}  // namespace
}  // namespace polyast::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  try {
    polyast::bench::Figures figures;
    figures.registerRows();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    figures.writeDlCheck();
  } catch (const std::exception& e) {
    std::cerr << "bench_figures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
