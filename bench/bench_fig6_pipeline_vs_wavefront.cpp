// Figure 6: pipeline parallelism (point-to-point synchronization) versus
// wavefront doall (all-to-all barriers) on the same dependence pattern.
//
// Two comparisons:
//   * wall-clock GF/s on a seidel-style sweep over a cell grid, for
//     several grid shapes (start-up/draining hurts wavefront most when
//     the grid is long and thin),
//   * synchronization structure: the pipeline performs point-to-point
//     waits only; the wavefront executes rows+cols-1 all-to-all barriers
//     (reported as counters).
// The seidel-2d instantiation of the same contrast is bench_figures' fig12
// sweep (polyast pipeline vs pocc wavefront on the compiler's output).
#include "common/bench_common.hpp"

namespace polyast::bench {
namespace {

/// Synthetic cell work: a small stencil block so synchronization overhead
/// is visible but not dominant.
struct CellGrid {
  std::int64_t rows, cols, work;
  std::vector<double> data;
  CellGrid(std::int64_t r, std::int64_t c, std::int64_t w)
      : rows(r), cols(c), work(w),
        data(static_cast<std::size_t>((r + 1) * (c + 1) * w)) {
    seed(data, "grid");
  }
  void cell(std::int64_t r, std::int64_t c) {
    // Depends on north and west blocks (true pipeline pattern).
    double* __restrict me =
        &data[static_cast<std::size_t>(((r + 1) * (cols + 1) + (c + 1)) *
                                       work)];
    const double* __restrict north =
        &data[static_cast<std::size_t>((r * (cols + 1) + (c + 1)) * work)];
    const double* __restrict west =
        &data[static_cast<std::size_t>(((r + 1) * (cols + 1) + c) * work)];
    for (std::int64_t i = 0; i < work; ++i)
      me[i] = 0.4 * me[i] + 0.3 * north[i] + 0.3 * west[i];
  }
  double flops() const {
    return 5.0 * static_cast<double>(rows) * static_cast<double>(cols) *
           static_cast<double>(work);
  }
};

void runShape(benchmark::State& state, std::int64_t rows, std::int64_t cols,
              bool usePipeline) {
  CellGrid grid(rows, cols, 2048);
  runtime::SyncStats stats;
  for (auto _ : state) {
    auto cell = [&](std::int64_t r, std::int64_t c) { grid.cell(r, c); };
    stats = usePipeline ? runtime::pipeline2D(pool(), rows, cols, cell)
                        : runtime::wavefront2D(pool(), rows, cols, cell);
    benchmark::ClobberMemory();
  }
  reportGflops(state, grid.flops());
  state.counters["barriers"] = static_cast<double>(stats.barriers);
  state.counters["p2p_waits"] = static_cast<double>(stats.pointToPointWaits);
  state.counters["spin_iters"] = static_cast<double>(stats.spinIterations);
}

void BM_pipe_square(benchmark::State& s) { runShape(s, 64, 64, true); }
void BM_wave_square(benchmark::State& s) { runShape(s, 64, 64, false); }
void BM_pipe_wide(benchmark::State& s) { runShape(s, 8, 512, true); }
void BM_wave_wide(benchmark::State& s) { runShape(s, 8, 512, false); }
void BM_pipe_tall(benchmark::State& s) { runShape(s, 512, 8, true); }
void BM_wave_tall(benchmark::State& s) { runShape(s, 512, 8, false); }

BENCHMARK(BM_pipe_square)->Name("fig6/pipeline/64x64")->UseRealTime();
BENCHMARK(BM_wave_square)->Name("fig6/wavefront/64x64")->UseRealTime();
BENCHMARK(BM_pipe_wide)->Name("fig6/pipeline/8x512")->UseRealTime();
BENCHMARK(BM_wave_wide)->Name("fig6/wavefront/8x512")->UseRealTime();
BENCHMARK(BM_pipe_tall)->Name("fig6/pipeline/512x8")->UseRealTime();
BENCHMARK(BM_wave_tall)->Name("fig6/wavefront/512x8")->UseRealTime();

}  // namespace
}  // namespace polyast::bench

BENCHMARK_MAIN();
