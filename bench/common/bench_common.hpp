// Shared infrastructure for the google-benchmark drivers: the thread pool,
// environment-gated observability, deterministic input seeding and the GF/s
// counter.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace polyast::bench {

/// Environment-gated observability for the benches, producing the same
/// artifacts (and schemas) as `polyastc --trace-out / --metrics-out`:
///   POLYAST_OBS=1              enable tracing and latency timing
///   POLYAST_BENCH_TRACE=FILE   write a Chrome trace at process exit
///   POLYAST_BENCH_METRICS=FILE write metrics JSON (CSV if .csv) at exit
/// Unset means everything stays disabled — the timed loops then pay only
/// the relaxed-load checks documented in runtime/parallel.hpp.
///
/// When metrics are requested the session also opens a hardware-counter
/// group (obs::PerfSession) on the main thread for the whole process, so
/// the exported metrics carry `perf.wall_ns` / `perf.cycles` / ... —
/// exactly what `bench_compare --metrics` ingests into the benchmark
/// history. POLYAST_PERF=off keeps wall/TSC only (degraded mode, noted as
/// `obs.perf.degraded` in the artifact).
class ObsSession {
 public:
  ObsSession() {
    const char* obs = std::getenv("POLYAST_OBS");
    trace_ = valueOf("POLYAST_BENCH_TRACE");
    metrics_ = valueOf("POLYAST_BENCH_METRICS");
    if ((obs && *obs && *obs != '0') || !trace_.empty())
      obs::Tracer::global().setEnabled(true);
    if ((obs && *obs && *obs != '0') || !metrics_.empty())
      obs::Registry::global().setTimingEnabled(true);
    if (!metrics_.empty()) {
      perf_ = std::make_unique<obs::PerfAggregate>();
      perf_->beginThread();
    }
  }
  ~ObsSession() {
    if (perf_) {
      perf_->endThread();  // main-thread counters over the process lifetime
      perf_->recordTo(obs::Registry::global());
    }
    if (!trace_.empty())
      obs::writeChromeTraceFile(trace_, obs::Tracer::global());
    if (!metrics_.empty())
      obs::writeMetricsFile(metrics_, obs::Registry::global().snapshot());
  }

 private:
  static std::string valueOf(const char* name) {
    const char* v = std::getenv(name);
    return v ? v : "";
  }

  std::string trace_;
  std::string metrics_;
  std::unique_ptr<obs::PerfAggregate> perf_;
};

/// Installs the process-wide ObsSession (idempotent); called from pool()
/// so every bench picks it up without touching its main().
inline void initObs() { static ObsSession session; }

/// Deterministic fill matching exec::Context::seedAll (values in [0.5,1.5)).
inline void seed(std::vector<double>& buf, const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ull;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::uint64_t x = h ^ (i * 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    buf[i] = 0.5 + static_cast<double>(x % 1000003ull) / 1000003.0;
  }
}

/// The shared pool for all benchmarks, sized by the POLYAST_THREADS
/// environment variable (unset or 0: one thread per core).
inline runtime::ThreadPool& pool() {
  initObs();
  static runtime::ThreadPool instance([] {
    if (const char* env = std::getenv("POLYAST_THREADS"))
      return static_cast<unsigned>(std::atoi(env));
    return 0u;
  }());
  return instance;
}

/// Registers the GFLOP/s counter for the current iteration count.
inline void reportGflops(benchmark::State& state, double flopsPerIter) {
  state.counters["GF/s"] = benchmark::Counter(
      flopsPerIter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

}  // namespace polyast::bench
