// Hardware performance-counter sessions for the observability layer.
//
// A PerfSession opens one perf_event_open(2) *group* on the calling
// thread — cycles (leader), instructions, L1D-read misses, LLC misses,
// dTLB-read misses — and reads all members atomically with one grouped
// read (PERF_FORMAT_GROUP), scaled by time_enabled/time_running when the
// kernel multiplexed the group. Sessions measure the calling thread only
// (pid=0, cpu=-1, exclude_kernel), which keeps them usable at
// perf_event_paranoid <= 2.
//
// Degradation is a feature, not an error: when the syscall is unavailable
// (ENOSYS), forbidden (EACCES/EPERM — containers, hardened kernels), or
// the PMU lacks a counter, the session still measures wall time
// (steady_clock) and raw TSC cycles (rdtsc on x86) and reports
// degraded()/degradedReason(), which callers record as the
// `obs.perf.degraded` note so exported artifacts say *why* hardware
// counters are absent instead of silently omitting them. Individual
// non-leader counters that fail to open are dropped from the set (partial
// degradation) without losing the rest of the group. POLYAST_PERF=off (or
// 0) forces fully degraded mode — the CI fallback-path tests use this.
//
// PerfAggregate is the multi-thread form: each runtime::ThreadPool worker
// (and the calling thread) opens its own session via beginThread() /
// endThread() around a measured region — the native execution backend
// does this when handed an aggregate — and totals() sums the per-thread
// readings.
//
// Everything compiles on non-Linux hosts; sessions are then always
// degraded with reason "unsupported-platform".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace polyast::obs {

/// The fixed counter set a session asks for (subsets may survive opening).
enum class PerfCounter {
  Cycles,
  Instructions,
  L1DMisses,
  LLCMisses,
  DTLBMisses,
};

/// Stable artifact/metric name of a counter ("cycles", "l1d_misses", ...).
const char* perfCounterName(PerfCounter c);

/// cycles, instructions, l1d_misses, llc_misses, dtlb_misses.
const std::vector<PerfCounter>& defaultPerfCounters();

struct PerfOptions {
  std::vector<PerfCounter> counters = defaultPerfCounters();
  /// Skip perf_event_open entirely (rdtsc + steady_clock only). The
  /// POLYAST_PERF=off environment variable forces this process-wide.
  bool forceDegraded = false;
};

/// True when POLYAST_PERF is set to "off" or "0" in the environment.
bool perfDisabledByEnv();

/// One measurement: hardware counter deltas (only the counters that
/// actually opened) plus the always-available wall/TSC clocks.
struct PerfReading {
  /// No hardware counter opened; `counters` is empty and only the clock
  /// fields below are meaningful.
  bool degraded = true;
  /// Why (errno name or "forced"/"unsupported-platform"); empty when
  /// hardware counters are live.
  std::string degradedReason;
  /// Counter name (perfCounterName) -> multiplex-scaled delta.
  std::map<std::string, std::int64_t> counters;
  std::uint64_t wallNs = 0;
  /// Raw time-stamp-counter delta (x86 rdtsc); 0 when unavailable.
  std::uint64_t tscCycles = 0;
  /// time_running / time_enabled of the group (1.0 = never multiplexed).
  double multiplexRatio = 1.0;

  /// Accumulates counter-wise (used by PerfAggregate); degraded only when
  /// every contribution was.
  PerfReading& operator+=(const PerfReading& o);

  /// Counter value or -1 when absent (degraded / not opened).
  std::int64_t counter(const std::string& name) const;
};

/// A perf-event group bound to the thread that constructs it. start() and
/// stop() must run on that same thread.
class PerfSession {
 public:
  explicit PerfSession(const PerfOptions& opts = {});
  ~PerfSession();
  PerfSession(PerfSession&&) noexcept;
  PerfSession& operator=(PerfSession&&) noexcept;
  PerfSession(const PerfSession&) = delete;
  PerfSession& operator=(const PerfSession&) = delete;

  bool degraded() const;
  const std::string& degradedReason() const;
  /// Counters that actually opened, in group order.
  std::vector<PerfCounter> activeCounters() const;

  /// Resets and enables the group; stamps the wall/TSC baselines.
  void start();
  /// Disables the group and returns the deltas since start().
  PerfReading stop();
  /// Reads the group without disabling or resetting it: the cumulative
  /// deltas since start(). Consecutive samples are monotone, so their
  /// differences attribute disjoint intervals exactly (obs/attrib uses
  /// this at construct boundaries). Must run on the session's thread.
  PerfReading sample();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Thread-safe accumulator of per-thread sessions: each participating
/// thread brackets the measured region with beginThread()/endThread();
/// totals() sums every finished reading. This is what attaches counter
/// sessions to runtime::ThreadPool workers (via ThreadPool::runOnAll)
/// without the pool knowing about perf at all.
class PerfAggregate {
 public:
  explicit PerfAggregate(PerfOptions opts = {});
  ~PerfAggregate();
  PerfAggregate(const PerfAggregate&) = delete;
  PerfAggregate& operator=(const PerfAggregate&) = delete;

  /// Opens and starts a session for the calling thread. Re-entrant per
  /// thread: a second begin before endThread() restarts the measurement.
  void beginThread();
  /// Stops the calling thread's session and folds its reading into the
  /// totals. No-op when beginThread() was never called on this thread.
  void endThread();

  PerfReading totals() const;
  int threadsMeasured() const;
  /// Threads whose session had no hardware counters.
  int threadsDegraded() const;

  /// Records totals into `reg`: one `<prefix>.<counter>` counter per
  /// hardware value, `<prefix>.wall_ns` / `<prefix>.tsc_cycles` counters,
  /// the `<prefix>.threads` gauge, and — when any thread degraded — the
  /// `obs.perf.degraded` note carrying the reason.
  void recordTo(Registry& reg, const std::string& prefix = "perf") const;

 private:
  PerfOptions opts_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<PerfSession>> live_;  ///< by thread
  PerfReading totals_;
  int threadsMeasured_ = 0;
  int threadsDegraded_ = 0;
  std::string firstDegradedReason_;
};

}  // namespace polyast::obs
