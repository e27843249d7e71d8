// bench_compare — the benchmark-regression gate.
//
// Ingests per-kernel timing/counter data (polyast-dlcheck-v1 artifacts
// from `polyastc --execute --perf-out`, polyast-metrics-v1 files from
// the benches' POLYAST_BENCH_METRICS, and/or polyast-compile-profile-v1
// artifacts from `polyastc --compile-profile-out` / bench_compile_scale),
// appends one entry to a versioned history file (BENCH_<host>.json,
// schema polyast-bench-history-v1), compares against the previous entry,
// and exits nonzero when any kernel's wall time regressed beyond the
// threshold.
//
// Usage:
//   bench_compare --history FILE [--dlcheck FILE]... [--metrics FILE]...
//                 [--compile-profile FILE]...
//                 [--label STR] [--timestamp STR] [--host STR]
//                 [--threshold PCT] [--max-entries N] [--record-only]
//   bench_compare --selftest
//
//   --dlcheck FILE    one sample per kernel in the artifact (wall_ns +
//                     hardware counters when not degraded); kernels
//                     measured on a non-default execution backend are
//                     named `kernel@backend` so native and interpreted
//                     timings form separate history series; rows of a
//                     preset other than polyast get `@<pipeline>` appended
//   --metrics FILE    one sample named after the file's basename;
//                     wall_ns comes from the `perf.wall_ns` counter
//                     (fallback: gauge `flow.total_millis` * 1e6),
//                     counters from every `perf.*` counter and gauge
//   --compile-profile FILE  one sample per SCoP row, named
//                     `compile@<scop>` with wall_ns = compile_ms * 1e6;
//                     the row's selfprof counters plus rss_hwm_kb /
//                     statements / loops ride along, so compile-time
//                     regressions gate exactly like kernel wall time
//
// Passing the same suite artifact several times (CI runs the measurement
// N>=3 times) collapses repeated samples of one kernel to their median
// wall time; the observed spread is kept as `wall_ns_min` / `wall_ns_max`
// / `wall_spread_pct` / `repeats` counters, so the history characterizes
// the runner's timing variance instead of hiding it.
//   --threshold PCT   per-kernel wall-time growth that fails the gate
//                     (default 10)
//   --auto-threshold  variance characterization: judge each series
//                     against its own measured noise instead of the
//                     global threshold. A series' noise floor is the
//                     largest `wall_spread_pct` ever recorded for it
//                     (all history entries plus the head run); its gate
//                     is clamp(--threshold-floor,
//                     --threshold-mult x noise_floor, --max-threshold).
//                     Quiet kernels gate tightly; a kernel whose repeats
//                     routinely disagree by 8% is not failed at 5%.
//   --threshold-floor PCT  auto-threshold lower clamp (default 5)
//   --threshold-mult M     auto-threshold noise multiplier (default 3)
//   --max-threshold PCT    auto-threshold upper clamp (default 25)
//   --max-entries N   history entries kept after appending (default 50)
//   --record-only     append + report, never fail (CI seeding mode)
//   --selftest        run the built-in first-run / no-regression /
//                     injected-20%-slowdown / auto-threshold /
//                     compile-profile-gate / cross-entry-noise /
//                     pipeline-series checks
//                     and exit
//
// Setting POLYAST_BENCH_GATE=warn in the environment downgrades detected
// regressions to a warning (exit 0) — the escape hatch for unblocking CI
// while a noisy runner or an accepted slowdown is being dealt with.
//
// Exit codes: 0 ok (including first run), 1 usage/io/malformed input,
// 5 regression detected.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_history.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"

using namespace polyast;

namespace {

int usage() {
  std::cerr
      << "usage: bench_compare --history FILE [--dlcheck FILE]..."
         " [--metrics FILE]...\n"
         "                     [--compile-profile FILE]...\n"
         "                     [--label STR] [--timestamp STR] [--host STR]\n"
         "                     [--threshold PCT] [--auto-threshold]\n"
         "                     [--threshold-floor PCT] [--threshold-mult M]\n"
         "                     [--max-threshold PCT] [--max-entries N]"
         " [--record-only]\n"
         "       bench_compare --selftest\n"
         "POLYAST_BENCH_GATE=warn downgrades regressions to exit 0\n"
         "exit codes: 0 ok/first-run, 1 usage/io, 5 regression\n";
  return 1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  POLYAST_CHECK(in.good(), "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Samples from a polyast-dlcheck-v1 artifact: one per kernel.
void ingestDlCheck(const std::string& path,
                   std::vector<obs::BenchKernelSample>& out) {
  obs::JsonValue root = obs::parseJson(slurp(path));
  const obs::JsonValue* schema = root.find("schema");
  POLYAST_CHECK(schema && schema->isString() &&
                    schema->text == "polyast-dlcheck-v1",
                path + ": not a polyast-dlcheck-v1 artifact");
  const obs::JsonValue* kernels = root.find("kernels");
  POLYAST_CHECK(kernels && kernels->isArray(), path + ": no kernels array");
  for (const obs::JsonValue& k : kernels->items) {
    obs::BenchKernelSample sample;
    const obs::JsonValue* name = k.find("kernel");
    POLYAST_CHECK(name && name->isString(), path + ": kernel without name");
    sample.kernel = name->text;
    // Native-backend measurements get their own history series: a JIT run
    // and an interpreted run of one kernel are different experiments.
    // Likewise packed-SIMD native runs ("simd":"on") vs scalar native —
    // they execute different machine code, so `gemm@native-simd` and
    // `gemm@native` are separate series.
    if (const obs::JsonValue* backend = k.find("backend");
        backend && backend->isString() && backend->text != "interp") {
      sample.kernel += "@" + backend->text;
      if (const obs::JsonValue* simd = k.find("simd");
          simd && simd->isString() && simd->text == "on")
        sample.kernel += "-simd";
    }
    // Relaxed-reduction schedules too: the widened schedule space changes
    // what executes, so strict and relaxed timings must not be compared
    // against each other.
    if (const obs::JsonValue* red = k.find("reductions");
        red && red->isString() && red->text == "relaxed")
      sample.kernel += "@relaxed";
    // And every preset but the paper's flow: a `--pipeline pocc` row runs
    // a different schedule, so it must not merge into the polyast series.
    // Unsuffixed polyast rows keep the series names of older histories.
    if (const obs::JsonValue* pipeline = k.find("pipeline");
        pipeline && pipeline->isString() && pipeline->text != "polyast")
      sample.kernel += "@" + pipeline->text;
    const obs::JsonValue* measured = k.find("measured");
    POLYAST_CHECK(measured && measured->isObject(),
                  path + ": kernel without measured object");
    const obs::JsonValue* wall = measured->find("wall_ns");
    POLYAST_CHECK(wall && wall->isNumber(),
                  path + ": measured without wall_ns");
    sample.wallNs = wall->number;
    if (const obs::JsonValue* c = measured->find("counters");
        c && c->isObject())
      for (const auto& [cname, cv] : c->members)
        if (cv.isNumber()) sample.counters[cname] = cv.number;
    out.push_back(std::move(sample));
  }
}

/// Samples from a polyast-compile-profile-v1 artifact: one per SCoP row,
/// as `compile@<scop>` series. The measured quantity is the compiler's
/// own per-SCoP wall time (`compile_ms`), so a scheduling-search or
/// FM-core slowdown trips the same gate machinery as a kernel runtime
/// regression. The row's operation counters and shape (statements,
/// loops, rss_hwm_kb) ride along as counters for post-hoc diagnosis.
void ingestCompileProfile(const std::string& path,
                          std::vector<obs::BenchKernelSample>& out) {
  obs::JsonValue root = obs::parseJson(slurp(path));
  const obs::JsonValue* schema = root.find("schema");
  POLYAST_CHECK(schema && schema->isString() &&
                    schema->text == "polyast-compile-profile-v1",
                path + ": not a polyast-compile-profile-v1 artifact");
  const obs::JsonValue* scops = root.find("scops");
  POLYAST_CHECK(scops && scops->isArray(), path + ": no scops array");
  for (const obs::JsonValue& s : scops->items) {
    obs::BenchKernelSample sample;
    const obs::JsonValue* name = s.find("scop");
    POLYAST_CHECK(name && name->isString(), path + ": scop without name");
    sample.kernel = "compile@" + name->text;
    const obs::JsonValue* ms = s.find("compile_ms");
    POLYAST_CHECK(ms && ms->isNumber(), path + ": scop without compile_ms");
    sample.wallNs = ms->number * 1e6;
    if (const obs::JsonValue* c = s.find("counters"); c && c->isObject())
      for (const auto& [cname, cv] : c->members)
        if (cv.isNumber()) sample.counters[cname] = cv.number;
    for (const char* shape : {"statements", "loops", "rss_hwm_kb"})
      if (const obs::JsonValue* v = s.find(shape); v && v->isNumber())
        sample.counters[shape] = v->number;
    out.push_back(std::move(sample));
  }
}

std::string baseName(const std::string& path) {
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos)
    name = name.substr(slash + 1);
  if (auto dot = name.find_last_of('.'); dot != std::string::npos)
    name = name.substr(0, dot);
  return name;
}

/// One sample from a polyast-metrics-v1 snapshot (a whole bench process),
/// named after the file.
void ingestMetrics(const std::string& path,
                   std::vector<obs::BenchKernelSample>& out) {
  obs::JsonValue root = obs::parseJson(slurp(path));
  const obs::JsonValue* schema = root.find("schema");
  POLYAST_CHECK(schema && schema->isString() &&
                    schema->text == "polyast-metrics-v1",
                path + ": not a polyast-metrics-v1 artifact");
  obs::BenchKernelSample sample;
  sample.kernel = baseName(path);
  const obs::JsonValue* counters = root.find("counters");
  if (counters && counters->isObject()) {
    for (const auto& [name, v] : counters->members) {
      if (name.rfind("perf.", 0) == 0 && v.isNumber())
        sample.counters[name.substr(5)] = v.number;
    }
  }
  if (const obs::JsonValue* gauges = root.find("gauges");
      gauges && gauges->isObject()) {
    // perf.* gauges (e.g. the benches' backend_interp_wall_ns /
    // backend_native_wall_ns comparison) ride along as counters.
    for (const auto& [name, v] : gauges->members) {
      if (name.rfind("perf.", 0) == 0 && v.isNumber())
        sample.counters.emplace(name.substr(5), v.number);
    }
  }
  if (auto it = sample.counters.find("wall_ns");
      it != sample.counters.end()) {
    sample.wallNs = it->second;
    sample.counters.erase(it);
  } else if (const obs::JsonValue* gauges = root.find("gauges")) {
    const obs::JsonValue* total =
        gauges->isObject() ? gauges->find("flow.total_millis") : nullptr;
    POLYAST_CHECK(total && total->isNumber(),
                  path + ": no perf.wall_ns counter and no "
                         "flow.total_millis gauge to time by");
    sample.wallNs = total->number * 1e6;
  }
  out.push_back(std::move(sample));
}

/// Collapses repeated samples of one kernel (the same suite measured
/// N times) into a single median-wall-time sample that carries the
/// observed spread: `wall_ns_min`, `wall_ns_max`, `wall_spread_pct`
/// ((max-min)/median) and `repeats` counters. Single samples pass
/// through untouched. First-appearance order is preserved.
void collapseRepeats(std::vector<obs::BenchKernelSample>& samples) {
  std::vector<std::string> order;
  std::map<std::string, std::vector<obs::BenchKernelSample>> byKernel;
  for (auto& s : samples) {
    if (byKernel.find(s.kernel) == byKernel.end()) order.push_back(s.kernel);
    byKernel[s.kernel].push_back(std::move(s));
  }
  samples.clear();
  for (const auto& kernel : order) {
    auto& group = byKernel[kernel];
    if (group.size() == 1) {
      samples.push_back(std::move(group.front()));
      continue;
    }
    std::sort(group.begin(), group.end(),
              [](const obs::BenchKernelSample& a,
                 const obs::BenchKernelSample& b) {
                return a.wallNs < b.wallNs;
              });
    // The median sample keeps its own hardware counters — averaging
    // counters across repeats would fabricate a reading no run produced.
    obs::BenchKernelSample median = group[(group.size() - 1) / 2];
    const double lo = group.front().wallNs;
    const double hi = group.back().wallNs;
    median.counters["wall_ns_min"] = lo;
    median.counters["wall_ns_max"] = hi;
    if (median.wallNs > 0.0)
      median.counters["wall_spread_pct"] = (hi - lo) / median.wallNs * 100.0;
    median.counters["repeats"] = static_cast<double>(group.size());
    samples.push_back(std::move(median));
  }
}

/// Per-series gates for --auto-threshold:
/// clamp(floorPct, mult x noise_floor, capPct) per kernel.
std::map<std::string, double> characterizedThresholds(
    const obs::BenchHistory& history, const obs::BenchEntry& head,
    double floorPct, double mult, double capPct) {
  std::map<std::string, double> out;
  for (const auto& [kernel, noise] :
       obs::characterizeNoiseFloor(history, head))
    out[kernel] = std::clamp(mult * noise, floorPct, capPct);
  return out;
}

void printResult(const obs::BenchCompareResult& res, double thresholdPct,
                 bool autoThreshold) {
  if (res.firstRun) {
    std::cerr << "bench_compare: first run, history seeded (no baseline to"
                 " compare against)\n";
    return;
  }
  for (const auto& d : res.deltas) {
    std::fprintf(stderr,
                 "  %-24s %12.0f ns -> %12.0f ns  %+7.2f%% (gate +%.1f%%)%s\n",
                 d.kernel.c_str(), d.baseNs, d.headNs, d.deltaPct,
                 d.thresholdPct, d.regression ? "  REGRESSION" : "");
  }
  for (const auto& k : res.added)
    std::cerr << "  " << k << ": new kernel (no baseline)\n";
  for (const auto& k : res.removed)
    std::cerr << "  " << k << ": dropped since previous entry\n";
  std::cerr << "bench_compare: " << res.deltas.size() << " kernel(s), "
            << res.regressions << " regression(s) beyond ";
  if (autoThreshold)
    std::cerr << "their characterized per-series thresholds\n";
  else
    std::cerr << "+" << thresholdPct << "%\n";
}

/// Built-in check of the gate itself: first-run, no-regression, and an
/// injected 20% slowdown that the default threshold must catch, exercised
/// through a real file round-trip.
int selftest() {
  const std::string path = "bench_compare_selftest_history.json";
  auto entry = [](double gemmNs, double mvtNs) {
    obs::BenchEntry e;
    e.label = "selftest";
    e.kernels.push_back({"gemm", gemmNs, {{"cycles", gemmNs * 3.0}}});
    e.kernels.push_back({"mvt", mvtNs, {}});
    return e;
  };
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::cerr << "  " << (ok ? "ok" : "FAIL") << ": " << what << "\n";
    if (!ok) ++failures;
  };
  try {
    // 1. First run: empty history, nothing to compare.
    obs::BenchHistory history = obs::loadBenchHistory(path + ".missing", "ci");
    obs::BenchCompareResult r =
        obs::compareAgainstLatest(history, entry(1000000, 500000), 10.0);
    expect(r.firstRun && r.regressions == 0, "first run records only");
    history.entries.push_back(entry(1000000, 500000));
    obs::saveBenchHistory(path, history);

    // 2. No regression: same times within noise (+2%).
    history = obs::loadBenchHistory(path, "ci");
    expect(history.entries.size() == 1, "history round-trips through disk");
    r = obs::compareAgainstLatest(history, entry(1020000, 495000), 10.0);
    expect(!r.firstRun && r.regressions == 0 && r.deltas.size() == 2,
           "2% drift passes a 10% gate");

    // 3. Injected 20% slowdown on gemm must be detected.
    r = obs::compareAgainstLatest(history, entry(1200000, 500000), 10.0);
    bool caught = r.regressions == 1 && !r.deltas.empty();
    bool rightKernel = false;
    for (const auto& d : r.deltas)
      if (d.kernel == "gemm" && d.regression &&
          std::fabs(d.deltaPct - 20.0) < 0.5)
        rightKernel = true;
    expect(caught && rightKernel, "injected 20% slowdown detected on gemm");

    // 4. The slowdown passes a record-only style looser threshold of 25%.
    r = obs::compareAgainstLatest(history, entry(1200000, 500000), 25.0);
    expect(r.regressions == 0, "20% slowdown passes a 25% threshold");

    // 5. Three repeats of one kernel collapse to the median with the
    // spread characterized.
    std::vector<obs::BenchKernelSample> reps;
    reps.push_back({"gemm", 1100000, {}});
    reps.push_back({"gemm", 1000000, {}});
    reps.push_back({"gemm", 1050000, {}});
    reps.push_back({"mvt", 500000, {}});
    collapseRepeats(reps);
    bool medianOk = reps.size() == 2 && reps[0].kernel == "gemm" &&
                    reps[0].wallNs == 1050000 && reps[1].wallNs == 500000;
    bool spreadOk = medianOk &&
                    reps[0].counters.at("wall_ns_min") == 1000000 &&
                    reps[0].counters.at("wall_ns_max") == 1100000 &&
                    reps[0].counters.at("repeats") == 3 &&
                    std::fabs(reps[0].counters.at("wall_spread_pct") -
                              100000.0 / 1050000.0 * 100.0) < 1e-9 &&
                    reps[1].counters.count("repeats") == 0;
    expect(medianOk && spreadOk,
           "3 repeats collapse to median with spread counters");

    // 6. --auto-threshold: a quiet series gates at the floor (a real 20%
    // slowdown is still caught), a noisy one absorbs its own spread (a
    // noise-floor-sized delta passes instead of flapping the gate).
    obs::BenchHistory noisyHist;
    noisyHist.host = "ci";
    obs::BenchEntry base = entry(1000000, 500000);
    base.kernels[0].counters["wall_spread_pct"] = 1.0;  // gemm: quiet
    base.kernels[1].counters["wall_spread_pct"] = 6.0;  // mvt: noisy
    noisyHist.entries.push_back(base);
    obs::BenchEntry drift = entry(1200000, 575000);  // gemm +20%, mvt +15%
    auto gates = characterizedThresholds(noisyHist, drift, 5.0, 3.0, 25.0);
    r = obs::compareAgainstLatest(noisyHist, drift, 10.0, &gates);
    bool gemmCaught = false;
    bool mvtPassed = false;
    for (const auto& d : r.deltas) {
      if (d.kernel == "gemm")
        gemmCaught = d.regression && d.thresholdPct == 5.0;
      if (d.kernel == "mvt")
        mvtPassed = !d.regression && d.thresholdPct == 18.0;
    }
    expect(r.regressions == 1 && gemmCaught && mvtPassed,
           "auto-threshold: 20% slowdown caught at the floor, 15% drift on"
           " a 6%-spread series passes its 18% gate");

    // 7. compile@<scop> series from a compile-profile artifact gate
    // exactly like kernel wall time: an injected 20% compile slowdown on
    // one family is caught, the flat family passes.
    auto writeProfile = [](const std::string& file, double deepMs,
                           double wideMs) {
      std::ofstream out(file);
      out << "{\"schema\":\"polyast-compile-profile-v1\","
             "\"pipeline\":\"polyast\",\"scops\":["
             "{\"scop\":\"deep\",\"statements\":2,\"loops\":7,"
             "\"compile_ms\":" << deepMs << ",\"rss_hwm_kb\":0,"
             "\"counters\":{\"fm.eliminations\":10}},"
             "{\"scop\":\"wide\",\"statements\":24,\"loops\":48,"
             "\"compile_ms\":" << wideMs << ",\"rss_hwm_kb\":0,"
             "\"counters\":{\"fm.eliminations\":4}}],"
             "\"residual\":{\"counters\":{\"fm.eliminations\":0}},"
             "\"totals\":{\"rss_hwm_kb\":0,"
             "\"counters\":{\"fm.eliminations\":14}}}\n";
    };
    const std::string profBase = path + ".profile_base.json";
    const std::string profHead = path + ".profile_head.json";
    writeProfile(profBase, 100.0, 40.0);
    writeProfile(profHead, 120.0, 40.5);
    obs::BenchHistory compHist;
    compHist.host = "ci";
    obs::BenchEntry compBase;
    ingestCompileProfile(profBase, compBase.kernels);
    bool ingested = compBase.kernels.size() == 2 &&
                    compBase.kernels[0].kernel == "compile@deep" &&
                    compBase.kernels[0].wallNs == 100.0 * 1e6 &&
                    compBase.kernels[0].counters.at("fm.eliminations") == 10 &&
                    compBase.kernels[0].counters.at("statements") == 2;
    compHist.entries.push_back(compBase);
    obs::BenchEntry compHead;
    ingestCompileProfile(profHead, compHead.kernels);
    r = obs::compareAgainstLatest(compHist, compHead, 10.0);
    bool deepCaught = false;
    bool widePassed = false;
    for (const auto& d : r.deltas) {
      if (d.kernel == "compile@deep")
        deepCaught = d.regression && std::fabs(d.deltaPct - 20.0) < 0.5;
      if (d.kernel == "compile@wide") widePassed = !d.regression;
    }
    expect(ingested && r.regressions == 1 && deepCaught && widePassed,
           "compile-profile rows gate as compile@<scop>: injected 20%"
           " compile slowdown caught");
    std::remove(profBase.c_str());
    std::remove(profHead.c_str());

    // 8. Series without wall_spread_pct anywhere (single-shot compile@
    // rows) get their noise floor from cross-entry wall-time variation,
    // head excluded: 100/108/100 ms history -> 8% spread -> a 24% gate,
    // so a 15% head drift passes instead of flapping at the 5% floor.
    obs::BenchHistory crossHist;
    crossHist.host = "ci";
    for (double ms : {100.0, 108.0, 100.0}) {
      obs::BenchEntry e;
      e.label = "selftest";
      e.kernels.push_back({"compile@deep", ms * 1e6, {}});
      crossHist.entries.push_back(std::move(e));
    }
    obs::BenchEntry crossHead;
    crossHead.kernels.push_back({"compile@deep", 115.0 * 1e6, {}});
    gates = characterizedThresholds(crossHist, crossHead, 5.0, 3.0, 25.0);
    r = obs::compareAgainstLatest(crossHist, crossHead, 10.0, &gates);
    bool gateWidened = gates.count("compile@deep") &&
                       std::fabs(gates.at("compile@deep") - 24.0) < 1e-9;
    expect(gateWidened && r.regressions == 0,
           "cross-entry noise floor: 8% run-to-run spread widens the gate"
           " to 24%, 15% drift passes");

    // 9. dlcheck rows of another preset form their own series: a pocc row
    // of gemm must not merge into (and be median-collapsed with) the
    // polyast row of the same kernel and backend.
    const std::string dl = path + ".dlcheck.json";
    auto dlRow = [](const char* pipeline, int wallNs) {
      return std::string("{\"kernel\":\"fig7/gemm\",\"pipeline\":\"") +
             pipeline +
             "\",\"backend\":\"native\",\"simd\":\"off\","
             "\"measured\":{\"wall_ns\":" + std::to_string(wallNs) + "}}";
    };
    std::ofstream(dl) << "{\"schema\":\"polyast-dlcheck-v1\",\"kernels\":["
                      << dlRow("polyast", 100) << "," << dlRow("pocc", 300)
                      << "]}\n";
    std::vector<obs::BenchKernelSample> dlSamples;
    ingestDlCheck(dl, dlSamples);
    collapseRepeats(dlSamples);
    std::remove(dl.c_str());
    bool split = dlSamples.size() == 2;
    for (const auto& s : dlSamples)
      split = split && ((s.kernel == "fig7/gemm@native" && s.wallNs == 100) ||
                        (s.kernel == "fig7/gemm@native@pocc" &&
                         s.wallNs == 300));
    expect(split, "a pocc dlcheck row forms its own @pocc series");
  } catch (const Error& e) {
    std::cerr << "  FAIL: exception: " << e.what() << "\n";
    ++failures;
  }
  std::remove(path.c_str());
  std::cerr << "bench_compare --selftest: "
            << (failures == 0 ? "all checks passed" : "CHECKS FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string historyPath;
  std::vector<std::string> dlcheckFiles;
  std::vector<std::string> metricsFiles;
  std::vector<std::string> compileProfileFiles;
  std::string label = "local";
  std::string timestamp;
  std::string host = "local";
  double thresholdPct = 10.0;
  bool autoThreshold = false;
  double thresholdFloor = 5.0;
  double thresholdMult = 3.0;
  double maxThreshold = 25.0;
  std::size_t maxEntries = 50;
  bool recordOnly = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
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
        exit(1);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return selftest();
    else if (arg == "--history") historyPath = next();
    else if (arg == "--dlcheck") dlcheckFiles.push_back(next());
    else if (arg == "--metrics") metricsFiles.push_back(next());
    else if (arg == "--compile-profile") compileProfileFiles.push_back(next());
    else if (arg == "--label") label = next();
    else if (arg == "--timestamp") timestamp = next();
    else if (arg == "--host") host = next();
    else if (arg == "--threshold") thresholdPct = std::stod(next());
    else if (arg == "--auto-threshold") autoThreshold = true;
    else if (arg == "--threshold-floor") thresholdFloor = std::stod(next());
    else if (arg == "--threshold-mult") thresholdMult = std::stod(next());
    else if (arg == "--max-threshold") maxThreshold = std::stod(next());
    else if (arg == "--max-entries")
      maxEntries = static_cast<std::size_t>(std::stoul(next()));
    else if (arg == "--record-only") recordOnly = true;
    else return usage();
  }
  if (historyPath.empty() || (dlcheckFiles.empty() && metricsFiles.empty() &&
                              compileProfileFiles.empty()))
    return usage();

  try {
    obs::BenchEntry head;
    head.label = label;
    head.timestamp = timestamp;
    for (const auto& f : dlcheckFiles) ingestDlCheck(f, head.kernels);
    for (const auto& f : metricsFiles) ingestMetrics(f, head.kernels);
    for (const auto& f : compileProfileFiles)
      ingestCompileProfile(f, head.kernels);
    POLYAST_CHECK(!head.kernels.empty(), "no kernel samples in the inputs");
    collapseRepeats(head.kernels);

    obs::BenchHistory history = obs::loadBenchHistory(historyPath, host);
    if (history.host.empty()) history.host = host;
    std::map<std::string, double> gates;
    if (autoThreshold)
      gates = characterizedThresholds(history, head, thresholdFloor,
                                      thresholdMult, maxThreshold);
    obs::BenchCompareResult res = obs::compareAgainstLatest(
        history, head, thresholdPct, autoThreshold ? &gates : nullptr);
    history.entries.push_back(std::move(head));
    obs::saveBenchHistory(historyPath, history, maxEntries);
    printResult(res, thresholdPct, autoThreshold);
    std::cerr << "bench_compare: history '" << historyPath << "' now has "
              << history.entries.size() << " entr"
              << (history.entries.size() == 1 ? "y" : "ies") << "\n";
    if (res.regressions > 0 && !recordOnly) {
      if (const char* gate = std::getenv("POLYAST_BENCH_GATE");
          gate && std::string(gate) == "warn") {
        std::cerr << "bench_compare: POLYAST_BENCH_GATE=warn set —"
                     " reporting the regression(s) without failing\n";
        return 0;
      }
      return 5;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "bench_compare: error: " << e.what() << "\n";
    return 1;
  }
}
