// obs_validate — schema validator for observability artifacts.
//
// Usage:
//   obs_validate --trace FILE [--require-span NAME]... [--min-threads N]
//   obs_validate --metrics FILE [--require-counter NAME]...
//                [--require-histogram NAME]...
//                (--require-counter matches counters and gauges)
//   obs_validate --diagnostics FILE [--require-analysis NAME]...
//                [--max-errors N]
//   obs_validate --dlcheck FILE [--require-kernel NAME]...
//                [--min-kernels N] [--require-backend NAME]
//                [--require-simd on|off]
//   obs_validate --attrib FILE [--require-kernel NAME]...
//                [--min-kernels N] [--require-backend NAME]
//                [--min-constructs N]
//   obs_validate --compile-profile FILE [--require-scop NAME]...
//                [--min-scops N]
//
// Used by CI to check that the files produced by `polyastc --trace-out /
// --metrics-out` (and by the benches) conform to the documented schemas
// (docs/OBSERVABILITY.md):
//
//   * trace: Chrome trace-event JSON — top-level object with a
//     "traceEvents" array; every event has string "ph" and "name" plus
//     numeric "pid"/"tid"; "X" events additionally carry numeric
//     "ts"/"dur"; "M" events are thread_name metadata. --require-span
//     asserts that a complete span with the given name exists;
//     --min-threads asserts the number of distinct tids with "X" events.
//   * metrics: "schema" == "polyast-metrics-v1"; "counters"/"gauges"/
//     "histograms"/"notes" objects with the documented member shapes;
//     histogram bucket_counts has |bounds|+1 entries summing to "count".
//   * diagnostics: "schema" == "polyast-diagnostics-v1" as written by
//     `polyastc --diagnostics-out` (docs/ANALYSIS.md) — string
//     program/pipeline, a summary whose errors/warnings/remarks counts
//     match the diagnostics array, and per-diagnostic string fields with
//     severity in {error, warning, remark} and an all-string detail
//     object. --require-analysis asserts at least one diagnostic from the
//     named analysis; --max-errors bounds summary.errors.
//   * dlcheck: "schema" == "polyast-dlcheck-v1" as written by `polyastc
//     --execute --perf-out` — per-kernel predicted (lines/cost/nests) and
//     measured (wall_ns/counters, with degraded bookkeeping) objects plus
//     a summary whose kernel_count matches and whose rank_correlation
//     entries are each null or a number in [-1, 1]. Non-degraded kernels
//     must carry hardware counters; degraded ones must say why. Every
//     kernel entry names the execution backend that produced it.
//     --require-kernel asserts a kernel entry exists; --min-kernels
//     bounds the suite size from below; --require-backend asserts every
//     entry was executed by the named backend (e.g. "native" to catch a
//     silently-degraded JIT run). The optional "simd" field must be
//     "on"/"off" (whether the native run executed packed SIMD
//     microkernels); --require-simd asserts it on every entry — e.g.
//     "on" to catch a toolchain silently rejecting the vector TU. A
//     kernel may appear once per (pipeline, backend, simd, reductions)
//     configuration; --min-kernels counts distinct kernel names.
//   * attrib: "schema" == "polyast-attrib-v1" as written by `polyastc
//     --attrib-out` — per-kernel total/residual readings plus one row per
//     parallel construct (id/kind/iter/nest/enters, predicted
//     lines/cost/iters/nests, measured wall/tsc/counters). The telescoping
//     invariant is enforced: residual + sum(construct rows) must equal the
//     kernel total *exactly* for wall_ns, and for every hardware counter
//     that all rows carry (a counter missing from some row — e.g. a
//     mid-run group-read failure — is skipped, not failed). Per-kernel and
//     pooled rank_correlation entries must each be null or in [-1, 1].
//     --require-kernel / --min-kernels / --require-backend as for dlcheck;
//     --min-constructs bounds the pooled construct count from below.
//   * compile-profile: "schema" == "polyast-compile-profile-v1" as
//     written by `polyastc --compile-profile-out` / `bench_compile_scale
//     --out` — string pipeline (plus optional generator provenance), one
//     row per SCoP (scop/statements/loops/compile_ms/rss_hwm_kb and a
//     counters object), a residual, and totals. Every counters object
//     must carry the same counter names with non-negative integer
//     values; per-row outcome counters must be internally consistent
//     (dep.proven + dep.disproven == dep.tests, dep.sampled_tests <=
//     dep.tests); row rss_hwm_kb gauges cannot exceed the totals gauge
//     (VmHWM is monotone); and the telescoping invariant is exact:
//     residual + sum(rows) == totals for every counter. --require-scop
//     asserts a row exists; --min-scops bounds the row count from below.
//
// Exit code 0 when valid, 1 with a diagnostic on stderr otherwise.
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/error.hpp"

using namespace polyast;

namespace {

int usage() {
  std::cerr << "usage: obs_validate --trace FILE [--require-span NAME]..."
               " [--min-threads N]\n"
               "       obs_validate --metrics FILE"
               " [--require-counter NAME]... [--require-histogram NAME]...\n"
               "       obs_validate --diagnostics FILE"
               " [--require-analysis NAME]... [--max-errors N]\n"
               "       obs_validate --dlcheck FILE"
               " [--require-kernel NAME]... [--min-kernels N]\n"
               "                    [--require-backend NAME]"
               " [--require-simd on|off]\n"
               "       obs_validate --attrib FILE"
               " [--require-kernel NAME]... [--min-kernels N]\n"
               "                    [--require-backend NAME]"
               " [--min-constructs N]\n"
               "       obs_validate --compile-profile FILE"
               " [--require-scop NAME]... [--min-scops N]\n";
  return 2;
}

int fail(const std::string& what) {
  std::cerr << "obs_validate: " << what << "\n";
  return 1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  POLYAST_CHECK(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool isFiniteNumber(const obs::JsonValue* v) {
  return v && v->isNumber() && std::isfinite(v->number);
}

int validateTrace(const obs::JsonValue& root,
                  const std::vector<std::string>& requiredSpans,
                  std::int64_t minThreads) {
  if (!root.isObject()) return fail("trace: top level is not an object");
  const obs::JsonValue* events = root.find("traceEvents");
  if (!events || !events->isArray())
    return fail("trace: missing traceEvents array");
  std::set<std::string> spanNames;
  std::set<double> spanTids;
  std::size_t index = 0;
  for (const auto& ev : events->items) {
    std::string at = "trace: event " + std::to_string(index++);
    if (!ev.isObject()) return fail(at + " is not an object");
    const obs::JsonValue* ph = ev.find("ph");
    if (!ph || !ph->isString()) return fail(at + ": missing string ph");
    const obs::JsonValue* name = ev.find("name");
    if (!name || !name->isString()) return fail(at + ": missing string name");
    if (!isFiniteNumber(ev.find("pid")) || !isFiniteNumber(ev.find("tid")))
      return fail(at + ": missing numeric pid/tid");
    if (ph->text == "X") {
      if (!isFiniteNumber(ev.find("ts")) || !isFiniteNumber(ev.find("dur")))
        return fail(at + ": X event missing numeric ts/dur");
      if (ev.find("dur")->number < 0)
        return fail(at + ": negative span duration");
      spanNames.insert(name->text);
      spanTids.insert(ev.find("tid")->number);
    } else if (ph->text == "i") {
      if (!isFiniteNumber(ev.find("ts")))
        return fail(at + ": instant event missing numeric ts");
    } else if (ph->text == "M") {
      if (name->text != "thread_name")
        return fail(at + ": unexpected metadata event '" + name->text + "'");
      const obs::JsonValue* args = ev.find("args");
      if (!args || !args->isObject() || !args->find("name") ||
          !args->find("name")->isString())
        return fail(at + ": thread_name metadata missing args.name");
    } else {
      return fail(at + ": unknown event phase '" + ph->text + "'");
    }
  }
  for (const auto& want : requiredSpans)
    if (!spanNames.count(want))
      return fail("trace: required span '" + want + "' not found");
  if (static_cast<std::int64_t>(spanTids.size()) < minThreads)
    return fail("trace: spans cover " + std::to_string(spanTids.size()) +
                " thread(s), expected >= " + std::to_string(minThreads));
  std::cout << "trace ok: " << events->items.size() << " events, "
            << spanNames.size() << " span names, " << spanTids.size()
            << " threads\n";
  return 0;
}

int validateMetrics(const obs::JsonValue& root,
                    const std::vector<std::string>& requiredCounters,
                    const std::vector<std::string>& requiredHistograms) {
  if (!root.isObject()) return fail("metrics: top level is not an object");
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->isString() || schema->text != "polyast-metrics-v1")
    return fail("metrics: missing schema \"polyast-metrics-v1\"");
  for (const char* section : {"counters", "gauges", "histograms", "notes"}) {
    const obs::JsonValue* s = root.find(section);
    if (!s || !s->isObject())
      return fail(std::string("metrics: missing object \"") + section + "\"");
  }
  for (const auto& [name, v] : root.find("counters")->members)
    if (!v.isNumber() || v.number != std::floor(v.number))
      return fail("metrics: counter '" + name + "' is not an integer");
  for (const auto& [name, v] : root.find("gauges")->members)
    if (!v.isNumber()) return fail("metrics: gauge '" + name + "' not a number");
  for (const auto& [name, v] : root.find("notes")->members)
    if (!v.isString()) return fail("metrics: note '" + name + "' not a string");
  for (const auto& [name, h] : root.find("histograms")->members) {
    std::string at = "metrics: histogram '" + name + "'";
    if (!h.isObject()) return fail(at + " is not an object");
    const obs::JsonValue* bounds = h.find("bounds");
    const obs::JsonValue* buckets = h.find("bucket_counts");
    if (!bounds || !bounds->isArray() || !buckets || !buckets->isArray())
      return fail(at + ": missing bounds/bucket_counts arrays");
    if (buckets->items.size() != bounds->items.size() + 1)
      return fail(at + ": bucket_counts must have |bounds|+1 entries");
    if (!isFiniteNumber(h.find("count")) || !isFiniteNumber(h.find("sum")))
      return fail(at + ": missing numeric count/sum");
    double inBuckets = 0;
    for (const auto& b : buckets->items) {
      if (!b.isNumber() || b.number < 0)
        return fail(at + ": bad bucket count");
      inBuckets += b.number;
    }
    if (inBuckets != h.find("count")->number)
      return fail(at + ": bucket counts do not sum to count");
    double prev = -std::numeric_limits<double>::infinity();
    for (const auto& b : bounds->items) {
      if (!b.isNumber() || b.number <= prev)
        return fail(at + ": bounds not strictly increasing");
      prev = b.number;
    }
  }
  for (const auto& want : requiredCounters)
    if (!root.find("counters")->find(want) && !root.find("gauges")->find(want))
      return fail("metrics: required counter/gauge '" + want + "' not found");
  for (const auto& want : requiredHistograms)
    if (!root.find("histograms")->find(want))
      return fail("metrics: required histogram '" + want + "' not found");
  std::cout << "metrics ok: " << root.find("counters")->members.size()
            << " counters, " << root.find("gauges")->members.size()
            << " gauges, " << root.find("histograms")->members.size()
            << " histograms, " << root.find("notes")->members.size()
            << " notes\n";
  return 0;
}

int validateDiagnostics(const obs::JsonValue& root,
                        const std::vector<std::string>& requiredAnalyses,
                        std::int64_t maxErrors) {
  if (!root.isObject()) return fail("diagnostics: top level is not an object");
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->isString() ||
      schema->text != "polyast-diagnostics-v1")
    return fail("diagnostics: missing schema \"polyast-diagnostics-v1\"");
  for (const char* field : {"program", "pipeline"}) {
    const obs::JsonValue* v = root.find(field);
    if (!v || !v->isString())
      return fail(std::string("diagnostics: missing string \"") + field +
                  "\"");
  }
  const obs::JsonValue* summary = root.find("summary");
  if (!summary || !summary->isObject())
    return fail("diagnostics: missing summary object");
  for (const char* field : {"errors", "warnings", "remarks"}) {
    const obs::JsonValue* v = summary->find(field);
    if (!isFiniteNumber(v) || v->number != std::floor(v->number) ||
        v->number < 0)
      return fail(std::string("diagnostics: summary.") + field +
                  " is not a non-negative integer");
  }
  const obs::JsonValue* diags = root.find("diagnostics");
  if (!diags || !diags->isArray())
    return fail("diagnostics: missing diagnostics array");
  std::size_t counts[3] = {0, 0, 0};  // error, warning, remark
  std::set<std::string> analyses;
  std::size_t index = 0;
  for (const auto& d : diags->items) {
    std::string at = "diagnostics: entry " + std::to_string(index++);
    if (!d.isObject()) return fail(at + " is not an object");
    for (const char* field :
         {"severity", "analysis", "code", "message", "location",
          "after_pass"}) {
      const obs::JsonValue* v = d.find(field);
      if (!v || !v->isString())
        return fail(at + ": missing string \"" + field + "\"");
    }
    const std::string& sev = d.find("severity")->text;
    if (sev == "error") ++counts[0];
    else if (sev == "warning") ++counts[1];
    else if (sev == "remark") ++counts[2];
    else return fail(at + ": unknown severity '" + sev + "'");
    analyses.insert(d.find("analysis")->text);
    const obs::JsonValue* detail = d.find("detail");
    if (!detail || !detail->isObject())
      return fail(at + ": missing detail object");
    for (const auto& [key, v] : detail->members)
      if (!v.isString())
        return fail(at + ": detail." + key + " is not a string");
    // Reduction-edge provenance: whenever an analysis reports a
    // reduction-classified dependence — the reductions pass always, the
    // race analysis when detail.reduction_class is present — the finding
    // must name the statement pair, the dependence level, and the
    // covering construct, or it is not actionable.
    const std::string& from = d.find("analysis")->text;
    if (from == "reductions" || detail->find("reduction_class")) {
      for (const char* field : {"array", "src", "dst", "level",
                                "construct_id"}) {
        const obs::JsonValue* v = detail->find(field);
        if (!v || !v->isString() || v->text.empty())
          return fail(at + ": reduction-edge diagnostic missing detail." +
                      field);
      }
      if (from == "reductions") {
        for (const char* field : {"class", "construct", "construct_kind"}) {
          const obs::JsonValue* v = detail->find(field);
          if (!v || !v->isString() || v->text.empty())
            return fail(at + ": reductions diagnostic missing detail." +
                        field);
        }
      }
    }
  }
  const char* names[3] = {"errors", "warnings", "remarks"};
  for (int s = 0; s < 3; ++s)
    if (summary->find(names[s])->number != static_cast<double>(counts[s]))
      return fail(std::string("diagnostics: summary.") + names[s] +
                  " does not match the diagnostics array");
  for (const auto& want : requiredAnalyses)
    if (!analyses.count(want))
      return fail("diagnostics: no diagnostic from analysis '" + want + "'");
  if (maxErrors >= 0 && static_cast<std::int64_t>(counts[0]) > maxErrors)
    return fail("diagnostics: " + std::to_string(counts[0]) +
                " error(s), expected <= " + std::to_string(maxErrors));
  std::cout << "diagnostics ok: " << diags->items.size() << " entries, "
            << counts[0] << " errors, " << counts[1] << " warnings, "
            << counts[2] << " remarks\n";
  return 0;
}

int validateDlCheck(const obs::JsonValue& root,
                    const std::vector<std::string>& requiredKernels,
                    std::int64_t minKernels,
                    const std::string& requiredBackend,
                    const std::string& requiredSimd) {
  if (!root.isObject()) return fail("dlcheck: top level is not an object");
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->isString() || schema->text != "polyast-dlcheck-v1")
    return fail("dlcheck: missing schema \"polyast-dlcheck-v1\"");
  const obs::JsonValue* threads = root.find("threads");
  if (!isFiniteNumber(threads) || threads->number < 1)
    return fail("dlcheck: missing positive numeric threads");
  const obs::JsonValue* degraded = root.find("degraded");
  if (!degraded || degraded->kind != obs::JsonValue::Kind::Bool)
    return fail("dlcheck: missing boolean degraded");
  const obs::JsonValue* kernels = root.find("kernels");
  if (!kernels || !kernels->isArray())
    return fail("dlcheck: missing kernels array");
  std::set<std::string> names;    ///< distinct kernels (--min-kernels)
  std::set<std::string> configs;  ///< kernel x pipeline x backend x modes
  std::size_t degradedKernels = 0;
  std::size_t index = 0;
  for (const auto& k : kernels->items) {
    std::string at = "dlcheck: kernel " + std::to_string(index++);
    if (!k.isObject()) return fail(at + " is not an object");
    for (const char* field : {"kernel", "pipeline", "backend"}) {
      const obs::JsonValue* v = k.find(field);
      if (!v || !v->isString())
        return fail(at + ": missing string \"" + field + "\"");
    }
    at = "dlcheck: kernel '" + k.find("kernel")->text + "'";
    if (!requiredBackend.empty() &&
        k.find("backend")->text != requiredBackend)
      return fail(at + ": backend '" + k.find("backend")->text +
                  "', expected '" + requiredBackend + "'");
    // One entry per measured configuration: a figure artifact carries a
    // kernel once per preset and SIMD mode, and bench_compare gives each
    // of those its own series.
    const obs::JsonValue* simd = k.find("simd");
    const obs::JsonValue* red = k.find("reductions");
    names.insert(k.find("kernel")->text);
    if (!configs
             .insert(k.find("kernel")->text + "|" + k.find("pipeline")->text +
                     "|" + k.find("backend")->text + "|" +
                     (simd && simd->isString() ? simd->text : "") + "|" +
                     (red && red->isString() ? red->text : ""))
             .second)
      return fail(at + ": duplicate entry");
    if (simd && (!simd->isString() ||
                 (simd->text != "on" && simd->text != "off")))
      return fail(at + ": simd is not \"on\"/\"off\"");
    if (!requiredSimd.empty() && (!simd || simd->text != requiredSimd))
      return fail(at + ": simd '" + (simd ? simd->text : "(missing)") +
                  "', expected '" + requiredSimd + "'");
    const obs::JsonValue* pred = k.find("predicted");
    if (!pred || !pred->isObject())
      return fail(at + ": missing predicted object");
    for (const char* field : {"lines", "cost", "nests"}) {
      const obs::JsonValue* v = pred->find(field);
      if (!isFiniteNumber(v) || v->number < 0)
        return fail(at + ": predicted." + field +
                    " is not a non-negative number");
    }
    const obs::JsonValue* meas = k.find("measured");
    if (!meas || !meas->isObject())
      return fail(at + ": missing measured object");
    for (const char* field :
         {"wall_ns", "tsc_cycles", "multiplex_ratio", "threads",
          "threads_degraded"}) {
      const obs::JsonValue* v = meas->find(field);
      if (!isFiniteNumber(v) || v->number < 0)
        return fail(at + ": measured." + field +
                    " is not a non-negative number");
    }
    const obs::JsonValue* kd = meas->find("degraded");
    if (!kd || kd->kind != obs::JsonValue::Kind::Bool)
      return fail(at + ": measured.degraded is not a boolean");
    const obs::JsonValue* counters = meas->find("counters");
    if (!counters || !counters->isObject())
      return fail(at + ": missing measured.counters object");
    for (const auto& [cname, cv] : counters->members)
      if (!isFiniteNumber(&cv) || cv.number < 0)
        return fail(at + ": counter '" + cname + "' is not a non-negative"
                    " number");
    if (kd->boolValue) {
      ++degradedKernels;
      // A degraded measurement must say why (the whole point of the
      // obs.perf.degraded contract) and still carry wall time.
      const obs::JsonValue* reason = meas->find("degraded_reason");
      if (!reason || !reason->isString() || reason->text.empty())
        return fail(at + ": degraded without degraded_reason");
      if (meas->find("wall_ns")->number <= 0)
        return fail(at + ": degraded measurement without wall time");
    } else if (counters->members.empty()) {
      return fail(at + ": non-degraded measurement without counters");
    }
  }
  if (degradedKernels > 0 && !degraded->boolValue)
    return fail("dlcheck: degraded kernels present but top-level degraded"
                " is false");
  const obs::JsonValue* summary = root.find("summary");
  if (!summary || !summary->isObject())
    return fail("dlcheck: missing summary object");
  const obs::JsonValue* count = summary->find("kernel_count");
  if (!isFiniteNumber(count) ||
      count->number != static_cast<double>(kernels->items.size()))
    return fail("dlcheck: summary.kernel_count does not match the kernels"
                " array");
  const obs::JsonValue* corr = summary->find("rank_correlation");
  if (!corr || !corr->isObject())
    return fail("dlcheck: missing summary.rank_correlation object");
  for (const auto& [series, v] : corr->members) {
    if (v.kind == obs::JsonValue::Kind::Null) continue;
    if (!v.isNumber() || v.number < -1.0 || v.number > 1.0)
      return fail("dlcheck: rank_correlation." + series +
                  " is not null or in [-1, 1]");
  }
  for (const auto& want : requiredKernels)
    if (!names.count(want))
      return fail("dlcheck: required kernel '" + want + "' not found");
  if (static_cast<std::int64_t>(names.size()) < minKernels)
    return fail("dlcheck: " + std::to_string(names.size()) +
                " kernel(s), expected >= " + std::to_string(minKernels));
  std::cout << "dlcheck ok: " << names.size() << " kernels ("
            << degradedKernels << " degraded)\n";
  return 0;
}

/// Validates one reading object ({wall_ns, tsc_cycles, counters{...}},
/// optionally with degraded bookkeeping) and collects its numbers into
/// `wall`/`counters` for the telescoping sum check.
int readAttribReading(const obs::JsonValue* r, const std::string& at,
                      bool withDegraded, double* wall,
                      std::map<std::string, double>* counters,
                      std::set<std::string>* missing) {
  if (!r || !r->isObject()) return fail(at + " is not an object");
  for (const char* field : {"wall_ns", "tsc_cycles"}) {
    const obs::JsonValue* v = r->find(field);
    if (!isFiniteNumber(v) || v->number < 0)
      return fail(at + "." + field + " is not a non-negative number");
  }
  if (withDegraded) {
    const obs::JsonValue* d = r->find("degraded");
    if (!d || d->kind != obs::JsonValue::Kind::Bool)
      return fail(at + ".degraded is not a boolean");
    if (d->boolValue) {
      const obs::JsonValue* reason = r->find("degraded_reason");
      if (!reason || !reason->isString() || reason->text.empty())
        return fail(at + ": degraded without degraded_reason");
    }
  }
  const obs::JsonValue* cs = r->find("counters");
  if (!cs || !cs->isObject())
    return fail(at + ": missing counters object");
  for (const auto& [cname, cv] : cs->members)
    if (!isFiniteNumber(&cv) || cv.number < 0)
      return fail(at + ": counter '" + cname +
                  "' is not a non-negative number");
  if (wall) *wall += r->find("wall_ns")->number;
  if (counters && missing) {
    // A counter absent from this reading cannot participate in an exact
    // sum check across readings.
    for (const auto& [cname, total] : *counters)
      if (!cs->find(cname)) missing->insert(cname);
    for (const auto& [cname, cv] : cs->members) (*counters)[cname] += cv.number;
  }
  return 0;
}

int checkRankCorrelation(const obs::JsonValue* parent,
                         const std::string& at) {
  const obs::JsonValue* corr =
      parent ? parent->find("rank_correlation") : nullptr;
  if (!corr || !corr->isObject())
    return fail(at + ": missing rank_correlation object");
  for (const auto& [series, v] : corr->members) {
    if (v.kind == obs::JsonValue::Kind::Null) continue;
    if (!v.isNumber() || v.number < -1.0 || v.number > 1.0)
      return fail(at + ": rank_correlation." + series +
                  " is not null or in [-1, 1]");
  }
  return 0;
}

int validateAttrib(const obs::JsonValue& root,
                   const std::vector<std::string>& requiredKernels,
                   std::int64_t minKernels,
                   const std::string& requiredBackend,
                   std::int64_t minConstructs) {
  if (!root.isObject()) return fail("attrib: top level is not an object");
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->isString() || schema->text != "polyast-attrib-v1")
    return fail("attrib: missing schema \"polyast-attrib-v1\"");
  const obs::JsonValue* threads = root.find("threads");
  if (!isFiniteNumber(threads) || threads->number < 1)
    return fail("attrib: missing positive numeric threads");
  const obs::JsonValue* degraded = root.find("degraded");
  if (!degraded || degraded->kind != obs::JsonValue::Kind::Bool)
    return fail("attrib: missing boolean degraded");
  const obs::JsonValue* kernels = root.find("kernels");
  if (!kernels || !kernels->isArray())
    return fail("attrib: missing kernels array");
  std::set<std::string> names;
  std::size_t totalConstructs = 0;
  std::size_t index = 0;
  for (const auto& k : kernels->items) {
    std::string at = "attrib: kernel " + std::to_string(index++);
    if (!k.isObject()) return fail(at + " is not an object");
    for (const char* field : {"kernel", "pipeline", "backend"}) {
      const obs::JsonValue* v = k.find(field);
      if (!v || !v->isString())
        return fail(at + ": missing string \"" + field + "\"");
    }
    at = "attrib: kernel '" + k.find("kernel")->text + "'";
    if (!requiredBackend.empty() &&
        k.find("backend")->text != requiredBackend)
      return fail(at + ": backend '" + k.find("backend")->text +
                  "', expected '" + requiredBackend + "'");
    if (!names.insert(k.find("kernel")->text).second)
      return fail(at + ": duplicate entry");

    double totalWall = 0;
    std::map<std::string, double> totalCounters;
    std::set<std::string> unusedMissing;
    if (int rc = readAttribReading(k.find("total"), at + ".total",
                                   /*withDegraded=*/true, &totalWall,
                                   &totalCounters, &unusedMissing))
      return rc;

    // Telescoping sum: residual + every construct row == total.
    double sumWall = 0;
    std::map<std::string, double> sumCounters;
    std::set<std::string> missing;
    if (int rc = readAttribReading(k.find("residual"), at + ".residual",
                                   /*withDegraded=*/false, &sumWall,
                                   &sumCounters, &missing))
      return rc;
    const obs::JsonValue* constructs = k.find("constructs");
    if (!constructs || !constructs->isArray())
      return fail(at + ": missing constructs array");
    std::set<double> ids;
    for (const auto& c : constructs->items) {
      std::string cat = at + " construct " + std::to_string(ids.size());
      if (!c.isObject()) return fail(cat + " is not an object");
      for (const char* field : {"kind", "iter", "nest"}) {
        const obs::JsonValue* v = c.find(field);
        if (!v || !v->isString())
          return fail(cat + ": missing string \"" + field + "\"");
      }
      const obs::JsonValue* id = c.find("id");
      if (!isFiniteNumber(id) || id->number < 0)
        return fail(cat + ": missing non-negative numeric id");
      if (!ids.insert(id->number).second)
        return fail(cat + ": duplicate construct id");
      const obs::JsonValue* enters = c.find("enters");
      if (!isFiniteNumber(enters) || enters->number < 1)
        return fail(cat + ": enters is not a positive number");
      const obs::JsonValue* pred = c.find("predicted");
      if (!pred || !pred->isObject())
        return fail(cat + ": missing predicted object");
      for (const char* field : {"lines", "cost", "iters", "nests"}) {
        const obs::JsonValue* v = pred->find(field);
        if (!isFiniteNumber(v) || v->number < 0)
          return fail(cat + ": predicted." + field +
                      " is not a non-negative number");
      }
      if (int rc = readAttribReading(c.find("measured"), cat + ".measured",
                                     /*withDegraded=*/false, &sumWall,
                                     &sumCounters, &missing))
        return rc;
    }
    totalConstructs += ids.size();

    if (sumWall != totalWall)
      return fail(at + ": residual + construct wall_ns (" +
                  std::to_string(sumWall) + ") != total wall_ns (" +
                  std::to_string(totalWall) + ")");
    for (const auto& [cname, total] : totalCounters) {
      // Exact per-counter telescoping, unless some row lacks the counter
      // (a group read failed mid-run) — then the sum is undefined.
      if (missing.count(cname)) continue;
      auto it = sumCounters.find(cname);
      if (it == sumCounters.end() || it->second != total)
        return fail(at + ": residual + construct '" + cname +
                    "' does not sum to the total");
    }

    const obs::JsonValue* summary = k.find("summary");
    if (!summary || !summary->isObject())
      return fail(at + ": missing summary object");
    const obs::JsonValue* count = summary->find("construct_count");
    if (!isFiniteNumber(count) ||
        count->number != static_cast<double>(ids.size()))
      return fail(at + ": summary.construct_count does not match the"
                  " constructs array");
    if (int rc = checkRankCorrelation(summary, at + ".summary")) return rc;
  }

  const obs::JsonValue* summary = root.find("summary");
  if (!summary || !summary->isObject())
    return fail("attrib: missing summary object");
  const obs::JsonValue* count = summary->find("kernel_count");
  if (!isFiniteNumber(count) ||
      count->number != static_cast<double>(kernels->items.size()))
    return fail("attrib: summary.kernel_count does not match the kernels"
                " array");
  const obs::JsonValue* ccount = summary->find("construct_count");
  if (!isFiniteNumber(ccount) ||
      ccount->number != static_cast<double>(totalConstructs))
    return fail("attrib: summary.construct_count does not match the"
                " per-kernel construct arrays");
  if (int rc = checkRankCorrelation(summary, "attrib: summary")) return rc;
  for (const auto& want : requiredKernels)
    if (!names.count(want))
      return fail("attrib: required kernel '" + want + "' not found");
  if (static_cast<std::int64_t>(names.size()) < minKernels)
    return fail("attrib: " + std::to_string(names.size()) +
                " kernel(s), expected >= " + std::to_string(minKernels));
  if (static_cast<std::int64_t>(totalConstructs) < minConstructs)
    return fail("attrib: " + std::to_string(totalConstructs) +
                " construct(s), expected >= " +
                std::to_string(minConstructs));
  std::cout << "attrib ok: " << names.size() << " kernels, "
            << totalConstructs << " constructs\n";
  return 0;
}

/// Validates a counters object: every member a non-negative integer.
/// Accumulates into `sums` when given.
int readProfileCounters(const obs::JsonValue* cs, const std::string& at,
                        std::map<std::string, double>* sums) {
  if (!cs || !cs->isObject())
    return fail(at + ": missing counters object");
  for (const auto& [cname, cv] : cs->members) {
    if (!isFiniteNumber(&cv) || cv.number < 0 ||
        cv.number != std::floor(cv.number))
      return fail(at + ": counter '" + cname +
                  "' is not a non-negative integer");
    if (sums) (*sums)[cname] += cv.number;
  }
  return 0;
}

int validateCompileProfile(const obs::JsonValue& root,
                           const std::vector<std::string>& requiredScops,
                           std::int64_t minScops) {
  if (!root.isObject())
    return fail("compile-profile: top level is not an object");
  const obs::JsonValue* schema = root.find("schema");
  if (!schema || !schema->isString() ||
      schema->text != "polyast-compile-profile-v1")
    return fail("compile-profile: missing schema"
                " \"polyast-compile-profile-v1\"");
  const obs::JsonValue* pipeline = root.find("pipeline");
  if (!pipeline || !pipeline->isString() || pipeline->text.empty())
    return fail("compile-profile: missing string pipeline");
  const obs::JsonValue* generator = root.find("generator");
  if (generator && !generator->isString())
    return fail("compile-profile: generator is not a string");

  const obs::JsonValue* totals = root.find("totals");
  if (!totals || !totals->isObject())
    return fail("compile-profile: missing totals object");
  const obs::JsonValue* totalRss = totals->find("rss_hwm_kb");
  if (!isFiniteNumber(totalRss) || totalRss->number < 0)
    return fail("compile-profile: totals.rss_hwm_kb is not a non-negative"
                " number");
  std::map<std::string, double> totalCounters;
  if (int rc = readProfileCounters(totals->find("counters"),
                                   "compile-profile: totals",
                                   &totalCounters))
    return rc;

  // Every counters object (rows, residual) must carry exactly the
  // totals' counter names — a missing name would silently break the
  // telescoping check, an extra one could never telescope.
  auto sameNames = [&](const obs::JsonValue* cs, const std::string& at) -> int {
    if (cs->members.size() != totalCounters.size())
      return fail(at + ": counter names do not match totals");
    for (const auto& [cname, cv] : cs->members)
      if (!totalCounters.count(cname))
        return fail(at + ": counter '" + cname + "' not present in totals");
    return 0;
  };

  const obs::JsonValue* scops = root.find("scops");
  if (!scops || !scops->isArray())
    return fail("compile-profile: missing scops array");
  std::set<std::string> names;
  std::map<std::string, double> rowSums;
  for (const auto& row : scops->items) {
    std::string at = "compile-profile: scop " + std::to_string(names.size());
    if (!row.isObject()) return fail(at + " is not an object");
    const obs::JsonValue* name = row.find("scop");
    if (!name || !name->isString() || name->text.empty())
      return fail(at + ": missing string scop");
    at = "compile-profile: scop '" + name->text + "'";
    if (!names.insert(name->text).second)
      return fail(at + ": duplicate entry");
    const obs::JsonValue* stmts = row.find("statements");
    if (!isFiniteNumber(stmts) || stmts->number < 1 ||
        stmts->number != std::floor(stmts->number))
      return fail(at + ": statements is not a positive integer");
    const obs::JsonValue* loops = row.find("loops");
    if (!isFiniteNumber(loops) || loops->number < 0 ||
        loops->number != std::floor(loops->number))
      return fail(at + ": loops is not a non-negative integer");
    const obs::JsonValue* ms = row.find("compile_ms");
    if (!isFiniteNumber(ms) || ms->number < 0)
      return fail(at + ": compile_ms is not a non-negative number");
    const obs::JsonValue* rss = row.find("rss_hwm_kb");
    if (!isFiniteNumber(rss) || rss->number < 0)
      return fail(at + ": rss_hwm_kb is not a non-negative number");
    // VmHWM is monotone over the process lifetime, so no row can exceed
    // the final total.
    if (rss->number > totalRss->number)
      return fail(at + ": rss_hwm_kb exceeds totals.rss_hwm_kb");
    const obs::JsonValue* cs = row.find("counters");
    if (int rc = readProfileCounters(cs, at, &rowSums)) return rc;
    if (int rc = sameNames(cs, at)) return rc;
    // Outcome consistency: every dependence test either proves or
    // disproves, and only tests can be sampled.
    auto counter = [&](const char* cname) -> double {
      const obs::JsonValue* v = cs->find(cname);
      return v ? v->number : 0.0;
    };
    if (counter("dep.proven") + counter("dep.disproven") !=
        counter("dep.tests"))
      return fail(at + ": dep.proven + dep.disproven != dep.tests");
    if (counter("dep.sampled_tests") > counter("dep.tests"))
      return fail(at + ": dep.sampled_tests exceeds dep.tests");
  }

  const obs::JsonValue* residual = root.find("residual");
  if (!residual || !residual->isObject())
    return fail("compile-profile: missing residual object");
  std::map<std::string, double> residualSums;
  const obs::JsonValue* rcs = residual->find("counters");
  if (int rc = readProfileCounters(rcs, "compile-profile: residual",
                                   &residualSums))
    return rc;
  if (int rc = sameNames(rcs, "compile-profile: residual")) return rc;

  // The telescoping invariant: work outside any SCoP bracket (residual)
  // plus the per-SCoP rows must reproduce the process totals *exactly*.
  for (const auto& [cname, total] : totalCounters) {
    double sum = residualSums[cname] + rowSums[cname];
    if (sum != total)
      return fail("compile-profile: residual + rows for '" + cname + "' (" +
                  std::to_string(sum) + ") != total (" +
                  std::to_string(total) + ")");
  }

  for (const auto& want : requiredScops)
    if (!names.count(want))
      return fail("compile-profile: required scop '" + want + "' not found");
  if (static_cast<std::int64_t>(names.size()) < minScops)
    return fail("compile-profile: " + std::to_string(names.size()) +
                " scop(s), expected >= " + std::to_string(minScops));
  std::cout << "compile-profile ok: " << names.size() << " scops, "
            << totalCounters.size() << " counters, pipeline '"
            << pipeline->text << "'\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string traceFile;
  std::string metricsFile;
  std::string diagnosticsFile;
  std::string dlcheckFile;
  std::string attribFile;
  std::string compileProfileFile;
  std::vector<std::string> requiredScops;
  std::vector<std::string> requiredSpans;
  std::vector<std::string> requiredCounters;
  std::vector<std::string> requiredHistograms;
  std::vector<std::string> requiredAnalyses;
  std::vector<std::string> requiredKernels;
  std::string requiredBackend;
  std::string requiredSimd;
  std::int64_t minThreads = 0;
  std::int64_t maxErrors = -1;
  std::int64_t minKernels = 0;
  std::int64_t minConstructs = 0;
  std::int64_t minScops = 0;
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
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") traceFile = next();
    else if (arg == "--metrics") metricsFile = next();
    else if (arg == "--diagnostics") diagnosticsFile = next();
    else if (arg == "--dlcheck") dlcheckFile = next();
    else if (arg == "--attrib") attribFile = next();
    else if (arg == "--compile-profile") compileProfileFile = next();
    else if (arg == "--require-scop") requiredScops.push_back(next());
    else if (arg == "--require-span") requiredSpans.push_back(next());
    else if (arg == "--require-counter") requiredCounters.push_back(next());
    else if (arg == "--require-histogram") requiredHistograms.push_back(next());
    else if (arg == "--require-analysis") requiredAnalyses.push_back(next());
    else if (arg == "--require-kernel") requiredKernels.push_back(next());
    else if (arg == "--require-backend") requiredBackend = next();
    else if (arg == "--require-simd") requiredSimd = next();
    else if (arg == "--min-threads") minThreads = std::stoll(next());
    else if (arg == "--max-errors") maxErrors = std::stoll(next());
    else if (arg == "--min-kernels") minKernels = std::stoll(next());
    else if (arg == "--min-constructs") minConstructs = std::stoll(next());
    else if (arg == "--min-scops") minScops = std::stoll(next());
    else return usage();
  }
  int modes = (traceFile.empty() ? 0 : 1) + (metricsFile.empty() ? 0 : 1) +
              (diagnosticsFile.empty() ? 0 : 1) + (dlcheckFile.empty() ? 0 : 1) +
              (attribFile.empty() ? 0 : 1) +
              (compileProfileFile.empty() ? 0 : 1);
  if (modes != 1) return usage();
  try {
    if (!traceFile.empty())
      return validateTrace(obs::parseJson(slurp(traceFile)), requiredSpans,
                           minThreads);
    if (!metricsFile.empty())
      return validateMetrics(obs::parseJson(slurp(metricsFile)),
                             requiredCounters, requiredHistograms);
    if (!dlcheckFile.empty())
      return validateDlCheck(obs::parseJson(slurp(dlcheckFile)),
                             requiredKernels, minKernels, requiredBackend,
                             requiredSimd);
    if (!attribFile.empty())
      return validateAttrib(obs::parseJson(slurp(attribFile)), requiredKernels,
                            minKernels, requiredBackend, minConstructs);
    if (!compileProfileFile.empty())
      return validateCompileProfile(obs::parseJson(slurp(compileProfileFile)),
                                    requiredScops, minScops);
    return validateDiagnostics(obs::parseJson(slurp(diagnosticsFile)),
                               requiredAnalyses, maxErrors);
  } catch (const ::polyast::Error& e) {
    return fail(e.what());
  }
}
