// Suite report: runs the poly+AST flow (the "polyast" preset) over the
// entire PolyBench/C 3.2 suite (Table II) and prints, per kernel, what it
// did — skews, tiled bands, unrolled loops, detected parallelism — plus
// an interpreter-validated correctness verdict.
//
//   $ ./examples/suite_report           # text table
//   $ ./examples/suite_report --json    # machine-readable (obs JsonWriter)
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "exec/interp.hpp"
#include "flow/presets.hpp"
#include "kernels/polybench.hpp"
#include "obs/json.hpp"

using namespace polyast;

namespace {

/// Formats the flow's parallelism-detection outcome from the parallelism
/// pass's counters, e.g. "doall x2" or "pipeline".
std::string parallelismSummary(const flow::PipelineReport& r) {
  std::ostringstream out;
  auto item = [&](const char* name, const char* counter) {
    std::int64_t count = r.counter(counter);
    if (count == 0) return;
    if (out.tellp() > 0) out << "+";
    out << name;
    if (count > 1) out << " x" << count;
  };
  item("doall", "doall");
  item("red", "reduction");
  item("pipeline", "pipeline");
  item("red-pipe", "reduction_pipeline");
  return out.tellp() == 0 ? "seq" : out.str();
}

bool validate(const ir::Program& a, const ir::Program& b) {
  std::map<std::string, std::int64_t> params;
  for (const auto& name : a.params) params[name] = name == "TSTEPS" ? 2 : 7;
  exec::Context ca = kernels::makeContext(a, params);
  exec::Context cb = kernels::makeContext(b, params);
  exec::run(a, ca);
  exec::run(b, cb);
  return ca.maxAbsDiff(cb) == 0.0;
}

struct Row {
  std::string kernel;
  std::size_t stmts = 0;
  flow::PipelineReport report;
  bool verified = false;
};

void printTable(const std::vector<Row>& rows, int failures) {
  std::cout << std::left << std::setw(18) << "kernel" << std::setw(7)
            << "stmts" << std::setw(8) << "skews" << std::setw(7) << "bands"
            << std::setw(9) << "unrolls" << std::setw(22) << "parallelism"
            << "verified\n"
            << std::string(78, '-') << "\n";
  for (const auto& r : rows)
    std::cout << std::setw(18) << r.kernel << std::setw(7) << r.stmts
              << std::setw(8) << r.report.counter("skews") << std::setw(7)
              << r.report.counter("bands_tiled") << std::setw(9)
              << r.report.counter("loops_unrolled") << std::setw(22)
              << parallelismSummary(r.report)
              << (r.verified ? "yes" : "NO") << "\n";
  std::cout << std::string(78, '-') << "\n"
            << (failures == 0 ? "all kernels verified against the "
                                "interpreter oracle\n"
                              : "FAILURES detected\n");
}

void printJson(const std::vector<Row>& rows, int failures) {
  obs::JsonWriter w(std::cout);
  w.beginObject();
  w.key("schema").value("polyast-suite-report-v1");
  w.key("kernels").beginArray();
  for (const auto& r : rows) {
    w.beginObject();
    w.key("name").value(r.kernel);
    w.key("stmts").value(static_cast<std::uint64_t>(r.stmts));
    for (const char* counter : {"skews", "bands_tiled", "loops_unrolled"})
      w.key(counter).value(r.report.counter(counter));
    w.key("parallelism").beginObject();
    for (const char* counter :
         {"doall", "reduction", "pipeline", "reduction_pipeline"})
      w.key(counter).value(r.report.counter(counter));
    w.endObject();
    w.key("affine_stage_succeeded")
        .value(r.report.find("affine")->succeeded);
    w.key("verified").value(r.verified);
    w.endObject();
  }
  w.endArray();
  w.key("failures").value(failures);
  w.endObject();
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  std::vector<Row> rows;
  int failures = 0;
  for (const auto& k : kernels::allKernels()) {
    Row r;
    r.kernel = k.name;
    ir::Program input = k.build();
    r.stmts = input.statements().size();
    flow::PipelineOptions opt;
    opt.ast.tileSize = 8;
    opt.ast.timeTileSize = 3;
    flow::PassContext ctx;
    ir::Program optimized =
        flow::makePipeline("polyast", opt).run(input, ctx);
    r.report = std::move(ctx.report);
    r.verified = validate(input, optimized);
    if (!r.verified) ++failures;
    rows.push_back(std::move(r));
  }
  if (json)
    printJson(rows, failures);
  else
    printTable(rows, failures);
  return failures;
}
