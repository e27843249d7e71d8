// Quickstart: define a kernel with the builder API, run the full poly+AST
// optimization flow (Algorithm 1), inspect the generated code, and verify
// the transformation with the interpreter oracle.
//
//   $ ./examples/quickstart
#include <iostream>

#include "exec/interp.hpp"
#include "flow/presets.hpp"
#include "ir/builder.hpp"

using namespace polyast;

int main() {
  // A two-statement kernel: scale a matrix, then accumulate a product —
  // the gemm pattern.
  ir::ProgramBuilder b("my_gemm");
  b.param("N", 256);
  b.array("C", {b.p("N"), b.p("N")});
  b.array("A", {b.p("N"), b.p("N")});
  b.array("B", {b.p("N"), b.p("N")});
  auto v = [](const char* n) { return ir::AffExpr::term(n); };
  b.beginLoop("i", 0, b.p("N"));
  b.beginLoop("j", 0, b.p("N"));
  b.stmt("scale", "C", {v("i"), v("j")}, ir::AssignOp::MulAssign,
         ir::floatLit(0.5));
  b.beginLoop("k", 0, b.p("N"));
  b.stmt("accum", "C", {v("i"), v("j")}, ir::AssignOp::AddAssign,
         ir::arrayRef("A", {v("i"), v("k")}) *
             ir::arrayRef("B", {v("k"), v("j")}));
  b.endLoop();
  b.endLoop();
  b.endLoop();
  ir::Program program = b.build();

  std::cout << "=== input program ===\n" << ir::printProgram(program);

  // Run the end-to-end flow, the "polyast" preset: DL-guided affine
  // transformation, skewing, parallelism detection, tiling, register
  // tiling. The context collects each pass's report.
  flow::PipelineOptions options;
  options.ast.tileSize = 32;
  flow::PassContext ctx;
  ir::Program optimized =
      flow::makePipeline("polyast", options).run(program, ctx);
  const flow::PipelineReport& report = ctx.report;

  std::cout << "\n=== optimized program ===\n" << ir::printProgram(optimized);
  std::cout << "\naffine stage: "
            << (report.find("affine")->succeeded ? "ok"
                                                 : "fell back to identity")
            << ", skews: " << report.counter("skews")
            << ", tiled bands: " << report.counter("bands_tiled")
            << ", unrolled loops: " << report.counter("loops_unrolled")
            << "\n";

  // Differential validation with the interpreter (small sizes).
  exec::Context before(program, {{"N", 24}});
  exec::Context after(optimized, {{"N", 24}});
  before.seedAll();
  after.seedAll();
  exec::run(program, before);
  exec::run(optimized, after);
  std::cout << "max |diff| original vs optimized: "
            << before.maxAbsDiff(after) << "\n";
  return before.maxAbsDiff(after) == 0.0 ? 0 : 1;
}
