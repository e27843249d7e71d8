// Codegen tour: reproduces the paper's motivating example (Sec. II) on the
// 2mm benchmark — the input code (Fig. 1), the maximal-fusion baseline
// structure (Fig. 2 behaviour, as far as the restricted generator can
// express it), and the poly+AST structure (Fig. 3) — and prints the
// transformation pipeline's view at each stage.
//
//   $ ./examples/codegen_tour [kernel-name]
#include <iostream>

#include "flow/presets.hpp"
#include "kernels/polybench.hpp"
#include "poly/codegen.hpp"
#include "transform/affine.hpp"

using namespace polyast;

int main(int argc, char** argv) {
  std::string name = argc > 1 ? argv[1] : "2mm";
  ir::Program input = kernels::buildKernel(name);

  std::cout << "=== Fig. 1 — input " << name << " ===\n"
            << ir::printProgram(input) << "\n";

  // The dependence summary the polyhedral stage works from.
  poly::Scop scop = poly::extractScop(input);
  poly::PoDG podg = poly::computeDependences(scop);
  std::cout << "statements: " << scop.stmts.size()
            << ", dependence polyhedra: " << podg.deps.size() << "\n\n";

  // Fig. 2 behaviour: the Pluto-like baseline with maximal fusion. Unroll
  // factors of 1 and no SIMD tagging leave its register-tile pass without
  // effect, so the tiled structure shows as is.
  flow::PipelineOptions pocc;
  pocc.ast.tileSize = 32;
  pocc.ast.unrollInner = 1;
  pocc.ast.unrollOuter = 1;
  pocc.ast.simd = false;
  ir::Program figure2 = flow::makePipeline("pocc-maxfuse", pocc).run(input);
  std::cout << "=== Fig. 2 — maximal fusion baseline ===\n"
            << ir::printProgram(figure2) << "\n";

  // Fig. 3: the affine stage of our flow alone (before tiling), to show
  // the clean fused/distributed structure the DL model selects.
  poly::ScheduleMap schedules = transform::computeAffineTransform(scop);
  ir::Program figure3 = poly::applySchedules(scop, schedules);
  std::cout << "=== Fig. 3 — poly+AST affine stage ===\n"
            << ir::printProgram(figure3) << "\n";
  for (const auto& [id, sched] : schedules)
    std::cout << "schedule for statement " << id << ":\n"
              << sched.str() << "\n";

  // And the full flow with the AST stage on top.
  ir::Program full = flow::makePipeline("polyast").run(input);
  std::cout << "\n=== full poly+AST flow (tiled + register-tiled) ===\n"
            << ir::printProgram(full);
  return 0;
}
