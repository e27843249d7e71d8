#include "flow/presets.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "support/error.hpp"

namespace polyast::flow {

namespace {

/// The Algorithm 1 stages after the affine one; the ablation presets
/// switch some of them off.
struct Stages {
  bool skew = true;
  bool parallelize = true;
  bool tile = true;
  bool registerTile = true;
};

/// The paper's Algorithm 1 over the pass infrastructure.
PassPipeline polyastPipeline(std::string name, const PipelineOptions& o,
                             Stages stages = {}) {
  PassPipeline pipe(std::move(name));
  pipe.nameSuffix = "_polyast";
  pipe.add(std::make_shared<AffineTransformPass>(o.affine, o.ast.paramMin));
  if (stages.skew) pipe.add(std::make_shared<SkewPass>(o.ast));
  if (stages.parallelize) pipe.add(std::make_shared<ParallelismPass>(o.ast));
  if (stages.tile) pipe.add(std::make_shared<TilePass>(o.ast));
  if (stages.registerTile)
    pipe.add(std::make_shared<RegisterTilePass>(o.ast));
  return pipe;
}

/// The Pluto/PoCC-like baseline over the same passes: original loop
/// order, Pluto fusion (smartfuse unless a variant picks another),
/// doall-only parallelization (reductions treated as serializing,
/// pipelines wavefronted after tiling), and for `pocc-vect` the
/// intra-tile SIMD permutation.
PassPipeline poccPipeline(std::string name, const PipelineOptions& o,
                          transform::FusionHeuristic fusion =
                              transform::FusionHeuristic::SmartShared,
                          bool vectorizeIntraTile = false) {
  PassPipeline pipe(std::move(name));
  pipe.nameSuffix = "_pocc";
  transform::AffineOptions aopt = o.affine;
  aopt.preferOriginalOrder = true;
  aopt.fusion = fusion;
  // The doall-only baseline never privatizes accumulators, so relaxed
  // schedules could never discharge their proof obligations here.
  aopt.reductions = poly::ReductionMode::Strict;
  pipe.add(std::make_shared<AffineTransformPass>(aopt, o.ast.paramMin));
  pipe.add(std::make_shared<SkewPass>(o.ast));
  transform::AstOptions dopt = o.ast;
  dopt.recognizeReductions = false;  // doall-only baseline
  dopt.allowPipeline = true;         // detected, then wavefronted
  pipe.add(std::make_shared<ParallelismPass>(dopt));
  pipe.add(std::make_shared<TilePass>(o.ast));
  pipe.add(std::make_shared<WavefrontPass>());
  if (vectorizeIntraTile)
    pipe.add(std::make_shared<IntraTileVectorizePass>());
  pipe.add(std::make_shared<RegisterTilePass>(o.ast));
  return pipe;
}

using Factory = std::function<PassPipeline(std::string, PipelineOptions)>;

const std::map<std::string, Factory>& registry() {
  using transform::FusionHeuristic;
  static const std::map<std::string, Factory> presets = {
      {"polyast",
       [](std::string n, PipelineOptions o) {
         return polyastPipeline(std::move(n), o);
       }},
      {"polyast-nofuse",
       [](std::string n, PipelineOptions o) {
         o.affine.fusion = FusionHeuristic::NoFusion;
         return polyastPipeline(std::move(n), o);
       }},
      {"polyast-noskew",
       [](std::string n, PipelineOptions o) {
         return polyastPipeline(std::move(n), o, {.skew = false});
       }},
      {"polyast-nopar",
       [](std::string n, PipelineOptions o) {
         return polyastPipeline(std::move(n), o, {.parallelize = false});
       }},
      {"polyast-notile",
       [](std::string n, PipelineOptions o) {
         return polyastPipeline(std::move(n), o,
                                {.tile = false, .registerTile = false});
       }},
      {"polyast-noregtile",
       [](std::string n, PipelineOptions o) {
         return polyastPipeline(std::move(n), o, {.registerTile = false});
       }},
      {"pocc",
       [](std::string n, PipelineOptions o) {
         return poccPipeline(std::move(n), o);
       }},
      {"pocc-maxfuse",
       [](std::string n, PipelineOptions o) {
         return poccPipeline(std::move(n), o, FusionHeuristic::MaxLegal);
       }},
      {"pocc-nofuse",
       [](std::string n, PipelineOptions o) {
         return poccPipeline(std::move(n), o, FusionHeuristic::NoFusion);
       }},
      {"pocc-vect",
       [](std::string n, PipelineOptions o) {
         return poccPipeline(std::move(n), o, FusionHeuristic::SmartShared,
                             /*vectorizeIntraTile=*/true);
       }},
      {"identity",
       [](std::string n, PipelineOptions) { return PassPipeline(std::move(n)); }},
  };
  return presets;
}

}  // namespace

PassPipeline makePipeline(const std::string& preset,
                          const PipelineOptions& options) {
  auto it = registry().find(preset);
  POLYAST_CHECK(it != registry().end(),
                "unknown pipeline preset '" + preset + "'");
  return it->second(preset, options);
}

std::vector<std::string> pipelinePresets() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : registry()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

bool hasPipelinePreset(const std::string& preset) {
  return registry().count(preset) != 0;
}

}  // namespace polyast::flow
