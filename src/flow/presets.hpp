// Named pipeline presets: the paper's flow, the Pluto-like baseline, the
// identity pipeline, and the ablation variants — all expressed over the
// same pass infrastructure. A preset is the only entry point into the
// flow: the preset name picks the composition of passes, and
// PipelineOptions only parameterizes them.
#pragma once

#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/passes.hpp"

namespace polyast::flow {

/// Options shared by every preset. The polyast presets consume `affine`
/// as given; the pocc presets force the baseline's scheduler
/// configuration (original loop order, their fusion heuristic, strict
/// reductions) on top of it.
struct PipelineOptions {
  transform::AffineOptions affine;
  transform::AstOptions ast;
};

/// Builds the named preset. Registered names (see pipelinePresets()):
///   polyast            — the paper's Algorithm 1 flow
///   polyast-nofuse     — ablation: no fusion in the affine stage
///   polyast-noskew     — ablation: skip skewing
///   polyast-nopar      — ablation: skip parallelism detection
///   polyast-notile     — ablation: skip tiling and register tiling
///   polyast-noregtile  — ablation: skip register tiling only
///   pocc               — Pluto-like baseline, smartfuse
///   pocc-maxfuse       — baseline with maximal fusion
///   pocc-nofuse        — baseline without fusion
///   pocc-vect          — baseline + intra-tile SIMD permutation
///   identity           — no transformation
/// Throws polyast::Error for unknown names.
PassPipeline makePipeline(const std::string& preset,
                          const PipelineOptions& options = {});

/// All registered preset names, sorted.
std::vector<std::string> pipelinePresets();

/// True when `preset` names a registered pipeline.
bool hasPipelinePreset(const std::string& preset);

}  // namespace polyast::flow
