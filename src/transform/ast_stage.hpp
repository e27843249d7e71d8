// AST-based (syntactic) transformations — Sec. IV of the paper.
//
// After the polyhedral stage has fixed fusion / permutation / reversal /
// retiming, the remaining transformations are performed directly on the
// loop AST:
//   * loop skewing as a pre-processing for tilability (Sec. IV-B),
//   * parallelism detection — doall / reduction / pipeline /
//     reduction+pipeline — from dependence vectors (Sec. IV-A),
//   * syntactic rectangular tiling: strip-mine + interchange (Sec. IV-B),
//   * register tiling: unroll(-and-jam) of intra-tile loops (Sec. IV-C).
//
// All passes mutate the Program in place and preserve semantics; the test
// suite validates each against the interpreter oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ast.hpp"
#include "poly/dependence.hpp"

namespace polyast::transform {

struct AstOptions {
  std::int64_t paramMin = 4;
  std::int64_t tileSize = 32;
  /// Tile size used for the outermost loop of a band whose outer loop
  /// carries dependences (time-tiling of stencils; the paper uses 5).
  std::int64_t timeTileSize = 5;
  std::int64_t maxSkewFactor = 8;
  /// Unroll factors for the innermost and second-innermost intra-tile
  /// loops (register tiling).
  std::int64_t unrollInner = 2;
  std::int64_t unrollOuter = 2;
  /// When false, reduction dependences are treated like ordinary ones
  /// (the doall-only baseline behaviour).
  bool recognizeReductions = true;
  /// When false, the detector never reports pipeline parallelism (the
  /// baseline converts such loops to wavefront doall instead).
  bool allowPipeline = true;
  /// When true, register tiling tags gemm-like contraction nests inside
  /// tiled bands (ir::MicroKernelTag) instead of unrolling them; the
  /// native backend lowers tagged nests to packed SIMD microkernels. Off
  /// reproduces the scalar lowering byte-for-byte.
  bool simd = true;
};

// The dependence-driven passes below take an optional DependenceCache.
// Within a pipeline run it is flow::PassContext::dependences: skewing
// leaves the analysis of its final program there, and parallelism
// detection and tiling reuse it while the loop structure is unchanged.
// Without a cache each call analyses the program afresh.

/// Loop skewing to make dependence distances non-negative inside maximal
/// single-chain loop nests, enabling rectangular tiling. Returns the number
/// of skews applied.
int skewForTilability(ir::Program& program, const AstOptions& options = {},
                      poly::DependenceCache* deps = nullptr);

/// Parallelism-detection outcome: loop marks by kind as they stand after
/// detection (post outermost-only clearing when that filter is on).
struct ParallelismStats {
  int doall = 0;
  int reduction = 0;
  int pipeline = 0;
  int reductionPipeline = 0;
  /// Pipeline-kind marks whose sync depth reaches three levels (the
  /// runtime's 3D doacross grid applies).
  int pipelineDepth3 = 0;
};

/// Detects and annotates loop parallelism (Loop::parallel). When
/// `outermostOnly`, marks below an already-parallel loop are cleared —
/// the paper always exploits the outermost available parallelism.
/// Returns the counts of annotated loops by parallelism kind.
ParallelismStats detectParallelism(ir::Program& program,
                                   const AstOptions& options = {},
                                   bool outermostOnly = true,
                                   poly::DependenceCache* deps = nullptr);

/// Syntactic rectangular tiling of every fully-permutable band of >= 2
/// loops whose bounds do not depend on band-internal iterators. Tile loops
/// are created outside the point loops, inherit parallel annotations, and
/// are marked isTileLoop. Returns the number of bands tiled.
int tileForLocality(ir::Program& program, const AstOptions& options = {},
                    poly::DependenceCache* deps = nullptr);

/// Register tiling (Sec. IV-C): unrolls the innermost (and optionally the
/// second-innermost) non-tile loops by the configured factors, guarding
/// replicated bodies so partial trip counts stay correct. Returns the
/// number of loops unrolled.
int registerTile(ir::Program& program, const AstOptions& options = {});

}  // namespace polyast::transform
