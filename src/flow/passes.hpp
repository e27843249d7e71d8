// Concrete passes wrapping the transformation stages of Algorithm 1 and
// the Pluto-like baseline's extra steps.
//
// Algorithm 1 line → pass:
//   1  fusion and permutation with DL(P.Poly)  → AffineTransformPass
//   2  skewing for tilability(P.AST)           → SkewPass
//   3  coarse grain parallelization(P.AST)     → ParallelismPass
//   4  tiling for locality(P.AST)              → TilePass
//   5  intra tile optimizations(P.AST)         → RegisterTilePass
//
// Baseline-only passes (Sec. V comparator): WavefrontPass converts
// pipeline-parallel tile loops into wavefront doall (the skewed-tile
// schedule Pluto emits) and degrades the remaining non-doall marks;
// IntraTileVectorizePass is the `pocc vect` intra-tile permutation.
#pragma once

#include <memory>

#include "flow/pass.hpp"
#include "transform/affine.hpp"
#include "transform/ast_stage.hpp"

namespace polyast::flow {

/// Stage 1: cache-aware affine transformation (Sec. III). Extracts the
/// SCoP, runs Algorithms 2-5, and regenerates the program from the chosen
/// schedules. The flow is total: scheduler or codegen failures fall back
/// to the original order — the pass then reports succeeded = false and
/// surfaces the error message in the note.
class AffineTransformPass final : public Pass {
 public:
  AffineTransformPass(transform::AffineOptions affine, std::int64_t paramMin)
      : affine_(affine), paramMin_(paramMin) {}
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "affine";
  transform::AffineOptions affine_;
  std::int64_t paramMin_;
};

/// Stage 2: loop skewing for tilability (Sec. IV-B). Counter: "skews".
class SkewPass final : public Pass {
 public:
  explicit SkewPass(transform::AstOptions options) : options_(options) {}
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "skew";
  transform::AstOptions options_;
};

/// Stage 3: coarse-grain parallelism detection (Sec. IV-A). Counters:
/// "doall", "reduction", "pipeline", "reduction_pipeline" — the loop
/// marks surviving the outermost-only filter.
class ParallelismPass final : public Pass {
 public:
  explicit ParallelismPass(transform::AstOptions options,
                           bool outermostOnly = true)
      : options_(options), outermostOnly_(outermostOnly) {}
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "parallelism";
  transform::AstOptions options_;
  bool outermostOnly_;
};

/// Stage 4: syntactic rectangular tiling (Sec. IV-B). Counter:
/// "bands_tiled".
class TilePass final : public Pass {
 public:
  explicit TilePass(transform::AstOptions options) : options_(options) {}
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "tile";
  transform::AstOptions options_;
};

/// Stage 5: register tiling / unroll-and-jam (Sec. IV-C). Counter:
/// "loops_unrolled".
class RegisterTilePass final : public Pass {
 public:
  explicit RegisterTilePass(transform::AstOptions options)
      : options_(options) {}
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "register-tile";
  transform::AstOptions options_;
};

/// Converts a loop pair (outer sequential tile loop + chained inner tile
/// loop with forward dependences) into a wavefront: a sequential wave loop
/// scans diagonals and the original outer loop becomes doall, with the
/// inner tile fixed as wave - outer (kept exact through per-statement
/// guards). Returns true if applied. WavefrontPass's primitive, exposed
/// for tests.
bool wavefrontTiles(ir::Program& program, const std::shared_ptr<ir::Loop>& t1,
                    const std::shared_ptr<ir::Loop>& t2);

/// Baseline: converts chained pipeline-parallel tile-loop pairs into
/// wavefront doall (wavefrontTiles) and degrades every leftover
/// pipeline/reduction mark to sequential — the doall-only model of the
/// Pluto comparator. Counter: "wavefronts".
class WavefrontPass final : public Pass {
 public:
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "wavefront";
};

/// Baseline `pocc vect`: rotates the most SIMD-contiguous point loop to
/// the innermost position of every rectangular point-loop chain inside a
/// tiled band. Counter: "intra_tile_permutations".
class IntraTileVectorizePass final : public Pass {
 public:
  const std::string& name() const override { return name_; }
  PassResult run(ir::Program& program, PassContext& ctx) override;

 private:
  inline static const std::string name_ = "intra-tile-vect";
};

}  // namespace polyast::flow
