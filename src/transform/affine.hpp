// Cache-aware affine transformation selection — the paper's Algorithms 2-5
// (Sec. III-C).
//
// Starting from the top loop level, the scheduler:
//   * computes SCCs of the statements on the not-yet-satisfied dependence
//     edges (Algorithm 2),
//   * inside each SCC, chooses the loop permutation closest to the DL
//     model's best order that admits a legal reversal/retiming
//     (Algorithm 4),
//   * greedily fuses SCCs at the current level when legal and profitable
//     (legality precondition, constant-reuse-distance precondition, DL
//     profitability, solvable retiming, parallelism preservation —
//     Algorithm 5),
//   * solves the collected reversal/retiming constraints as a difference
//     constraint system (longest paths), and
//   * recurses into each fusion group, first attempting perfect fusion of
//     single-SCC groups to enable tiling (Algorithm 3).
//
// The result is a ScheduleMap in the restricted 2d+1 form, directly
// consumable by poly::applySchedules.
#pragma once

#include "dl/dl_model.hpp"
#include "poly/schedule.hpp"

namespace polyast::transform {

/// Fusion heuristics. DlModel is the paper's flow (Algorithm 5 conditions
/// 1-5); MaxLegal and SmartShared emulate Pluto's maxfuse / smartfuse for
/// the baseline comparator and the ablation benchmarks.
enum class FusionHeuristic {
  DlModel,      ///< legality + reuse signature + DL + parallelism (paper)
  MaxLegal,     ///< fuse whenever legal (Pluto maxfuse)
  SmartShared,  ///< fuse when legal and the groups share an array
  NoFusion,     ///< never fuse distinct SCCs
};

struct AffineOptions {
  dl::CacheParams cache;
  FusionHeuristic fusion = FusionHeuristic::DlModel;
  /// Use the original loop order as the permutation preference instead of
  /// the DL model's best order (baseline behaviour).
  bool preferOriginalOrder = false;
  /// Cap on permutation combinations tried per SCC per level (Algorithm 4).
  int maxCombos = 128;
  /// Retiming coefficients are bounded to keep generated bounds sane.
  std::int64_t maxShift = 16;
  /// Reduction handling: `Relaxed` lets Algorithms 2-5 ignore
  /// proven-relaxable accumulation edges, widening the candidate set the
  /// DL model scores. Schedules selected under relaxation must be
  /// re-proven safe by the `reductions` analysis pass.
  poly::ReductionMode reductions = poly::ReductionMode::Strict;
};

/// Runs Algorithms 2-5 and returns the selected schedules. The schedules
/// are guaranteed legal (verified against the PoDG before returning).
poly::ScheduleMap computeAffineTransform(const poly::Scop& scop,
                                         const AffineOptions& options = {});
/// Same, over dependences the caller already computed for `scop`
/// (poly::analyzeDependences).
poly::ScheduleMap computeAffineTransform(const poly::Scop& scop,
                                         const poly::PoDG& podg,
                                         const AffineOptions& options = {});

}  // namespace polyast::transform
