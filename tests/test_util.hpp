// Shared helpers for the PolyAST test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "flow/presets.hpp"
#include "ir/ast.hpp"
#include "kernels/polybench.hpp"

namespace polyast::testutil {

/// Runs `original` and `transformed` on identical seeded (and kernel-
/// conditioned) inputs and expects every shared buffer to match exactly
/// (legal instance reorderings keep per-instance arithmetic identical) and
/// the executed instance counts to be equal.
inline void expectSameSemantics(
    const ir::Program& original, const ir::Program& transformed,
    std::map<std::string, std::int64_t> params = {},
    double tolerance = 0.0) {
  exec::Context a = kernels::makeContext(original, params);
  exec::Context b = kernels::makeContext(transformed, params);
  std::int64_t na = exec::countInstances(original, a);
  std::int64_t nb = exec::countInstances(transformed, b);
  EXPECT_EQ(na, nb) << "instance count changed by transformation\n"
                    << ir::printProgram(transformed);
  exec::run(original, a);
  exec::run(transformed, b);
  EXPECT_LE(a.maxAbsDiff(b), tolerance)
      << "numerical divergence\n"
      << ir::printProgram(transformed);
}

/// `o` with register tiling left without effect (no unrolling, no SIMD
/// tagging): the pocc presets always end with the register-tile pass.
inline flow::PipelineOptions withoutRegisterTiling(
    flow::PipelineOptions o = {}) {
  o.ast.unrollInner = 1;
  o.ast.unrollOuter = 1;
  o.ast.simd = false;
  return o;
}

/// Collects the loop nest structure as a string like "i(j(S,k(S)))" for
/// structural assertions.
inline std::string structureOf(const ir::NodePtr& node) {
  switch (node->kind) {
    case ir::Node::Kind::Block: {
      std::string out;
      auto b = std::static_pointer_cast<ir::Block>(node);
      for (std::size_t i = 0; i < b->children.size(); ++i) {
        if (i) out += ",";
        out += structureOf(b->children[i]);
      }
      return out;
    }
    case ir::Node::Kind::Loop: {
      auto l = std::static_pointer_cast<ir::Loop>(node);
      return l->iter + "(" + structureOf(l->body) + ")";
    }
    case ir::Node::Kind::Stmt: {
      auto s = std::static_pointer_cast<ir::Stmt>(node);
      return s->label.empty() ? "S" : s->label;
    }
  }
  return "?";
}

inline std::string structureOf(const ir::Program& p) {
  return structureOf(std::static_pointer_cast<ir::Node>(p.root));
}

}  // namespace polyast::testutil
