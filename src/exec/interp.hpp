// IR interpreter: executes a Program over concrete buffers.
//
// This is the semantics oracle of the repository: every transformation is
// validated by running original and transformed programs on identical
// inputs (test-scale parameter bindings) and comparing all output buffers.
// Legal reorderings of statement *instances* keep each instance's arithmetic
// identical, so results match bit-for-bit except for reductions reassociated
// across instances — which our restricted transformations never do.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ast.hpp"

namespace polyast::exec {

/// Named storage for one program execution.
class Context {
 public:
  /// Allocates all program arrays (zero-filled) using the given parameter
  /// bindings; missing bindings fall back to Program::paramDefaults.
  Context(const ir::Program& program,
          std::map<std::string, std::int64_t> paramOverrides = {});

  std::int64_t param(const std::string& name) const;
  const std::map<std::string, std::int64_t>& params() const { return params_; }

  std::vector<double>& buffer(const std::string& array);
  const std::vector<double>& buffer(const std::string& array) const;
  /// Linearized (row-major) element access.
  double& at(const std::string& array,
             const std::vector<std::int64_t>& indices);

  const std::vector<std::int64_t>& dims(const std::string& array) const;

  /// Deterministic pseudo-random fill of every buffer (for differential
  /// testing): value depends on array name and flat index only.
  void seedAll();

  /// Max absolute difference over all buffers shared with `other`.
  double maxAbsDiff(const Context& other) const;

 private:
  std::map<std::string, std::int64_t> params_;
  std::map<std::string, std::vector<double>> buffers_;
  std::map<std::string, std::vector<std::int64_t>> dims_;
};

/// Runs the program sequentially, honoring the textual order of the AST.
/// Throws polyast::Error on out-of-bounds accesses or unbound names.
void run(const ir::Program& program, Context& ctx);

/// run(), with every parallel construct of ir::collectParallelConstructs
/// bracketed by obs::constructEnter/constructExit: one pair per dynamic
/// encounter of the marked loop, fired even when its trip space is empty
/// — the same points at which a JIT kernel fires its capi construct hooks.
/// InterpBackend uses it for construct attribution; run() never brackets,
/// so the oracle stays hookless.
void runBracketed(const ir::Program& program, Context& ctx);

/// Executes one subtree of `program` with extra iterator bindings on top
/// of the parameter environment (e.g. one iteration of a loop body). Each
/// call uses an independent evaluation environment.
void runSubtree(const ir::Program& program, Context& ctx,
                const ir::NodePtr& node,
                const std::map<std::string, std::int64_t>& bindings);

/// Counts executed statement instances (used by tests to check that a
/// transformation preserves the instance count).
std::int64_t countInstances(const ir::Program& program, Context& ctx);

}  // namespace polyast::exec
