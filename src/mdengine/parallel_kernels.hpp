// Deterministic block decomposition for the MD hot path.
//
// Every parallel loop in the force engine runs through util::for_blocks with
// block boundaries that are a function of the problem size ONLY — never the
// worker count — and every floating-point reduction folds per-block partials
// in fixed (ascending-block) order through util::BlockScratch. A serial run,
// a 2-thread pool and an 8-thread pool therefore produce bit-identical
// forces, energies and trajectories: the same discipline the selection layer
// adopted for rank folds (DESIGN.md 4d), applied to force scatter.
#pragma once

#include <cstddef>

#include "util/thread_pool.hpp"

namespace mummi::md::detail {

/// Block size for a kernel over `n` items: ~16 blocks for large inputs
/// (enough slack for an 8-worker pool to balance), never below 512 items so
/// small systems do not pay fan-out overhead. Depends on n only.
constexpr std::size_t kernel_block(std::size_t n) {
  return util::det_block(n, 512, 16);
}

}  // namespace mummi::md::detail
