// Deterministic block-parallel helpers for the continuum (DDFT) hot path.
//
// Same discipline as the MD force engine (DESIGN.md 4h): every parallel loop
// runs through util::for_blocks with block boundaries that are a function of
// the problem size ONLY — never the worker count — and every floating-point
// accumulation whose result could depend on scheduling folds per-block
// partials in fixed (ascending-block) order (util::BlockScratch). A serial
// run, a 2-thread pool and an 8-thread pool therefore produce bit-identical
// density fields, protein trajectories and serialized snapshots.
#pragma once

#include <cstddef>
#include <vector>

#include "util/thread_pool.hpp"

namespace mummi::cont {
struct Protein;  // gridsim2d.hpp
}  // namespace mummi::cont

namespace mummi::cont::detail {

/// Row-block size for an n-row grid: ~16 blocks for large grids (enough
/// slack for an 8-worker pool to balance), never below 8 rows so small test
/// grids do not pay fan-out overhead. Depends on n only.
constexpr std::size_t row_block(std::size_t n) {
  return util::det_block(n, 8, 16);
}

/// Protein-block size: ~8 blocks, never below 16 proteins. Depends on the
/// protein count only.
constexpr std::size_t protein_block(std::size_t p) {
  return util::det_block(p, 16, 8);
}

/// Periodic cell bins over protein positions: makes the soft-repulsion
/// neighbor search O(P) instead of O(P^2).
///
/// build() snapshots the positions, so force kernels read a stable pre-step
/// view (Jacobi update — protein a's force never sees protein b's position
/// from the same step, whichever block updates first). gather_candidates
/// returns candidates sorted ascending, so accumulating in-range pairs in
/// that order reproduces the legacy all-pairs loop bit for bit.
class ProteinCellBins {
 public:
  /// Bins positions into an ncell x ncell periodic grid with cell edge
  /// >= range. Falls back to a single all-pairs bin when the box is under
  /// 3 cells per side (the 3x3 stencil would alias through the wrap) or the
  /// range is non-positive. Storage is reused across rebuilds.
  void build(const std::vector<Protein>& proteins, double extent, double range);

  [[nodiscard]] double x(std::size_t i) const { return px_[i]; }
  [[nodiscard]] double y(std::size_t i) const { return py_[i]; }
  [[nodiscard]] std::size_t size() const { return px_.size(); }

  /// Appends every candidate in the 3x3 cell stencil around protein `a`
  /// (including a itself; the caller skips b == a), sorted ascending.
  void gather_candidates(std::size_t a, std::vector<std::size_t>& out) const;

  [[nodiscard]] bool binned() const { return ncell_ >= 3; }
  [[nodiscard]] int ncell() const { return ncell_; }
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

 private:
  int ncell_ = 0;
  double cell_w_ = 0;
  std::size_t rebuilds_ = 0;
  std::vector<double> px_, py_;
  std::vector<int> cx_, cy_;             // per-protein cell coords (binned)
  std::vector<std::size_t> cell_start_;  // CSR offsets over ncell^2 cells
  std::vector<std::size_t> items_;       // protein ids, ascending within cell
  std::vector<std::size_t> cursor_;      // fill scratch, reused
};

}  // namespace mummi::cont::detail
