// Nearest-neighbor indices over L2 (the FAISS substitute).
//
// Paper Task 2: patch ranks "are updated using approximate nearest neighbor
// queries (with L2 distances) powered by the FAISS framework". The selectors
// here only ever query against the *selected* set (small), so an exact
// KD-tree with periodic rebuilds covers the need at reproduction scale.
//
// Points live in a flat PointStore and both build and search are iterative
// (explicit bounded stacks, no recursion), so a query touches contiguous
// memory and performs zero allocations.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "ml/point_store.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::ml {

struct Neighbor {
  PointId id = 0;
  float dist2 = 0;
};

class NnIndex {
 public:
  virtual ~NnIndex() = default;

  virtual void add(PointId id, std::span<const float> coords) = 0;
  void add(const HDPoint& point) { add(point.id, point.coords); }

  /// Nearest neighbor of `query`; nullopt when the index is empty.
  [[nodiscard]] virtual std::optional<Neighbor> nearest(
      std::span<const float> query) const = 0;
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::initializer_list<float> query) const {
    return nearest(std::span<const float>(query.begin(), query.size()));
  }

  /// k nearest neighbors, closest first.
  [[nodiscard]] virtual std::vector<Neighbor> knn(std::span<const float> query,
                                                  std::size_t k) const = 0;
  [[nodiscard]] std::vector<Neighbor> knn(std::initializer_list<float> query,
                                          std::size_t k) const {
    return knn(std::span<const float>(query.begin(), query.size()), k);
  }

  [[nodiscard]] virtual std::size_t size() const = 0;
};

/// Exact linear scan — the correctness reference.
class BruteForceIndex final : public NnIndex {
 public:
  using NnIndex::add;
  using NnIndex::knn;
  using NnIndex::nearest;

  void add(PointId id, std::span<const float> coords) override;
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::span<const float> query) const override;
  [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                          std::size_t k) const override;
  [[nodiscard]] std::size_t size() const override { return points_.size(); }

 private:
  PointStore points_;  // dim fixed by the first add
};

/// Exact KD-tree with buffered inserts: new points accumulate in a flat
/// buffer and the tree is rebuilt when the buffer outgrows a fraction of the
/// tree, amortizing construction.
class KdTreeIndex final : public NnIndex {
 public:
  explicit KdTreeIndex(int dim);

  using NnIndex::add;
  using NnIndex::knn;
  using NnIndex::nearest;

  void add(PointId id, std::span<const float> coords) override;
  [[nodiscard]] std::optional<Neighbor> nearest(
      std::span<const float> query) const override;
  [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                          std::size_t k) const override;
  [[nodiscard]] std::size_t size() const override {
    return tree_pts_.size() + buffer_.size();
  }

  /// min(bound, nearest(query)->dist2), exactly, or `bound` when the index
  /// is empty. The search starts with `bound` as its best distance, so it
  /// prunes every subtree that cannot beat the bound — cheaper than
  /// nearest() when the caller already holds a tight upper bound.
  [[nodiscard]] float nearest_dist2_below(std::span<const float> query,
                                          float bound) const;

  /// Folds the insert buffer into the tree now. Call before a query batch so
  /// every query runs on the O(log n) path instead of also scanning the
  /// buffer.
  void flush();

  /// Batched k-NN: `queries` is nq contiguous dim-sized rows; `out` receives
  /// nq*k neighbors (row q at out[q*k..]), each row closest-first and padded
  /// with {0, +inf} when the index holds fewer than k points. With a pool the
  /// rows are split into fixed-size blocks (boundaries independent of worker
  /// count); results are per-row, so the output never depends on scheduling.
  void knn_batch(std::span<const float> queries, std::size_t nq, std::size_t k,
                 std::span<Neighbor> out,
                 util::ThreadPool* pool = nullptr) const;

 private:
  struct Node {
    std::uint32_t slot = 0;  // into tree_pts_
    std::int32_t left = -1, right = -1;
    std::int32_t axis = 0;
  };

  // Depth of a median-balanced tree over 2^31 points stays under 33; rebuild
  // enforces the margin so search stacks can live in fixed arrays.
  static constexpr int kMaxStack = 64;

  void rebuild();
  /// Nearest point closer than `best` (tree, then buffer), else `best`.
  [[nodiscard]] Neighbor nearest_below(std::span<const float> query,
                                       Neighbor best) const;
  [[nodiscard]] Neighbor nearest_in_tree(std::span<const float> query,
                                         Neighbor best) const;
  void search_knn(std::span<const float> query, std::vector<Neighbor>& best,
                  std::size_t k) const;
  static void push_candidate(std::vector<Neighbor>& best, std::size_t k,
                             Neighbor candidate);

  int dim_;
  PointStore tree_pts_;
  PointStore buffer_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace mummi::ml
