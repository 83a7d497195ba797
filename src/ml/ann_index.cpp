#include "ml/ann_index.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::ml {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

// Rows per block when knn_batch fans out to a pool; fixed so that block
// boundaries never depend on the worker count.
constexpr std::size_t kBatchBlock = 64;
}  // namespace

void BruteForceIndex::add(PointId id, std::span<const float> coords) {
  if (points_.dim() == 0) points_ = PointStore(static_cast<int>(coords.size()));
  points_.add(id, coords);
}

std::optional<Neighbor> BruteForceIndex::nearest(
    std::span<const float> query) const {
  std::optional<Neighbor> best;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const float d2 = dist2(query, points_.coords(i));
    if (!best || d2 < best->dist2) best = Neighbor{points_.id(i), d2};
  }
  return best;
}

std::vector<Neighbor> BruteForceIndex::knn(std::span<const float> query,
                                           std::size_t k) const {
  std::vector<Neighbor> all;
  all.reserve(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i)
    all.push_back({points_.id(i), dist2(query, points_.coords(i))});
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.dist2 < b.dist2;
                    });
  all.resize(take);
  return all;
}

KdTreeIndex::KdTreeIndex(int dim)
    : dim_(dim), tree_pts_(dim), buffer_(dim) {
  MUMMI_CHECK_MSG(dim > 0, "index dimension must be positive");
}

void KdTreeIndex::add(PointId id, std::span<const float> coords) {
  MUMMI_CHECK_MSG(static_cast<int>(coords.size()) == dim_,
                  "point dimension mismatch");
  buffer_.add(id, coords);
  if (buffer_.size() > 32 && buffer_.size() * 4 > tree_pts_.size()) rebuild();
}

void KdTreeIndex::flush() {
  if (!buffer_.empty()) rebuild();
}

void KdTreeIndex::rebuild() {
  tree_pts_.append(buffer_);
  buffer_.clear();
  nodes_.clear();
  nodes_.reserve(tree_pts_.size());
  const auto n = static_cast<std::int64_t>(tree_pts_.size());
  if (n == 0) {
    root_ = -1;
    return;
  }

  std::vector<std::uint32_t> slots(tree_pts_.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    slots[i] = static_cast<std::uint32_t>(i);

  // Iterative median-split build. Frames reference the parent's child field
  // to patch once the subtree root is allocated; pushing the right half
  // first (LIFO) lays nodes out in pre-order, left spine contiguous.
  struct Frame {
    std::int64_t lo, hi;
    std::int32_t depth, parent;
    bool is_right;
  };
  std::vector<Frame> stack;
  stack.push_back({0, n, 0, -1, false});
  std::int32_t max_depth = 0;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.lo >= f.hi) continue;
    max_depth = std::max(max_depth, f.depth);
    const std::int32_t axis = f.depth % dim_;
    const std::int64_t mid = (f.lo + f.hi) / 2;
    std::nth_element(slots.begin() + f.lo, slots.begin() + mid,
                     slots.begin() + f.hi,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return tree_pts_.coords(a)[axis] <
                              tree_pts_.coords(b)[axis];
                     });
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{slots[static_cast<std::size_t>(mid)], -1, -1, axis});
    if (f.parent < 0)
      root_ = node_id;
    else if (f.is_right)
      nodes_[static_cast<std::size_t>(f.parent)].right = node_id;
    else
      nodes_[static_cast<std::size_t>(f.parent)].left = node_id;
    stack.push_back({mid + 1, f.hi, f.depth + 1, node_id, true});
    stack.push_back({f.lo, mid, f.depth + 1, node_id, false});
  }
  MUMMI_CHECK_MSG(max_depth + 1 < kMaxStack, "kd-tree deeper than stack bound");
}

Neighbor KdTreeIndex::nearest_in_tree(std::span<const float> query,
                                      Neighbor best) const {
  // Deferred-prune iterative descent: walk the near side in a tight loop and
  // stack the far side with its splitting-plane distance; a stacked subtree
  // is skipped at pop time if the best has since tightened past it. The
  // stack holds at most one frame per level (pops are deepest-first), so
  // kMaxStack bounds it (checked at rebuild).
  struct Frame {
    std::int32_t node;
    float delta2;
  };
  Frame stack[kMaxStack];
  int top = 0;
  stack[top++] = {root_, 0.0f};
  while (top > 0) {
    const Frame f = stack[--top];
    if (!(f.delta2 < best.dist2)) continue;
    std::int32_t node = f.node;
    while (node >= 0) {
      const Node& nd = nodes_[static_cast<std::size_t>(node)];
      const auto p = tree_pts_.coords(nd.slot);
      const float d2 = dist2(query, p);
      if (d2 < best.dist2) best = {tree_pts_.id(nd.slot), d2};
      const float delta = query[static_cast<std::size_t>(nd.axis)] -
                          p[static_cast<std::size_t>(nd.axis)];
      const std::int32_t near = delta < 0 ? nd.left : nd.right;
      const std::int32_t far = delta < 0 ? nd.right : nd.left;
      if (far >= 0 && delta * delta < best.dist2)
        stack[top++] = {far, delta * delta};
      node = near;
    }
  }
  return best;
}

std::optional<Neighbor> KdTreeIndex::nearest(
    std::span<const float> query) const {
  MUMMI_CHECK_MSG(static_cast<int>(query.size()) == dim_,
                  "query dimension mismatch");
  if (size() == 0) return std::nullopt;
  return nearest_below(query, Neighbor{0, kInf});
}

float KdTreeIndex::nearest_dist2_below(std::span<const float> query,
                                       float bound) const {
  MUMMI_CHECK_MSG(static_cast<int>(query.size()) == dim_,
                  "query dimension mismatch");
  return nearest_below(query, Neighbor{0, bound}).dist2;
}

Neighbor KdTreeIndex::nearest_below(std::span<const float> query,
                                    Neighbor best) const {
  if (root_ >= 0) best = nearest_in_tree(query, best);
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    const float d2 = dist2(query, buffer_.coords(i));
    if (d2 < best.dist2) best = {buffer_.id(i), d2};
  }
  return best;
}

void KdTreeIndex::push_candidate(std::vector<Neighbor>& best, std::size_t k,
                                 Neighbor candidate) {
  const auto farther = [](const Neighbor& a, const Neighbor& b) {
    return a.dist2 < b.dist2;
  };
  if (best.size() < k) {
    best.push_back(candidate);
    std::push_heap(best.begin(), best.end(), farther);
  } else if (candidate.dist2 < best.front().dist2) {
    std::pop_heap(best.begin(), best.end(), farther);
    best.back() = candidate;
    std::push_heap(best.begin(), best.end(), farther);
  }
}

void KdTreeIndex::search_knn(std::span<const float> query,
                             std::vector<Neighbor>& best,
                             std::size_t k) const {
  if (root_ < 0) return;
  struct Frame {
    std::int32_t node;
    float delta2;
  };
  Frame stack[kMaxStack];
  int top = 0;
  stack[top++] = {root_, 0.0f};
  while (top > 0) {
    const Frame f = stack[--top];
    if (best.size() == k && !(f.delta2 < best.front().dist2)) continue;
    std::int32_t node = f.node;
    while (node >= 0) {
      const Node& nd = nodes_[static_cast<std::size_t>(node)];
      const auto p = tree_pts_.coords(nd.slot);
      push_candidate(best, k, Neighbor{tree_pts_.id(nd.slot), dist2(query, p)});
      const float delta = query[static_cast<std::size_t>(nd.axis)] -
                          p[static_cast<std::size_t>(nd.axis)];
      const std::int32_t near = delta < 0 ? nd.left : nd.right;
      const std::int32_t far = delta < 0 ? nd.right : nd.left;
      if (far >= 0 && (best.size() < k || delta * delta < best.front().dist2))
        stack[top++] = {far, delta * delta};
      node = near;
    }
  }
}

std::vector<Neighbor> KdTreeIndex::knn(std::span<const float> query,
                                       std::size_t k) const {
  MUMMI_CHECK_MSG(static_cast<int>(query.size()) == dim_,
                  "query dimension mismatch");
  std::vector<Neighbor> best;  // max-heap on dist2
  best.reserve(k + 1);
  search_knn(query, best, k);
  for (std::size_t i = 0; i < buffer_.size(); ++i)
    push_candidate(best, k, Neighbor{buffer_.id(i), dist2(query, buffer_.coords(i))});
  std::sort_heap(best.begin(), best.end(),
                 [](const Neighbor& a, const Neighbor& b) {
                   return a.dist2 < b.dist2;
                 });
  return best;
}

void KdTreeIndex::knn_batch(std::span<const float> queries, std::size_t nq,
                            std::size_t k, std::span<Neighbor> out,
                            util::ThreadPool* pool) const {
  MUMMI_CHECK_MSG(queries.size() == nq * static_cast<std::size_t>(dim_),
                  "query batch size mismatch");
  MUMMI_CHECK_MSG(out.size() >= nq * k, "knn_batch output too small");
  const auto run = [&](std::size_t begin, std::size_t end) {
    std::vector<Neighbor> best;
    best.reserve(k + 1);
    for (std::size_t q = begin; q < end; ++q) {
      best.clear();
      const auto row =
          queries.subspan(q * static_cast<std::size_t>(dim_),
                          static_cast<std::size_t>(dim_));
      search_knn(row, best, k);
      for (std::size_t i = 0; i < buffer_.size(); ++i)
        push_candidate(best, k, Neighbor{buffer_.id(i), dist2(row, buffer_.coords(i))});
      std::sort_heap(best.begin(), best.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.dist2 < b.dist2;
                     });
      for (std::size_t j = 0; j < k; ++j)
        out[q * k + j] = j < best.size() ? best[j] : Neighbor{0, kInf};
    }
  };
  util::for_blocks(pool, nq, kBatchBlock, run);
}

}  // namespace mummi::ml
