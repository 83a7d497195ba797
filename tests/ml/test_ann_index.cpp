#include "ml/ann_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi::ml {
namespace {

std::vector<HDPoint> random_points(int n, int dim, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HDPoint> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    HDPoint p;
    p.id = static_cast<PointId>(i + 1);
    p.coords.resize(static_cast<std::size_t>(dim));
    for (auto& c : p.coords) c = static_cast<float>(rng.normal());
    out.push_back(std::move(p));
  }
  return out;
}

TEST(BruteForceIndex, NearestOnEmpty) {
  BruteForceIndex index;
  EXPECT_FALSE(index.nearest({1.0f, 2.0f}).has_value());
  EXPECT_TRUE(index.knn({1.0f, 2.0f}, 3).empty());
}

TEST(BruteForceIndex, FindsExactNearest) {
  BruteForceIndex index;
  index.add({1, {0, 0}});
  index.add({2, {3, 4}});
  index.add({3, {1, 1}});
  const auto nn = index.nearest({0.9f, 0.9f});
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 3u);
  EXPECT_NEAR(nn->dist2, 0.02f, 1e-5f);
}

TEST(BruteForceIndex, KnnSortedAscending) {
  BruteForceIndex index;
  for (const auto& p : random_points(50, 3, 1)) index.add(p);
  const auto nn = index.knn({0, 0, 0}, 10);
  ASSERT_EQ(nn.size(), 10u);
  for (std::size_t i = 1; i < nn.size(); ++i)
    EXPECT_GE(nn[i].dist2, nn[i - 1].dist2);
}

TEST(KdTreeIndex, EmptyIndex) {
  KdTreeIndex index(4);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.nearest({0, 0, 0, 0}).has_value());
}

TEST(KdTreeIndex, DimensionMismatchRejected) {
  KdTreeIndex index(3);
  EXPECT_THROW(index.add({1, {1.0f, 2.0f}}), util::Error);
  index.add({1, {1, 2, 3}});
  EXPECT_THROW(index.knn({1.0f, 2.0f}, 1), util::Error);
}

class KdVsBrute : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KdVsBrute, AgreesWithBruteForce) {
  const auto [n, dim, k] = GetParam();
  const auto points = random_points(n, dim, static_cast<std::uint64_t>(n * dim));
  BruteForceIndex brute;
  KdTreeIndex kd(dim);
  for (const auto& p : points) {
    brute.add(p);
    kd.add(p);
  }
  EXPECT_EQ(kd.size(), static_cast<std::size_t>(n));
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> q(static_cast<std::size_t>(dim));
    for (auto& c : q) c = static_cast<float>(rng.normal());
    const auto expect = brute.knn(q, static_cast<std::size_t>(k));
    const auto got = kd.knn(q, static_cast<std::size_t>(k));
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_FLOAT_EQ(got[i].dist2, expect[i].dist2) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, KdVsBrute,
    ::testing::Values(std::make_tuple(10, 2, 1), std::make_tuple(100, 3, 5),
                      std::make_tuple(500, 9, 10), std::make_tuple(1000, 9, 1),
                      std::make_tuple(64, 1, 3), std::make_tuple(200, 16, 4)));

TEST(KdBoundProperty, NearestDist2BelowIsMinOfBoundAndNearest) {
  // For random indexes (empty, buffer only, tree + buffer, flushed) and
  // random queries, a bounded search must equal min(bound, nearest) exactly,
  // for bounds below, at, just around and above the true nearest distance.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  util::Rng rng(2024);
  for (const int dim : {1, 3, 9}) {
    for (const int n : {0, 1, 50, 1500}) {
      for (const bool flush : {false, true}) {
        KdTreeIndex kd(dim);
        for (const auto& p : random_points(n, dim, 7 * n + dim)) kd.add(p);
        if (flush) kd.flush();
        for (int trial = 0; trial < 100; ++trial) {
          std::vector<float> q(static_cast<std::size_t>(dim));
          for (auto& c : q) c = static_cast<float>(1.5 * rng.normal());
          const auto nn = kd.nearest(q);
          const float d = nn ? nn->dist2 : kInf;
          const float scale = std::isfinite(d) ? d : 1.0f;
          for (const float bound :
               {0.0f, kInf, d, std::nextafter(d, 0.0f),
                std::nextafter(d, kInf),
                static_cast<float>(rng.uniform(0.0, 2.0)) * scale}) {
            const float want = nn ? std::min(bound, d) : bound;
            EXPECT_EQ(kd.nearest_dist2_below(q, bound), want)
                << "dim " << dim << " n " << n << " bound " << bound;
          }
        }
      }
    }
  }
}

TEST(KdTreeIndex, IncrementalAddsVisibleImmediately) {
  KdTreeIndex index(2);
  // Adds below the rebuild threshold stay in the buffer; they must still be
  // searchable.
  index.add({1, {100, 100}});
  const auto nn = index.nearest({100, 100});
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 1u);
  for (int i = 0; i < 200; ++i)
    index.add({static_cast<PointId>(i + 10),
               {static_cast<float>(i), static_cast<float>(i)}});
  const auto nn2 = index.nearest({42.1f, 42.1f});
  ASSERT_TRUE(nn2.has_value());
  EXPECT_EQ(nn2->id, 52u);
}

TEST(KdTreeIndex, KLargerThanSize) {
  KdTreeIndex index(2);
  index.add({1, {0, 0}});
  index.add({2, {1, 1}});
  const auto nn = index.knn({0, 0}, 10);
  EXPECT_EQ(nn.size(), 2u);
}

TEST(KdTreeIndex, DuplicatePointsAllReturned) {
  KdTreeIndex index(2);
  for (int i = 0; i < 5; ++i)
    index.add({static_cast<PointId>(i), {1, 1}});
  const auto nn = index.knn({1, 1}, 5);
  EXPECT_EQ(nn.size(), 5u);
  for (const auto& n : nn) EXPECT_FLOAT_EQ(n.dist2, 0.0f);
}

TEST(KdTreeIndex, FlushFoldsBufferWithoutChangingResults) {
  const auto points = random_points(300, 3, 8);
  KdTreeIndex index(3);
  for (const auto& p : points) index.add(p);
  const auto before = index.knn({0.1f, -0.2f, 0.3f}, 7);
  index.flush();
  EXPECT_EQ(index.size(), 300u);
  const auto after = index.knn({0.1f, -0.2f, 0.3f}, 7);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].dist2, before[i].dist2);
  }
}

TEST(KdTreeIndex, KnnBatchMatchesPerQueryKnn) {
  const int dim = 4;
  const auto points = random_points(500, dim, 21);
  KdTreeIndex index(dim);
  BruteForceIndex brute;
  for (const auto& p : points) {
    index.add(p);
    brute.add(p);
  }
  index.flush();

  const auto queries = random_points(64, dim, 22);
  PointStore qs(dim);
  for (const auto& q : queries) qs.add(q);
  constexpr std::size_t k = 5;
  std::vector<Neighbor> out(qs.size() * k);
  util::ThreadPool pool(3);
  index.knn_batch(qs.flat(), qs.size(), k, out, &pool);
  for (std::size_t q = 0; q < qs.size(); ++q) {
    const auto want = brute.knn(qs.coords(q), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(out[q * k + i].id, want[i].id) << "query " << q;
      EXPECT_EQ(out[q * k + i].dist2, want[i].dist2) << "query " << q;
    }
  }
}

TEST(KdTreeIndex, KnnBatchPadsWhenIndexSmall) {
  KdTreeIndex index(2);
  index.add({1, {0, 0}});
  PointStore qs(2);
  const float q0[2] = {1, 1};
  qs.add(9, q0);
  std::vector<Neighbor> out(3);
  index.knn_batch(qs.flat(), 1, 3, out, nullptr);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].dist2, std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[2].dist2, std::numeric_limits<float>::infinity());
}

}  // namespace
}  // namespace mummi::ml
