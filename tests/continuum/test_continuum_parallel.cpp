// Determinism contract of the parallel continuum (DDFT) engine: serialized
// frames must be bit-identical at any thread count AND bit-identical to the
// legacy reference kernels, checkpoints must resume the exact trajectory
// (including old v1 frames), and untrusted snapshot bytes must be rejected
// rather than laundered into enum tables or huge allocations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <vector>

#include "continuum/gridsim2d.hpp"
#include "continuum/parallel_kernels.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi::cont {
namespace {

ContinuumConfig small_config(int grid, std::uint64_t seed, int n_proteins) {
  ContinuumConfig cfg;
  cfg.grid = grid;
  cfg.inner_species = 3;
  cfg.outer_species = 2;
  cfg.n_proteins = n_proteins;
  cfg.seed = seed;
  return cfg;
}

class ParallelContinuumDeterminism
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int>> {};

TEST_P(ParallelContinuumDeterminism, FramesBitIdenticalAcrossThreadCounts) {
  const auto [grid, seed, np] = GetParam();
  ::unsetenv("MUMMI_POOL_SIZE");  // the serial reference must run serial
  util::ThreadPool two(2), eight(8);

  auto run = [&](util::ThreadPool* pool) {
    ContinuumConfig cfg = small_config(grid, seed, np);
    cfg.pool = pool;
    GridSim2D sim(cfg);
    sim.step(15);
    return sim.serialize();
  };

  const util::Bytes serial = run(nullptr);
  EXPECT_EQ(serial, run(&two)) << "frame diverged at 2 threads";
  EXPECT_EQ(serial, run(&eight)) << "frame diverged at 8 threads";
}

TEST_P(ParallelContinuumDeterminism, LegacyKernelsMatchEngineExactly) {
  const auto [grid, seed, np] = GetParam();
  util::ThreadPool eight(8);

  ContinuumConfig legacy_cfg = small_config(grid, seed, np);
  legacy_cfg.legacy_kernels = true;
  GridSim2D legacy(legacy_cfg);
  legacy.step(15);

  ContinuumConfig cfg = small_config(grid, seed, np);
  cfg.pool = &eight;
  GridSim2D engine(cfg);
  engine.step(15);

  // The fused/blocked stencils, the cell-binned repulsion and the per-protein
  // streams must reproduce the reference loop structure bit for bit.
  EXPECT_EQ(legacy.serialize(), engine.serialize());
}

TEST_P(ParallelContinuumDeterminism, SpeciesMassConservedUnderThreading) {
  const auto [grid, seed, np] = GetParam();
  util::ThreadPool eight(8);
  ContinuumConfig cfg = small_config(grid, seed, np);
  cfg.pool = &eight;
  GridSim2D sim(cfg);
  const std::vector<double> before = sim.species_mass();
  sim.step(25);
  const std::vector<double> after = sim.species_mass();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t s = 0; s < before.size(); ++s)
    EXPECT_NEAR(after[s], before[s], 1e-8 * before[s]) << "species " << s;
}

INSTANTIATE_TEST_SUITE_P(
    GridsSeedsProteins, ParallelContinuumDeterminism,
    ::testing::Values(std::make_tuple(24, 7, 0),     // no proteins at all
                      std::make_tuple(32, 11, 12),   // all-pairs fallback
                      std::make_tuple(48, 97, 60),   // cell-binned repulsion
                      std::make_tuple(40, 2026, 200)  // crowded bins
                      ));

TEST(ParallelContinuum, CellBinsCoverEveryInRangePair) {
  // gather_candidates must return a sorted superset of the in-range
  // neighborhood; the crowded-bins determinism case above then proves the
  // binned force sum equals all-pairs bit for bit.
  ContinuumConfig cfg = small_config(40, 5, 150);
  GridSim2D sim(cfg);
  const auto& ps = sim.proteins();
  detail::ProteinCellBins bins;
  const double range = 2 * cfg.protein_radius;
  bins.build(ps, cfg.extent, range);
  ASSERT_TRUE(bins.binned());
  const double l = cfg.extent;
  std::vector<std::size_t> cand;
  for (std::size_t a = 0; a < ps.size(); ++a) {
    cand.clear();
    bins.gather_candidates(a, cand);
    EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    // Every protein within range of a must appear among the candidates.
    std::size_t ci = 0;
    for (std::size_t b = 0; b < ps.size(); ++b) {
      double dx = ps[a].x - ps[b].x;
      double dy = ps[a].y - ps[b].y;
      dx -= l * std::round(dx / l);
      dy -= l * std::round(dy / l);
      if (dx * dx + dy * dy > range * range) continue;
      while (ci < cand.size() && cand[ci] < b) ++ci;
      ASSERT_TRUE(ci < cand.size() && cand[ci] == b)
          << "in-range pair (" << a << ", " << b << ") missed by the bins";
    }
  }
}

TEST(ParallelContinuum, RestoreResumesBitIdentically) {
  const ContinuumConfig cfg = small_config(32, 3, 40);
  GridSim2D a(cfg);
  a.step(20);
  const util::Bytes frame = a.serialize();
  a.step(20);

  GridSim2D b(cfg);
  b.restore(frame);
  EXPECT_EQ(b.step_count(), 20u);
  b.step(20);

  // A resumed campaign must replay the exact trajectory: the v2 frame
  // carries the step counter the per-protein streams are keyed on.
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(ParallelContinuum, V1FrameStillReadable) {
  const ContinuumConfig cfg = small_config(32, 9, 25);
  GridSim2D a(cfg);
  a.step(12);

  // Re-encode a's state as a pre-versioning v1 frame: [snapshot bytes]
  // [coupling vec] [chi vec], no sentinel, no step counter, no RNG state.
  const util::Bytes v2 = a.serialize();
  util::ByteReader r(v2);
  ASSERT_EQ(r.u64(), 0xFFFFFFFF434E5446ULL);  // v2 sentinel
  ASSERT_EQ(r.u32(), 2u);
  const util::Bytes snap = r.bytes();
  const std::vector<double> coupling = r.vec<double>();
  const std::vector<double> chi = r.vec<double>();
  util::ByteWriter w;
  w.bytes(snap);
  w.vec(coupling);
  w.vec(chi);

  GridSim2D b(cfg);
  b.restore(std::move(w).take());
  // The step counter is recovered from the frame time, so the counter-based
  // protein streams line up and the v1 resume replays exactly.
  EXPECT_EQ(b.step_count(), 12u);
  a.step(10);
  b.step(10);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(ParallelContinuum, SnapshotRejectsOutOfRangeProteinState) {
  GridSim2D sim(small_config(16, 1, 5));
  util::Bytes bytes = sim.snapshot().serialize();
  // The last u32 in the stream is the final protein's state; forge it.
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + bytes.size() - 4, &bogus, 4);
  EXPECT_THROW(Snapshot::deserialize(bytes), util::FormatError);
}

TEST(ParallelContinuum, SnapshotRejectsMalformedBytes) {
  GridSim2D sim(small_config(16, 2, 5));
  const util::Bytes good = sim.snapshot().serialize();
  ASSERT_NO_THROW(Snapshot::deserialize(good));

  // Truncation at any depth surfaces as FormatError, never UB or a huge
  // allocation driven by a forged length header.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{13}, std::size_t{64}, good.size() - 3}) {
    util::Bytes cut(good.begin(), good.begin() + keep);
    EXPECT_THROW(Snapshot::deserialize(cut), util::FormatError) << keep;
  }
  EXPECT_THROW(Snapshot::deserialize(util::Bytes{}), util::FormatError);
  EXPECT_THROW(GridSim2D(small_config(16, 2, 5)).restore(util::Bytes(8, 0xFF)),
               util::Error);
}

TEST(ParallelContinuum, ZeroProteinRadiusLeavesFieldsFinite) {
  // sigma_g == 0 used to divide by zero in the Gaussian stamp; a pointlike
  // protein must simply leave no footprint.
  ContinuumConfig cfg = small_config(24, 4, 10);
  cfg.protein_radius = 0.0;
  GridSim2D sim(cfg);
  sim.step(5);
  for (int s = 0; s < sim.n_species(); ++s)
    for (const double v : sim.field(s).data()) ASSERT_TRUE(std::isfinite(v));
}

TEST(ParallelContinuum, NanFieldsFreezeProteinsInsideBox) {
  // A wildly unstable dt blows the fields up; protein positions must stay
  // finite and inside the box rather than inheriting the NaNs.
  ContinuumConfig cfg = small_config(16, 6, 20);
  cfg.dt = 1e9;
  GridSim2D sim(cfg);
  sim.step(8);
  for (const auto& p : sim.proteins()) {
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
    ASSERT_TRUE(p.x >= 0 && p.x < cfg.extent);
    ASSERT_TRUE(p.y >= 0 && p.y < cfg.extent);
  }
}

TEST(ParallelContinuum, BlockBoundariesDependOnSizeOnly) {
  // The whole determinism argument rests on this: boundaries are f(n) only.
  auto row_blocks = [](std::size_t n) {
    return util::block_count(n, detail::row_block(n));
  };
  auto protein_blocks = [](std::size_t p) {
    return util::block_count(p, detail::protein_block(p));
  };
  EXPECT_EQ(detail::row_block(24), 8u);
  EXPECT_EQ(row_blocks(24), 3u);
  EXPECT_EQ(row_blocks(0), 0u);
  EXPECT_EQ(row_blocks(192), 16u);
  EXPECT_EQ(detail::protein_block(30), 16u);
  EXPECT_EQ(protein_blocks(30), 2u);
  EXPECT_EQ(protein_blocks(0), 0u);
  EXPECT_EQ(detail::protein_block(100000), 12500u);
  EXPECT_GE(protein_blocks(100000), 7u);
  EXPECT_LE(protein_blocks(100000), 9u);
}

TEST(ParallelContinuum, ProteinStreamSeedsAreDistinct) {
  // Adjacent (protein, step) pairs must not collide, or two proteins would
  // share Brownian kicks.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t idx = 0; idx < 64; ++idx)
    for (std::uint64_t step = 0; step < 64; ++step)
      seen.push_back(util::stream_seed(42, idx, step));
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(ParallelContinuum, PoolSizeEnvSelectsSharedPool) {
  ::unsetenv("MUMMI_POOL_SIZE");
  EXPECT_EQ(default_continuum_pool(), nullptr);
  ::setenv("MUMMI_POOL_SIZE", "1", 1);
  EXPECT_EQ(default_continuum_pool(), nullptr);  // one worker: stay serial
  ::setenv("MUMMI_POOL_SIZE", "4", 1);
  EXPECT_EQ(default_continuum_pool(), &util::global_pool());
  ::unsetenv("MUMMI_POOL_SIZE");
}

TEST(ParallelContinuum, StepCountersAdvance) {
  GridSim2D sim(small_config(16, 8, 30));
  const auto steps0 = obs::counter("cont.step.steps").value();
  const auto cells0 = obs::counter("cont.step.cells").value();
  const auto pairs0 = obs::counter("cont.step.protein_pairs").value();
  const auto rebuilds0 = obs::counter("cont.step.rebuilds").value();
  sim.step(4);
  EXPECT_EQ(obs::counter("cont.step.steps").value() - steps0, 4u);
  EXPECT_EQ(obs::counter("cont.step.cells").value() - cells0,
            4u * 16 * 16 * 5);
  EXPECT_EQ(obs::counter("cont.step.rebuilds").value() - rebuilds0, 4u);
  // Pair counts are symmetric: every interacting (a, b) is visited from both
  // sides, so the counter moves in even increments (or not at all).
  EXPECT_EQ((obs::counter("cont.step.protein_pairs").value() - pairs0) % 2, 0u);
}

}  // namespace
}  // namespace mummi::cont
