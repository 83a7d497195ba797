// Determinism contract of the parallel MD engine: forces, energies, whole
// trajectories and minimizations must be bit-identical at any thread count,
// the CSR kernel must agree with the legacy pair-order reference, and the
// rewritten integration loop must still conserve energy in NVE.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "mdengine/cell_list.hpp"
#include "mdengine/force_field.hpp"
#include "mdengine/integrator.hpp"
#include "mdengine/parallel_kernels.hpp"
#include "mdengine/simulation.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {
namespace {

bool bits_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0);
}

/// Random fluid with several species, charges and bonded chains: exercises
/// every kernel term at once.
System messy_system(int n, real box_len, std::uint64_t seed) {
  System s;
  s.box.length = {box_len, box_len, box_len};
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const int type = static_cast<int>(rng.uniform_index(3));
    const real q = (i % 5 == 0) ? (i % 2 == 0 ? 0.5 : -0.5) : 0.0;
    const int idx = s.add_particle({rng.uniform(0.0, box_len),
                                    rng.uniform(0.0, box_len),
                                    rng.uniform(0.0, box_len)},
                                   type, 72.0, q, i / 3);
    s.vel[idx] = {0.1 * rng.normal(), 0.1 * rng.normal(), 0.1 * rng.normal()};
  }
  for (int i = 0; i + 2 < n; i += 3) {
    s.bonds.push_back({i, i + 1, 0.47, 1250.0});
    s.bonds.push_back({i + 1, i + 2, 0.47, 1250.0});
    s.angles.push_back({i, i + 1, i + 2, static_cast<real>(M_PI), 25.0});
  }
  return s;
}

std::shared_ptr<TypeMatrixForceField> messy_ff() {
  auto ff = std::make_shared<TypeMatrixForceField>(3, 1.2);
  ff->set_dielectric(15.0);
  ff->set_pair(0, 0, {4.0, 0.47});
  ff->set_pair(0, 1, {3.2, 0.47});
  ff->set_pair(1, 1, {4.5, 0.47});
  ff->set_pair(0, 2, {2.8, 0.43});
  ff->set_pair(1, 2, {3.0, 0.45});
  ff->set_pair(2, 2, {4.2, 0.41});
  return ff;
}

class ParallelMdDeterminism
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
};

TEST_P(ParallelMdDeterminism, NeighborRowsIdenticalAcrossThreadCounts) {
  const auto [n, box_len, seed] = GetParam();
  const System s = messy_system(n, box_len, seed);
  util::ThreadPool two(2), eight(8);

  NeighborList serial(1.2, 0.3), threaded2(1.2, 0.3), threaded8(1.2, 0.3);
  serial.build(s, nullptr);
  threaded2.build(s, &two);
  threaded8.build(s, &eight);

  EXPECT_EQ(serial.row_start(), threaded2.row_start());
  EXPECT_EQ(serial.neighbors(), threaded2.neighbors());
  EXPECT_EQ(serial.row_start(), threaded8.row_start());
  EXPECT_EQ(serial.neighbors(), threaded8.neighbors());
  // Rows are canonical: ascending j within each row, all j > i.
  for (std::size_t i = 0; i + 1 < serial.row_start().size(); ++i) {
    int prev = static_cast<int>(i);
    for (std::size_t k = serial.row_start()[i]; k < serial.row_start()[i + 1];
         ++k) {
      EXPECT_GT(serial.neighbors()[k], prev);
      prev = serial.neighbors()[k];
    }
  }
}

TEST_P(ParallelMdDeterminism, ForcesAndEnergyBitIdenticalAcrossThreadCounts) {
  const auto [n, box_len, seed] = GetParam();
  auto ff = messy_ff();
  util::ThreadPool two(2), eight(8);

  System serial = messy_system(n, box_len, seed);
  NeighborList list(ff->cutoff(), 0.3);
  list.build(serial, nullptr);

  std::fill(serial.force.begin(), serial.force.end(), Vec3{});
  const real e_serial = ff->compute(serial, list, nullptr);
  const real eb_serial = compute_bonded(serial, nullptr);

  for (util::ThreadPool* pool : {&two, &eight}) {
    System threaded = messy_system(n, box_len, seed);
    NeighborList tlist(ff->cutoff(), 0.3);
    tlist.build(threaded, pool);
    std::fill(threaded.force.begin(), threaded.force.end(), Vec3{});
    const real e = ff->compute(threaded, tlist, pool);
    const real eb = compute_bonded(threaded, pool);
    EXPECT_EQ(e, e_serial) << "nonbonded energy diverged at pool size "
                           << pool->size();
    EXPECT_EQ(eb, eb_serial) << "bonded energy diverged at pool size "
                             << pool->size();
    EXPECT_TRUE(bits_equal(serial.force, threaded.force))
        << "forces diverged at pool size " << pool->size();
  }
}

TEST_P(ParallelMdDeterminism, TrajectoriesBitIdenticalAcrossThreadCounts) {
  const auto [n, box_len, seed] = GetParam();
  // cfg.pool = nullptr resolves through default_md_pool(); make sure the
  // serial reference really runs serial regardless of the test environment.
  ::unsetenv("MUMMI_POOL_SIZE");
  util::ThreadPool two(2), eight(8);

  auto run = [&](util::ThreadPool* pool) {
    SimulationConfig cfg;
    cfg.dt = 0.01;
    cfg.pool = pool;
    cfg.frame_interval = 0;
    Simulation sim(messy_system(n, box_len, seed), messy_ff(),
                   std::make_unique<Langevin>(310.0, 2.0, util::Rng(seed)),
                   cfg);
    sim.run(60);
    return sim;
  };

  const Simulation serial = run(nullptr);
  const Simulation t2 = run(&two);
  const Simulation t8 = run(&eight);

  EXPECT_EQ(serial.potential_energy(), t2.potential_energy());
  EXPECT_EQ(serial.potential_energy(), t8.potential_energy());
  EXPECT_TRUE(bits_equal(serial.system().pos, t2.system().pos));
  EXPECT_TRUE(bits_equal(serial.system().vel, t2.system().vel));
  EXPECT_TRUE(bits_equal(serial.system().pos, t8.system().pos));
  EXPECT_TRUE(bits_equal(serial.system().vel, t8.system().vel));
  EXPECT_EQ(serial.neighbor_rebuilds(), t8.neighbor_rebuilds());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ParallelMdDeterminism,
    ::testing::Values(std::make_tuple(64, 4.0, 11),    // small-box all-pairs
                      std::make_tuple(300, 6.0, 97),   // stencil path
                      std::make_tuple(700, 8.0, 2026)  // several blocks
                      ));

/// The pre-refactor kernel, kept as an executable reference: walks (i, j)
/// pairs in legacy order, recomputes the LJ shift per pair and looks the
/// parameters up through the bounds-checked accessor.
real legacy_compute(const TypeMatrixForceField& ff, System& system,
                    const NeighborList& neighbors, real eps_r) {
  constexpr real kCoulomb = 138.935458;
  const real rc = ff.cutoff();
  const real rc2 = rc * rc;
  real energy = 0;
  for (const auto& [i, j] : neighbors.pairs()) {
    const Vec3 d = system.box.min_image(system.pos[i], system.pos[j]);
    const real r2 = d.norm2();
    if (r2 >= rc2 || r2 == 0) continue;
    const PairParams p = ff.pair(system.type[i], system.type[j]);
    real f_over_r = 0;
    if (p.epsilon > 0) {
      const real s2 = p.sigma * p.sigma / r2;
      const real s6 = s2 * s2 * s2;
      const real s12 = s6 * s6;
      const real sc2 = p.sigma * p.sigma / rc2;
      const real sc6 = sc2 * sc2 * sc2;
      const real shift = 4 * p.epsilon * (sc6 * sc6 - sc6);
      energy += 4 * p.epsilon * (s12 - s6) - shift;
      f_over_r += 24 * p.epsilon * (2 * s12 - s6) / r2;
    }
    const real qq = system.charge[i] * system.charge[j];
    if (qq != 0) {
      const real r = std::sqrt(r2);
      const real pre = kCoulomb / eps_r;
      energy += pre * qq * (1 / r - 1 / rc);
      f_over_r += pre * qq / (r2 * r);
    }
    const Vec3 f = f_over_r * d;
    system.force[i] += f;
    system.force[j] -= f;
  }
  return energy;
}

TEST(ParallelMd, CsrKernelMatchesLegacyPairOrderReference) {
  auto ff = messy_ff();
  System s = messy_system(400, 6.0, 5);
  NeighborList list(ff->cutoff(), 0.3);
  list.build(s);

  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e_new = ff->compute(s, list);
  const std::vector<Vec3> f_new = s.force;

  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e_legacy = legacy_compute(*ff, s, list, 15.0);

  // Same math, different factorization and summation order: agreement to
  // relative rounding, not bit-identity (bit-identity is the contract
  // *across thread counts*, not across kernel generations).
  EXPECT_NEAR(e_new, e_legacy, 1e-9 * std::max<real>(1.0, std::abs(e_legacy)));
  for (std::size_t i = 0; i < s.size(); ++i) {
    const real scale = std::max<real>(1.0, s.force[i].norm());
    EXPECT_NEAR(f_new[i].x, s.force[i].x, 1e-9 * scale);
    EXPECT_NEAR(f_new[i].y, s.force[i].y, 1e-9 * scale);
    EXPECT_NEAR(f_new[i].z, s.force[i].z, 1e-9 * scale);
  }
}

TEST(ParallelMd, NeighborListReusesStorageAcrossRebuilds) {
  System s = messy_system(500, 6.0, 13);
  NeighborList list(1.2, 0.3);
  list.build(s);
  EXPECT_EQ(list.rebuilds(), 1u);
  const std::size_t pairs0 = list.n_pairs();
  ASSERT_GT(pairs0, 0u);
  const int* data0 = list.neighbors().data();
  const std::size_t cap0 = list.neighbors().capacity();

  // Jitter positions slightly (well under skin/2) and rebuild: same shape,
  // and the flat array must not have been reallocated.
  util::Rng rng(14);
  for (auto& p : s.pos)
    p += {0.01 * rng.normal(), 0.01 * rng.normal(), 0.01 * rng.normal()};
  list.build(s);
  EXPECT_EQ(list.rebuilds(), 2u);
  EXPECT_EQ(list.neighbors().capacity(), cap0);
  EXPECT_EQ(list.neighbors().data(), data0);

  const NeighborList::FillStats stats = list.fill_stats();
  EXPECT_EQ(stats.rebuilds, 2u);
  EXPECT_EQ(stats.pairs, list.n_pairs());
  EXPECT_GT(stats.cells, 0u);
  EXPECT_GE(stats.max_row, static_cast<std::size_t>(stats.avg_row));
  EXPECT_GT(stats.avg_row, 0.0);
}

TEST(ParallelMd, KernelBlockBoundariesDependOnSizeOnly) {
  // The whole determinism argument rests on this: boundaries are f(n) only.
  auto blocks = [](std::size_t n) {
    return util::block_count(n, detail::kernel_block(n));
  };
  EXPECT_EQ(detail::kernel_block(100), 512u);
  EXPECT_EQ(blocks(100), 1u);
  EXPECT_EQ(blocks(0), 0u);
  const std::size_t n = 100000;
  EXPECT_EQ(detail::kernel_block(n), 6250u);
  EXPECT_GE(blocks(n), 15u);
  EXPECT_LE(blocks(n), 17u);
}

TEST(ParallelMd, PoolSizeEnvSelectsSharedPool) {
  ::unsetenv("MUMMI_POOL_SIZE");
  EXPECT_EQ(default_md_pool(), nullptr);
  ::setenv("MUMMI_POOL_SIZE", "1", 1);
  EXPECT_EQ(default_md_pool(), nullptr);  // one worker: stay serial
  ::setenv("MUMMI_POOL_SIZE", "4", 1);
  EXPECT_EQ(default_md_pool(), &util::global_pool());
  ::unsetenv("MUMMI_POOL_SIZE");
}

TEST(ParallelMd, EnvPooledSimulationMatchesSerialBitwise) {
  auto run = [](bool env) {
    if (env)
      ::setenv("MUMMI_POOL_SIZE", "4", 1);
    else
      ::unsetenv("MUMMI_POOL_SIZE");
    SimulationConfig cfg;
    cfg.dt = 0.01;
    Simulation sim(messy_system(200, 5.0, 21), messy_ff(),
                   std::make_unique<Langevin>(310.0, 2.0, util::Rng(21)), cfg);
    sim.run(40);
    ::unsetenv("MUMMI_POOL_SIZE");
    return sim;
  };
  const Simulation serial = run(false);
  const Simulation pooled = run(true);
  EXPECT_EQ(serial.potential_energy(), pooled.potential_energy());
  EXPECT_TRUE(bits_equal(serial.system().pos, pooled.system().pos));
  EXPECT_TRUE(bits_equal(serial.system().vel, pooled.system().vel));
}

/// Runs `drive` on a fresh Simulation of messy_system(1100, 8.0, 41) (three
/// kernel blocks) at 1, 2, 4 and 8 workers; every run must match the
/// 1-worker run bit for bit.
template <typename MakeIntegrator, typename Drive>
void expect_bit_identical_at_1248_workers(MakeIntegrator make, Drive drive) {
  auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    SimulationConfig cfg;
    cfg.dt = 0.01;
    cfg.pool = &pool;
    cfg.frame_interval = 0;
    Simulation sim(messy_system(1100, 8.0, 41), messy_ff(), make(), cfg);
    drive(sim);
    return std::make_tuple(sim.potential_energy(), sim.system().pos,
                           sim.system().vel);
  };
  const auto [pe1, pos1, vel1] = run(1);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto [pe, pos, vel] = run(workers);
    EXPECT_EQ(pe, pe1) << workers << " workers";
    EXPECT_TRUE(bits_equal(pos, pos1)) << workers << " workers";
    EXPECT_TRUE(bits_equal(vel, vel1)) << workers << " workers";
  }
}

TEST(ParallelMd, MinimizeThenLangevinBitIdenticalAt1248Workers) {
  // The backmapping shape: minimize, then thermostatted MD, then minimize.
  expect_bit_identical_at_1248_workers(
      [] { return std::make_unique<Langevin>(310.0, 2.0, util::Rng(41)); },
      [](Simulation& sim) {
        sim.minimize_energy(30);
        sim.run(25);
        sim.minimize_energy(15);
      });
}

TEST(ParallelMd, VelocityVerletBitIdenticalAt1248Workers) {
  expect_bit_identical_at_1248_workers(
      [] { return std::make_unique<VelocityVerlet>(); },
      [](Simulation& sim) {
        sim.minimize_energy(30);  // random placement overlaps: relax first
        sim.run(25);
      });
}

TEST(NveDrift, VelocityVerletConservesEnergyWithRewrittenKernels) {
  // LJ fluid, no thermostat: total energy drift over 600 steps must stay a
  // tiny fraction of the kinetic scale. Guards the kernel rewrite against
  // sign/shift/reduction mistakes that tolerance-based force tests can miss.
  auto ff = std::make_shared<TypeMatrixForceField>(1, 1.2);
  ff->set_pair(0, 0, {2.0, 0.47});
  System s;
  const real box_len = 6.0;
  s.box.length = {box_len, box_len, box_len};
  util::Rng rng(31);
  const int per_side = 6;
  const real spacing = box_len / per_side;
  for (int i = 0; i < per_side; ++i)
    for (int j = 0; j < per_side; ++j)
      for (int k = 0; k < per_side; ++k) {
        const int idx = s.add_particle(
            {(i + 0.5) * spacing, (j + 0.5) * spacing, (k + 0.5) * spacing},
            0, 72.0);
        s.vel[idx] = {0.05 * rng.normal(), 0.05 * rng.normal(),
                      0.05 * rng.normal()};
      }
  s.zero_momentum();

  SimulationConfig cfg;
  cfg.dt = 0.005;
  cfg.frame_interval = 1;
  util::ThreadPool pool(4);
  cfg.pool = &pool;
  Simulation sim(std::move(s), ff, std::make_unique<VelocityVerlet>(), cfg);

  real e0 = 0, max_drift = 0;
  bool first = true;
  sim.on_frame([&](const System& sys, long, real pe) {
    const real e = pe + sys.kinetic_energy();
    if (first) {
      e0 = e;
      first = false;
      return;
    }
    max_drift = std::max(max_drift, std::abs(e - e0));
  });
  sim.run(600);
  ASSERT_FALSE(first);
  const real ke_scale = sim.system().kinetic_energy();
  ASSERT_GT(ke_scale, 0.0);
  EXPECT_LT(max_drift / ke_scale, 2e-3)
      << "NVE drift " << max_drift << " vs kinetic scale " << ke_scale;
}

}  // namespace
}  // namespace mummi::md
