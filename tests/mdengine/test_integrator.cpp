#include "mdengine/integrator.hpp"

#include <gtest/gtest.h>

#include "mdengine/cell_list.hpp"
#include "mdengine/force_field.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mummi::md {
namespace {

/// A small LJ fluid for integrator tests.
System make_fluid(int n, real box_len, util::Rng& rng) {
  System s;
  s.box.length = {box_len, box_len, box_len};
  // Lattice placement avoids initial overlaps.
  const int per_side = static_cast<int>(std::ceil(std::cbrt(n)));
  const real spacing = box_len / per_side;
  int added = 0;
  for (int i = 0; i < per_side && added < n; ++i)
    for (int j = 0; j < per_side && added < n; ++j)
      for (int k = 0; k < per_side && added < n; ++k) {
        const int idx = s.add_particle(
            {(i + 0.5) * spacing, (j + 0.5) * spacing, (k + 0.5) * spacing},
            0, 72.0);
        const real sigma_v = std::sqrt(kBoltzmann * 310.0 / 72.0);
        s.vel[idx] = {sigma_v * rng.normal(), sigma_v * rng.normal(),
                      sigma_v * rng.normal()};
        ++added;
      }
  s.zero_momentum();
  return s;
}

struct FluidForces {
  explicit FluidForces(real cutoff = 1.2) : ff(1, cutoff), list(cutoff, 0.3) {
    ff.set_pair(0, 0, {2.0, 0.47});
  }
  ForceFn fn() {
    return [this](System& s) {
      if (list.needs_rebuild(s)) list.build(s);
      return ff.compute(s, list);
    };
  }
  TypeMatrixForceField ff;
  NeighborList list;
};

TEST(VelocityVerlet, ConservesEnergyNve) {
  util::Rng rng(1);
  System s = make_fluid(64, 4.0, rng);
  FluidForces forces;
  VelocityVerlet vv;
  const ForceFn fn = forces.fn();
  // Warm up one step to get initial PE.
  real pe = vv.step(s, fn, 0.005);
  const real e0 = pe + s.kinetic_energy();
  util::RunningStats drift;
  for (int step = 0; step < 400; ++step) {
    pe = vv.step(s, fn, 0.005);
    drift.add(pe + s.kinetic_energy() - e0);
  }
  // Total energy drift small relative to kinetic energy scale.
  EXPECT_LT(std::abs(drift.mean()), 0.02 * s.kinetic_energy());
  EXPECT_LT(drift.stddev(), 0.02 * s.kinetic_energy());
}

TEST(VelocityVerlet, TimeReversalSymmetry) {
  util::Rng rng(5);
  System s = make_fluid(27, 3.0, rng);
  const auto pos0 = s.pos;
  FluidForces forces;
  VelocityVerlet vv;
  const ForceFn fn = forces.fn();
  for (int i = 0; i < 50; ++i) vv.step(s, fn, 0.004);
  // Reverse velocities and integrate back.
  for (auto& v : s.vel) v *= -1.0;
  VelocityVerlet back;
  for (int i = 0; i < 50; ++i) back.step(s, fn, 0.004);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_NEAR(s.box.min_image(s.pos[i], pos0[i]).norm(), 0.0, 1e-5);
}

TEST(Langevin, EquilibratesToTargetTemperature) {
  util::Rng rng(2);
  System s = make_fluid(125, 5.0, rng);
  // Start cold.
  for (auto& v : s.vel) v = {};
  FluidForces forces;
  Langevin langevin(310.0, 5.0, util::Rng(42));
  const ForceFn fn = forces.fn();
  for (int i = 0; i < 300; ++i) langevin.step(s, fn, 0.01);
  util::RunningStats temps;
  for (int i = 0; i < 300; ++i) {
    langevin.step(s, fn, 0.01);
    temps.add(s.temperature());
  }
  EXPECT_NEAR(temps.mean(), 310.0, 25.0);
}

TEST(Langevin, TemperatureSetterTakesEffect) {
  util::Rng rng(3);
  System s = make_fluid(64, 4.0, rng);
  FluidForces forces;
  Langevin langevin(310.0, 5.0, util::Rng(1));
  EXPECT_DOUBLE_EQ(langevin.temperature(), 310.0);
  langevin.set_temperature(150.0);
  const ForceFn fn = forces.fn();
  for (int i = 0; i < 400; ++i) langevin.step(s, fn, 0.01);
  util::RunningStats temps;
  for (int i = 0; i < 200; ++i) {
    langevin.step(s, fn, 0.01);
    temps.add(s.temperature());
  }
  EXPECT_NEAR(temps.mean(), 150.0, 20.0);
}

TEST(Langevin, DeterministicGivenSeed) {
  util::Rng rng_a(7), rng_b(7);
  System a = make_fluid(27, 3.0, rng_a);
  System b = make_fluid(27, 3.0, rng_b);
  FluidForces fa, fb;
  Langevin la(310, 2.0, util::Rng(9));
  Langevin lb(310, 2.0, util::Rng(9));
  const ForceFn fna = fa.fn(), fnb = fb.fn();
  for (int i = 0; i < 20; ++i) {
    la.step(a, fna, 0.01);
    lb.step(b, fnb, 0.01);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pos[i].x, b.pos[i].x);
    EXPECT_DOUBLE_EQ(a.vel[i].z, b.vel[i].z);
  }
}

TEST(Minimize, ReducesEnergyOfOverlappingPair) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.3, 5, 5}, 0, 1.0);  // well inside repulsive core
  FluidForces forces;
  const ForceFn fn = forces.fn();
  std::fill(s.force.begin(), s.force.end(), Vec3{});
  const real e0 = fn(s);
  const real e1 = minimize(s, fn, 200);
  EXPECT_LT(e1, e0);
  // Final separation near the LJ minimum 2^(1/6) sigma.
  const real r = s.box.min_image(s.pos[0], s.pos[1]).norm();
  EXPECT_NEAR(r, std::pow(2.0, 1.0 / 6.0) * 0.47, 0.05);
}

TEST(Minimize, StopsAtForceTolerance) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.0 + std::pow(2.0, 1.0 / 6.0) * 0.47, 5, 5}, 0, 1.0);
  FluidForces forces;
  const auto pos_before = s.pos;
  minimize(s, forces.fn(), 100, 0.01, 10.0);
  // Already at the minimum: positions barely move.
  EXPECT_NEAR(s.box.min_image(s.pos[1], pos_before[1]).norm(), 0.0, 1e-3);
}

TEST(Minimize, RejectedStepCostsNoExtraForceEvaluation) {
  // A stretched bond and a first trial step big enough to overshoot: the
  // atoms cross, the energy does not drop, and the step is rejected. With
  // f_tol = 0 the loop runs all K iterations, one trial evaluation each, so
  // a minimizer that re-evaluated forces on rejection would call K + 1 +
  // (rejections) times instead of K + 1.
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.9, 5, 5}, 0, 1.0);
  s.bonds.push_back({0, 1, 0.5, 500.0});
  int calls = 0;
  const ForceFn fn = [&calls](System& sys) {
    ++calls;
    return compute_bonded(sys);
  };
  obs::Counter& evals = obs::counter("md.minimize.force_evals");
  obs::Counter& rejections = obs::counter("md.minimize.rejections");
  const auto evals0 = evals.value();
  const auto rejections0 = rejections.value();
  constexpr int kIters = 40;
  minimize(s, fn, kIters, 0.5, 0.0);
  EXPECT_EQ(calls, kIters + 1);
  EXPECT_EQ(evals.value() - evals0, static_cast<std::uint64_t>(calls));
  EXPECT_GE(rejections.value() - rejections0, 1u);
  EXPECT_NEAR(s.box.min_image(s.pos[0], s.pos[1]).norm(), 0.5, 0.01);
}

TEST(Minimize, BondedChainRelaxesToRestLength) {
  System s;
  s.box.length = {10, 10, 10};
  s.add_particle({5.0, 5, 5}, 0, 1.0);
  s.add_particle({5.9, 5, 5}, 0, 1.0);
  s.bonds.push_back({0, 1, 0.5, 500.0});
  const ForceFn fn = [](System& sys) { return compute_bonded(sys); };
  minimize(s, fn, 500, 0.01, 0.5);
  EXPECT_NEAR(s.box.min_image(s.pos[0], s.pos[1]).norm(), 0.5, 0.01);
}

}  // namespace
}  // namespace mummi::md
