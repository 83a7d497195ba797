// Time integrators and the steepest-descent minimizer.
//
// Every particle loop runs through util::for_blocks on the caller's pool with
// block boundaries that depend on the particle count only, and each particle
// touches only its own state, so a trajectory is bit-identical at any worker
// count (DESIGN.md 4h).
#pragma once

#include <cstdint>
#include <functional>

#include "mdengine/system.hpp"
#include "util/rng.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::md {

/// Computes forces into system.force (after the integrator zeroes them) and
/// returns potential energy.
using ForceFn = std::function<real(System&)>;

class Integrator {
 public:
  virtual ~Integrator() = default;
  /// Advances one step of length dt; returns the potential energy at the
  /// end-of-step configuration.
  virtual real step(System& system, const ForceFn& forces, real dt) = 0;

  /// Pool the particle loops fan out over (null: serial). Simulation sets
  /// the pool it resolved for the force kernels.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

 protected:
  util::ThreadPool* pool_ = nullptr;
};

/// Plain velocity Verlet (NVE).
class VelocityVerlet final : public Integrator {
 public:
  real step(System& system, const ForceFn& forces, real dt) override;

 private:
  bool have_forces_ = false;
};

/// Langevin dynamics via the BAOAB splitting — the thermostatted workhorse
/// for CG/AA production runs (plays the role of ddcMD's Martini integrator).
/// Particle i's noise at step s comes from its own counter-based stream,
/// util::Rng(util::stream_seed(seed, i, s)), with `seed` drawn once from
/// `rng` and s counting this integrator's steps — so the O step threads
/// freely and the trajectory does not depend on the worker count.
class Langevin final : public Integrator {
 public:
  /// `temperature` in K, `gamma` friction in 1/ps.
  Langevin(real temperature, real gamma, util::Rng rng)
      : temperature_(temperature), gamma_(gamma), seed_(rng()) {}

  real step(System& system, const ForceFn& forces, real dt) override;

  void set_temperature(real t) { temperature_ = t; }
  [[nodiscard]] real temperature() const { return temperature_; }

 private:
  real temperature_;
  real gamma_;
  std::uint64_t seed_;
  std::uint64_t steps_ = 0;  // steps taken: the noise streams' step key
  bool have_forces_ = false;
};

/// Steepest-descent energy minimization with adaptive step size (the
/// GROMACS-relaxation stand-in used by createsim and backmapping).
/// Returns the final potential energy; stops early when the maximum force
/// falls below `f_tol` (kJ/mol/nm). A rejected trial move restores the saved
/// positions and forces together, so it costs no second force evaluation.
/// The max-force scan and the displacement run through `pool` (null:
/// serial); the result is the same at any worker count.
real minimize(System& system, const ForceFn& forces, int max_steps,
              real initial_step = 0.01, real f_tol = 10.0,
              util::ThreadPool* pool = nullptr);

}  // namespace mummi::md
