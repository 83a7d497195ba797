#include "mdengine/integrator.hpp"

#include <algorithm>
#include <cmath>

#include "mdengine/parallel_kernels.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {

namespace {
void zero_forces(System& system) {
  std::fill(system.force.begin(), system.force.end(), Vec3{});
}

real refresh_forces(System& system, const ForceFn& forces) {
  zero_forces(system);
  return forces(system);
}

/// Runs fn(i) for every particle through the pool, in kernel_block blocks.
template <typename F>
void for_particles(util::ThreadPool* pool, std::size_t n, F&& fn) {
  util::for_blocks(pool, n, detail::kernel_block(n),
                   [&fn](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i) fn(i);
                   });
}

/// B: the closing half kick, v += (dt / 2m) f.
void half_kick(System& system, real dt, util::ThreadPool* pool) {
  for_particles(pool, system.size(), [&](std::size_t i) {
    system.vel[i] += (0.5 * dt / system.mass[i]) * system.force[i];
  });
}
}  // namespace

real VelocityVerlet::step(System& system, const ForceFn& forces, real dt) {
  if (!have_forces_) {
    refresh_forces(system, forces);
    have_forces_ = true;
  }
  for_particles(pool_, system.size(), [&](std::size_t i) {
    system.vel[i] += (0.5 * dt / system.mass[i]) * system.force[i];
    system.pos[i] = system.box.wrap(system.pos[i] + dt * system.vel[i]);
  });
  const real pe = refresh_forces(system, forces);
  half_kick(system, dt, pool_);
  return pe;
}

real Langevin::step(System& system, const ForceFn& forces, real dt) {
  // BAOAB: B (half kick), A (half drift), O (Ornstein-Uhlenbeck),
  // A (half drift), B (half kick).
  if (!have_forces_) {
    refresh_forces(system, forces);
    have_forces_ = true;
  }
  const real c1 = std::exp(-gamma_ * dt);
  const std::uint64_t step = steps_++;
  for_particles(pool_, system.size(), [&](std::size_t i) {
    system.vel[i] += (0.5 * dt / system.mass[i]) * system.force[i];
    system.pos[i] += (0.5 * dt) * system.vel[i];
    const real sigma =
        std::sqrt(kBoltzmann * temperature_ * (1 - c1 * c1) / system.mass[i]);
    util::Rng noise(util::stream_seed(seed_, i, step));
    system.vel[i] = c1 * system.vel[i] +
                    Vec3{sigma * static_cast<real>(noise.normal()),
                         sigma * static_cast<real>(noise.normal()),
                         sigma * static_cast<real>(noise.normal())};
    system.pos[i] = system.box.wrap(system.pos[i] + (0.5 * dt) * system.vel[i]);
  });
  const real pe = refresh_forces(system, forces);
  half_kick(system, dt, pool_);
  return pe;
}

real minimize(System& system, const ForceFn& forces, int max_steps,
              real initial_step, real f_tol, util::ThreadPool* pool) {
  static obs::Counter& force_evals = obs::counter("md.minimize.force_evals");
  static obs::Counter& rejections = obs::counter("md.minimize.rejections");
  const std::size_t n = system.size();
  const std::size_t block = detail::kernel_block(n);
  std::vector<real> block_max2(util::block_count(n, block));
  // The state a rejected trial returns to: the trial writes fresh buffers
  // and these keep the accepted positions and their forces.
  std::vector<Vec3> saved_pos, saved_force;

  real step_size = initial_step;
  real energy = refresh_forces(system, forces);
  force_evals.inc();
  for (int iter = 0; iter < max_steps; ++iter) {
    // Max is exact, so per-block maxima give the serial scan's answer.
    util::for_blocks(pool, n, block, [&](std::size_t lo, std::size_t hi) {
      real m = 0;
      for (std::size_t i = lo; i < hi; ++i)
        m = std::max(m, system.force[i].norm2());
      block_max2[lo / block] = m;
    });
    real f_max2 = 0;
    for (const real m : block_max2) f_max2 = std::max(f_max2, m);
    const real f_max = std::sqrt(f_max2);
    if (f_max < f_tol) break;

    saved_pos.swap(system.pos);
    saved_force.swap(system.force);
    system.pos.resize(n);
    system.force.resize(n);
    // Displace along forces, capping the largest move at step_size.
    const real scale = step_size / f_max;
    for_particles(pool, n, [&](std::size_t i) {
      system.pos[i] = system.box.wrap(saved_pos[i] + scale * saved_force[i]);
    });

    const real new_energy = refresh_forces(system, forces);
    force_evals.inc();
    if (new_energy < energy) {
      energy = new_energy;
      step_size = std::min(step_size * 1.2, initial_step * 10);
    } else {
      system.pos.swap(saved_pos);
      system.force.swap(saved_force);
      rejections.inc();
      step_size *= 0.5;
      if (step_size < 1e-8) break;
    }
  }
  return energy;
}

}  // namespace mummi::md
