#include "mdengine/simulation.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {

util::ThreadPool* default_md_pool() { return util::env_shared_pool(); }

Simulation::Simulation(System system, std::shared_ptr<const ForceField> ff,
                       std::unique_ptr<Integrator> integrator,
                       SimulationConfig config)
    : system_(std::move(system)),
      ff_(std::move(ff)),
      integrator_(std::move(integrator)),
      config_(config),
      pool_(config.pool != nullptr ? config.pool : default_md_pool()),
      neighbors_(ff_->cutoff(), config.skin) {
  MUMMI_CHECK(ff_ != nullptr && integrator_ != nullptr);
  integrator_->set_pool(pool_);
  if (config_.checkpoint_interval > 0)
    MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(),
                    "checkpointing enabled without a path");
}

void Simulation::set_restraints(Restraints restraints) {
  restraints_ = std::move(restraints);
  have_restraints_ = true;
}

void Simulation::clear_restraints() {
  restraints_ = Restraints{};
  have_restraints_ = false;
}

ForceFn Simulation::force_fn() {
  return [this](System& s) {
    ensure_neighbors();
    real pe = ff_->compute(s, neighbors_, pool_);
    pe += compute_bonded(s, pool_);
    if (have_restraints_) pe += restraints_.compute(s);
    return pe;
  };
}

void Simulation::ensure_neighbors() {
  if (neighbors_.needs_rebuild(system_, pool_)) {
    neighbors_.build(system_, pool_);
    ++rebuilds_;
  }
}

void Simulation::run(long nsteps) {
  const ForceFn forces = force_fn();
  for (long n = 0; n < nsteps; ++n) {
    last_pe_ = integrator_->step(system_, forces, config_.dt);
    ++step_;
    if (config_.frame_interval > 0 && step_ % config_.frame_interval == 0 &&
        frame_fn_)
      frame_fn_(system_, step_, last_pe_);
    if (config_.checkpoint_interval > 0 &&
        step_ % config_.checkpoint_interval == 0)
      checkpoint();
  }
}

real Simulation::minimize_energy(int max_steps, real f_tol) {
  last_pe_ = minimize(system_, force_fn(), max_steps, 0.01, f_tol, pool_);
  return last_pe_;
}

void Simulation::checkpoint() const {
  MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(), "no checkpoint path");
  util::ByteWriter w;
  w.i64(step_);
  w.f64(last_pe_);
  w.bytes(system_.serialize());
  util::CheckpointFile(config_.checkpoint_path).save(w.data());
}

bool Simulation::restore() {
  MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(), "no checkpoint path");
  auto payload = util::CheckpointFile(config_.checkpoint_path).load();
  if (!payload) return false;
  util::ByteReader r(*payload);
  step_ = r.i64();
  last_pe_ = r.f64();
  system_ = System::deserialize(r.bytes());
  return true;
}

}  // namespace mummi::md
