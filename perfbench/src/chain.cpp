// multiscale_chain: real physics at toy scale, driven serially through the
// coupling chain one cycle at a time — continuum step, patch cut, encode,
// CG build, CG MD with in-situ analysis, RDF publish, backmap, AA MD with
// secondary-structure analysis, CG-to-continuum feedback. The benchmark's
// own timers around each public call give the per-layer numbers.

#include <cmath>
#include <memory>

#include "common.hpp"
#include "continuum/gridsim2d.hpp"
#include "coupling/analysis.hpp"
#include "coupling/backmap.hpp"
#include "coupling/createsim.hpp"
#include "coupling/encoders.hpp"
#include "coupling/patch.hpp"
#include "datastore/red_store.hpp"
#include "feedback/cg2cont.hpp"
#include "mdengine/integrator.hpp"
#include "mdengine/simulation.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace mummi;

constexpr int kCyclesPerChain = 2;
constexpr int kContinuumSteps = 10;
constexpr long kCgSteps = 200;
constexpr int kCgFrameInterval = 20;
constexpr double kCgDtPs = 0.02;
constexpr long kAaSteps = 60;
constexpr int kAaFrameInterval = 15;
constexpr double kAaDtPs = 0.002;
constexpr int kMinChains = 3;

/// Wall milliseconds of each stage of one cycle.
struct CycleTimes {
  double continuum = 0, patch_create = 0, encode = 0, createsim = 0;
  double cg_md = 0, cg_analyze = 0, publish = 0, backmap = 0;
  double aa_md = 0, aa_analyze = 0, feedback = 0, feedback_frames = 0;
  double cycle = 0;  // the whole cycle
  double timed = 0;  // sum of the stages above
};

double ms_since(Clock::time_point t0) { return since(t0) * 1e3; }

/// Everything the chain constructs before its first cycle. One Chain is one
/// set-up; its cycles are the timed calls.
class Chain {
 public:
  Chain(std::uint64_t seed, util::ThreadPool* pool)
      : seed_(seed),
        pool_(pool),
        continuum_(continuum_config(seed, pool)),
        creator_(37, 30.0),
        encoder_(continuum_.n_species(), mix_seed(seed, 3)),
        store_(std::make_shared<ds::RedStore>(4)),
        feedback_(store_, &continuum_),
        rng_(mix_seed(seed, 4)) {
    cg_cfg_.pool = pool;
    aa_cfg_.pool = pool;
  }

  CycleTimes cycle() {
    CycleTimes t;
    const auto c0 = Clock::now();

    auto s = Clock::now();
    continuum_.step(kContinuumSteps);
    t.continuum = ms_since(s);

    s = Clock::now();
    const auto patches = creator_.create(continuum_.snapshot(), next_patch_id_);
    t.patch_create = ms_since(s);

    // Encode every patch; the most novel (largest embedding norm) goes on.
    s = Clock::now();
    std::size_t pick = 0;
    double best = -1;
    for (std::size_t i = 0; i < patches.size(); ++i) {
      double norm = 0;
      for (const float x : encoder_.encode(patches[i])) norm += double(x) * x;
      if (norm > best) {
        best = norm;
        pick = i;
      }
    }
    t.encode = ms_since(s);
    const coupling::Patch& patch = patches.at(pick);

    s = Clock::now();
    coupling::CgSystemInfo cg = coupling::CreateSim(cg_cfg_).build(patch, rng_);
    t.createsim = ms_since(s);

    coupling::CgAnalysis analysis(cg, patch.id);
    md::SimulationConfig cg_sim_cfg;
    cg_sim_cfg.dt = kCgDtPs;
    cg_sim_cfg.frame_interval = kCgFrameInterval;
    cg_sim_cfg.pool = pool_;
    md::Simulation cg_sim(
        cg.system,
        coupling::make_cg_forcefield(static_cast<int>(cg.heads_by_species.size())),
        std::make_unique<md::Langevin>(310.0, 2.0,
                                       util::Rng(mix_seed(seed_, patch.id))),
        cg_sim_cfg);
    cg_sim.on_frame([&](const md::System& sys, long step, md::real) {
      const auto a = Clock::now();
      (void)analysis.analyze(sys, step);
      t.cg_analyze += ms_since(a);
    });
    s = Clock::now();
    cg_sim.run(kCgSteps);
    t.cg_md = ms_since(s) - t.cg_analyze;

    s = Clock::now();
    fb::FeedbackRecord record;
    record.state = patch.center_state();
    record.rdfs = analysis.take_rdfs();
    store_->put("rdf-pending", "sim-" + std::to_string(patch.id),
                record.serialize());
    t.publish = ms_since(s);

    cg.system = cg_sim.system();
    s = Clock::now();
    coupling::AaSystemInfo aa = coupling::Backmapper(aa_cfg_).build(cg, rng_);
    t.backmap = ms_since(s);

    coupling::AaAnalysis aa_analysis(aa.backbone, patch.id);
    md::SimulationConfig aa_sim_cfg;
    aa_sim_cfg.dt = kAaDtPs;
    aa_sim_cfg.frame_interval = kAaFrameInterval;
    aa_sim_cfg.pool = pool_;
    md::Simulation aa_sim(aa.system, coupling::make_aa_forcefield(),
                          std::make_unique<md::Langevin>(
                              310.0, 5.0,
                              util::Rng(mix_seed(seed_, patch.id + 1000003))),
                          aa_sim_cfg);
    aa_sim.on_frame([&](const md::System& sys, long, md::real) {
      const auto a = Clock::now();
      patterns_ += aa_analysis.analyze(sys);
      t.aa_analyze += ms_since(a);
    });
    s = Clock::now();
    aa_sim.run(kAaSteps);
    t.aa_md = ms_since(s) - t.aa_analyze;
    // Positions and velocities only: System::serialize() also copies the
    // padding bytes inside md::Angle, which are not part of the state.
    const md::System& aa_state = aa_sim.system();
    aa_hash_ = hash_bytes(aa_state.pos.data(),
                          aa_state.pos.size() * sizeof(md::Vec3), aa_hash_);
    aa_hash_ = hash_bytes(aa_state.vel.data(),
                          aa_state.vel.size() * sizeof(md::Vec3), aa_hash_);

    s = Clock::now();
    t.feedback_frames = static_cast<double>(feedback_.iterate().frames);
    t.feedback = ms_since(s);

    t.cycle = ms_since(c0);
    t.timed = t.continuum + t.patch_create + t.encode + t.createsim + t.cg_md +
              t.cg_analyze + t.publish + t.backmap + t.aa_md + t.aa_analyze +
              t.feedback;
    return t;
  }

  /// Hash of the final continuum snapshot, every AA end state and the
  /// secondary-structure patterns seen along the way.
  [[nodiscard]] std::uint64_t digest() const {
    const util::Bytes snap = continuum_.snapshot().serialize();
    const std::uint64_t h = hash_bytes(snap.data(), snap.size(), aa_hash_);
    return hash_bytes(patterns_.data(), patterns_.size(), h);
  }

 private:
  static cont::ContinuumConfig continuum_config(std::uint64_t seed,
                                                util::ThreadPool* pool) {
    cont::ContinuumConfig cfg;  // 192 x 192 grid, 14 species, 30 proteins
    cfg.seed = mix_seed(seed, 5);
    cfg.pool = pool;
    return cfg;
  }

  std::uint64_t seed_;
  util::ThreadPool* pool_;
  cont::GridSim2D continuum_;
  coupling::PatchCreator creator_;
  coupling::PatchEncoder encoder_;
  std::shared_ptr<ds::RedStore> store_;
  fb::CgToContinuumFeedback feedback_;
  util::Rng rng_;
  coupling::CgBuildConfig cg_cfg_;
  coupling::AaBuildConfig aa_cfg_;
  std::uint64_t next_patch_id_ = 1;
  std::uint64_t aa_hash_ = 0;
  std::string patterns_;
};

/// One chain from set-up to digest.
struct ChainRun {
  double setup_s = 0;  // constructing the Chain
  std::vector<CycleTimes> cycles;
  std::uint64_t digest = 0;
  double md_pairs = 0, nlist_rebuilds = 0, cont_cells = 0;

  [[nodiscard]] double mean(double CycleTimes::*field) const {
    double sum = 0;
    for (const auto& c : cycles) sum += c.*field;
    return sum / static_cast<double>(cycles.size());
  }
};

ChainRun run_chain_once(std::uint64_t seed, util::ThreadPool* pool,
                        bool traced) {
  reset_telemetry(traced);
  ChainRun run;
  const auto t0 = Clock::now();
  Chain chain(seed, pool);
  run.setup_s = since(t0);
  for (int c = 0; c < kCyclesPerChain; ++c) run.cycles.push_back(chain.cycle());
  run.digest = chain.digest();
  run.md_pairs = counter_value("md.force.pairs");
  run.nlist_rebuilds = counter_value("md.nlist.rebuilds");
  run.cont_cells = counter_value("cont.step.cells");
  reset_telemetry(false);
  return run;
}

double cg_ns_per_day(double cg_md_ms) {
  return kCgSteps * kCgDtPs * 1e-3 / (cg_md_ms * 1e-3) * 86400.0;
}
double aa_ns_per_day(double aa_md_ms) {
  return kAaSteps * kAaDtPs * 1e-3 / (aa_md_ms * 1e-3) * 86400.0;
}

template <typename F>
double med_over(const std::vector<ChainRun>& runs, F get) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(get(r));
  return median(v);
}

void end_to_end(const Options& opt, Outcome& out) {
  util::ThreadPool serial(1);
  util::ThreadPool pool(pool_size());
  // Reference digest at pool size 1; every timed chain must reproduce it.
  const std::uint64_t reference = run_chain_once(opt.seed, &serial, false).digest;

  std::vector<ChainRun> runs;
  const auto start = Clock::now();
  while (static_cast<int>(runs.size()) < kMinChains ||
         since(start) < opt.seconds) {
    runs.push_back(run_chain_once(opt.seed, &pool, false));
    out.check(runs.back().digest == reference);
  }
  const double cycle_ms =
      med_over(runs, [](const ChainRun& r) { return r.mean(&CycleTimes::cycle); });
  const double cg_md_ms =
      med_over(runs, [](const ChainRun& r) { return r.mean(&CycleTimes::cg_md); });
  const double aa_md_ms =
      med_over(runs, [](const ChainRun& r) { return r.mean(&CycleTimes::aa_md); });
  const double cont_ms = med_over(
      runs, [](const ChainRun& r) { return r.mean(&CycleTimes::continuum); });

  out.add("setup_s", med_over(runs, [](const ChainRun& r) { return r.setup_s; }),
          "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("wall_ms_per_unit", cycle_ms, "ms");
  out.add("work_rate_per_s", kCgSteps / (cg_md_ms * 1e-3), "1/s");
  out.detail("cycles_per_min", 60e3 / cycle_ms, "1/min");
  out.detail("cg_ns_per_day", cg_ns_per_day(cg_md_ms), "ns/day");
  out.detail("aa_ns_per_day", aa_ns_per_day(aa_md_ms), "ns/day");
  out.detail("continuum_steps_per_s", kContinuumSteps / (cont_ms * 1e-3), "1/s");
  out.detail("timed_cycles",
             static_cast<double>(runs.size() * kCyclesPerChain), "count");
}

void per_layer(const Options& opt, Outcome& out) {
  util::ThreadPool serial(1);
  util::ThreadPool pool(pool_size());
  const auto start = Clock::now();

  // Measured scaling: the same traced chain at 1 worker, then at nproc.
  const ChainRun one = run_chain_once(opt.seed, &serial, true);
  std::vector<double> untraced;
  while (untraced.size() < 1 || since(start) < 0.5 * opt.seconds) {
    const ChainRun run = run_chain_once(opt.seed, &pool, false);
    out.check(run.digest == one.digest);
    untraced.push_back(run.mean(&CycleTimes::cycle));
  }
  std::vector<ChainRun> runs;
  while (runs.empty() || since(start) < opt.seconds) {
    runs.push_back(run_chain_once(opt.seed, &pool, true));
    out.check(runs.back().digest == one.digest);
  }

  auto stage = [&](double CycleTimes::*field) {
    return med_over(runs, [&](const ChainRun& r) { return r.mean(field); });
  };
  const double cycle_ms = stage(&CycleTimes::cycle);
  const double cg_md = stage(&CycleTimes::cg_md);
  const double aa_md = stage(&CycleTimes::aa_md);
  const double createsim = stage(&CycleTimes::createsim);
  const double backmap = stage(&CycleTimes::backmap);
  const double cont = stage(&CycleTimes::continuum);
  const double md_build_ms = cg_md + aa_md + createsim + backmap;
  const ChainRun& last = runs.back();
  const double cycles = kCyclesPerChain;

  out.add("md.cg_run_ms", cg_md, "ms");
  out.add("md.aa_run_ms", aa_md, "ms");
  out.add("md.pairs_per_s", last.md_pairs / cycles / (md_build_ms * 1e-3),
          "1/s");
  out.add("md.nlist.rebuilds", last.nlist_rebuilds / cycles, "count");
  out.add("md.speedup_at_nproc",
          (one.mean(&CycleTimes::cg_md) + one.mean(&CycleTimes::aa_md)) /
              (cg_md + aa_md),
          "x");
  out.add("md.cg_ns_per_day", cg_ns_per_day(cg_md), "ns/day");
  out.add("md.aa_ns_per_day", aa_ns_per_day(aa_md), "ns/day");
  out.add("coupling.createsim_ms", createsim, "ms");
  out.add("coupling.backmap_ms", backmap, "ms");
  out.add("coupling.patch_create_ms", stage(&CycleTimes::patch_create), "ms");
  out.add("coupling.encode_ms", stage(&CycleTimes::encode), "ms");
  out.add("coupling.cg_analyze_ms", stage(&CycleTimes::cg_analyze), "ms");
  out.add("continuum.step_ms", cont / kContinuumSteps, "ms");
  out.add("continuum.cells_per_s", last.cont_cells / cycles / (cont * 1e-3),
          "1/s");
  out.add("continuum.speedup_at_nproc",
          one.mean(&CycleTimes::continuum) / cont, "x");
  out.add("feedback.iterate_ms", stage(&CycleTimes::feedback), "ms");
  out.add("feedback.frames", stage(&CycleTimes::feedback_frames), "count");
  out.add("obs.overhead_frac", cycle_ms / median(untraced) - 1.0, "ratio");
  const double timed_ms = stage(&CycleTimes::timed);
  out.add("obs.dark_frac", 1.0 - timed_ms / cycle_ms, "ratio");
  out.add("obs.traced_wall_ms", cycle_ms * cycles, "ms");
  const double share = md_build_ms / cycle_ms;
  out.add("layer.dominant_share", share, "ratio");
  out.notes.push_back("dominant layer md run + coupling build: " +
                      std::to_string(share) + " of cycle wall" +
                      (share >= 0.8 ? " -> confirmed" : " -> NOT met"));
}

}  // namespace

Outcome run_chain(const Options& opt) {
  Outcome out;
  if (opt.trace)
    per_layer(opt, out);
  else
    end_to_end(opt, out);
  return out;
}

}  // namespace perfbench
