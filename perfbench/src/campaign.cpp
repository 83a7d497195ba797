// campaign_steady and campaign_churn: the coordination plane end to end,
// through wm::Campaign::run. Per-layer numbers come from the spans and
// counters the library already records (wm.*, sched.*, fault.*, supervise.*).

#include <cmath>
#include <filesystem>

#include "common.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"
#include "wm/campaign.hpp"

namespace perfbench {
namespace {

using namespace mummi;

/// Set-ups measured per run; set-up is sub-millisecond here, so the median
/// of many samples is what keeps it steady.
constexpr int kSetupReps = 51;
constexpr int kMinTimedReps = 3;

wm::CampaignConfig make_config(const Options& opt, bool churn) {
  wm::CampaignConfig cfg;
  cfg.seed = mix_seed(opt.seed, 1);
  cfg.proteins_per_snapshot = 150;
  if (!churn) {
    // One 250-node, 12 h allocation: thousands of CG sims per tick at the
    // plateau, no checkpoints, no faults.
    cfg.runs = {{250, 12, 1}};
    return cfg;
  }
  // Twelve short 4000-node allocations: allocation start-up, the big
  // resource graph and whole-state checkpoints every 300 s of virtual time,
  // under node crashes, hangs and stragglers with supervision on.
  cfg.runs = {{4000, 1, 12}};
  cfg.checkpoint_interval_s = 300;
  cfg.checkpoint_path = opt.work_dir + "/churn.ckpt";
  cfg.supervise.enabled = true;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.hang_burst = 2;
  cfg.faults.straggler_rate_per_h = 6.0;
  cfg.faults.straggler_burst = 2;
  cfg.faults.straggler_factor = 4.0;
  cfg.faults.seed = mix_seed(opt.seed, 2);
  return cfg;
}

/// A leftover checkpoint would make the next Campaign resume from it.
void clear_checkpoints(const Options& opt) {
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
}

struct Run {
  double wall_s = 0;
  std::uint64_t fingerprint = 0;
  double node_hours = 0;
  double analyses = 0;  // in-situ sim analyses over all maintain ticks
};

Run run_once(const Options& opt, wm::CampaignConfig cfg,
             util::ThreadPool& pool) {
  cfg.insitu_pool = &pool;
  clear_checkpoints(opt);
  wm::Campaign campaign(cfg);
  const auto t0 = Clock::now();
  const wm::CampaignResult result = campaign.run();
  Run run;
  run.wall_s = since(t0);
  const util::Bytes fp = result.science_fingerprint();
  run.fingerprint = util::fnv1a(fp.data(), fp.size());
  run.node_hours = result.node_hours;
  for (const std::uint32_t n : result.tick_sims) run.analyses += n;
  return run;
}

void end_to_end(const Options& opt, const wm::CampaignConfig& cfg,
                Outcome& out) {
  const std::size_t n = pool_size();
  // Set-up: spawn the worker pool and construct the campaign. Measured first,
  // while the process has no other threads, so that no pool is spawned and
  // torn down between timed runs.
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    util::ThreadPool fresh(n);
    fresh.submit([] {}).get();  // workers spawn lazily; make them exist
    auto c = cfg;
    c.insitu_pool = &fresh;
    wm::Campaign campaign(c);
    setup.push_back(since(t0));
  }

  util::ThreadPool serial(1);
  util::ThreadPool pool(n);
  // The pool-size-1 reference fingerprint for this seed (also warms caches).
  const std::uint64_t reference = run_once(opt, cfg, serial).fingerprint;

  std::vector<double> ms_per_node_hour, analyses_per_s;
  const auto start = Clock::now();
  while (static_cast<int>(ms_per_node_hour.size()) < kMinTimedReps ||
         since(start) < opt.seconds) {
    const Run run = run_once(opt, cfg, pool);
    out.check(run.fingerprint == reference);
    ms_per_node_hour.push_back(run.wall_s * 1e3 / run.node_hours);
    analyses_per_s.push_back(run.analyses / run.wall_s);
  }
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("wall_ms_per_unit", median(ms_per_node_hour), "ms");
  out.add("work_rate_per_s", median(analyses_per_s), "1/s");
  out.detail("wall_ms_per_node_hour", median(ms_per_node_hour), "ms");
  out.detail("sim_ticks_per_s", median(analyses_per_s), "1/s");
  out.detail("timed_campaigns", static_cast<double>(ms_per_node_hour.size()),
             "count");
}

/// One traced campaign: layer times from the spans, counters from the
/// registry, both reset right before the run.
struct Traced {
  Run run;
  LayerTimes layers;
  std::map<std::string, double> counters;
};

Traced traced_once(const Options& opt, const wm::CampaignConfig& cfg,
                   util::ThreadPool& pool) {
  reset_telemetry(true);
  Traced t;
  t.run = run_once(opt, cfg, pool);
  t.layers = collect_layers();
  for (const char* name :
       {"wm.tick.fold_ns", "wm.checkpoints", "wm.submitted",
        "sched.match.first-match.visits", "sched.match.first-match.attempts",
        "sched.started", "sched.failed", "fault.injected", "fault.jobs_killed",
        "supervise.hangs_detected", "supervise.speculations"})
    t.counters[name] = counter_value(name);
  reset_telemetry(false);
  return t;
}

void per_layer(const Options& opt, const wm::CampaignConfig& cfg, bool churn,
               Outcome& out) {
  const std::size_t n = pool_size();
  util::ThreadPool serial(1);
  util::ThreadPool pool(n);
  const auto start = Clock::now();

  // Measured scaling: the same traced campaign at 1 worker, then at nproc.
  const Traced one = traced_once(opt, cfg, serial);
  const std::uint64_t reference = one.run.fingerprint;

  std::vector<double> untraced;
  while (untraced.size() < 2 || since(start) < 0.5 * opt.seconds) {
    const Run run = run_once(opt, cfg, pool);
    out.check(run.fingerprint == reference);
    untraced.push_back(run.wall_s);
  }
  std::vector<Traced> traced;
  while (traced.empty() || since(start) < opt.seconds) {
    traced.push_back(traced_once(opt, cfg, pool));
    out.check(traced.back().run.fingerprint == reference);
  }

  // Times: median over traced runs; counters: deterministic per seed, so
  // any run's value is every run's value.
  auto med = [&](auto get) {
    std::vector<double> v;
    for (const Traced& t : traced) v.push_back(get(t));
    return median(v);
  };
  auto self = [&](const char* name) {
    return med([&](const Traced& t) { return t.layers.at(name).self_ms; });
  };
  auto total = [&](const char* name) {
    return med([&](const Traced& t) { return t.layers.at(name).total_ms; });
  };
  const auto& counters = traced.back().counters;
  const double wall_ms = med([](const Traced& t) { return t.run.wall_s * 1e3; });
  const double untraced_ms = med([](const Traced& t) {
    return t.run.wall_s * 1e3 - t.layers.top_level_ms;
  });
  const double tick_self = self("wm.tick");
  const double checkpoint_ms = total("wm.checkpoint");

  out.add("wm.tick.self_ms", tick_self, "ms");
  out.add("wm.tick.fold_ms", counters.at("wm.tick.fold_ns") * 1e-6, "ms");
  out.add("wm.tick.p50_ms", med([](const Traced& t) {
            return median(t.layers.at("wm.tick").durations_ms);
          }), "ms");
  out.add("wm.tick.p95_ms", med([](const Traced& t) {
            return quantile(t.layers.at("wm.tick").durations_ms, 0.95);
          }), "ms");
  out.add("wm.tick.speedup_at_nproc",
          tick_self > 0 ? one.layers.at("wm.tick").self_ms / tick_self : 0.0,
          "x");
  out.add("wm.checkpoint_ms", checkpoint_ms, "ms");
  out.add("wm.checkpoint.p50_ms", med([](const Traced& t) {
            return median(t.layers.at("wm.checkpoint").durations_ms);
          }), "ms");
  out.add("wm.checkpoints", counters.at("wm.checkpoints"), "count");
  out.add("wm.maintain.self_ms", self("wm.maintain"), "ms");
  out.add("wm.submitted", counters.at("wm.submitted"), "count");
  out.add("wm.untraced_ms", untraced_ms, "ms");
  out.add("wm.select.patch_ms", total("wm.select.patch"), "ms");
  out.add("wm.select.frame_ms", total("wm.select.frame"), "ms");
  out.add("sched.match.first.visits",
          counters.at("sched.match.first-match.visits"), "count");
  out.add("sched.match.first.attempts",
          counters.at("sched.match.first-match.attempts"), "count");
  out.add("sched.started", counters.at("sched.started"), "count");
  out.add("sched.failed", counters.at("sched.failed"), "count");
  for (const char* name : {"fault.injected", "fault.jobs_killed",
                           "supervise.hangs_detected", "supervise.speculations"})
    out.add(name, counters.at(name), "count");
  out.add("obs.overhead_frac", wall_ms / median(untraced) / 1e3 - 1.0,
          "ratio");
  out.add("obs.dark_frac", untraced_ms / wall_ms, "ratio");
  out.add("obs.traced_wall_ms", wall_ms, "ms");

  // Layer accounting: every span's self time plus the untraced remainder
  // must give back the traced wall, in each traced run.
  for (const Traced& t : traced) {
    const double w = t.run.wall_s * 1e3;
    const double accounted =
        t.layers.self_sum_ms() + (w - t.layers.top_level_ms);
    out.check(std::abs(accounted - w) <= 0.01 * w);
  }

  if (!churn) {
    const double share = tick_self / wall_ms;
    out.add("layer.dominant_share", share, "ratio");
    out.notes.push_back(
        std::string("dominant layer wm.tick self (fold included): ") +
        std::to_string(share) + " of wall, checkpoint_ms " +
        std::to_string(checkpoint_ms) +
        (share >= 0.8 && checkpoint_ms == 0 ? " -> confirmed" : " -> NOT met"));
    return;
  }
  const double share = checkpoint_ms / wall_ms;
  bool largest = true;
  for (const auto& [name, row] : traced.back().layers.rows)
    if (name != "wm.checkpoint" &&
        row.self_ms > traced.back().layers.at("wm.checkpoint").self_ms)
      largest = false;
  out.add("layer.dominant_share", share, "ratio");
  out.notes.push_back(std::string("dominant layer wm.checkpoint: ") +
                      std::to_string(share) + " of wall, largest named layer: " +
                      (largest ? "yes -> confirmed" : "no -> NOT met"));
}

}  // namespace

Outcome run_campaign(const Options& opt, bool churn) {
  const wm::CampaignConfig cfg = make_config(opt, churn);
  Outcome out;
  if (opt.trace)
    per_layer(opt, cfg, churn, out);
  else
    end_to_end(opt, cfg, out);
  std::filesystem::remove_all(opt.work_dir);
  return out;
}

}  // namespace perfbench
