#include "wm/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "fault/fault_injector.hpp"
#include "wm/insitu.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mummi::wm {

namespace {
constexpr std::uint64_t kFrameIdBase = 1ULL << 40;  // keep ids disjoint

/// Files written per CG trajectory frame (frame + analysis sidecars);
/// calibrated so the full campaign lands near the paper's 1.03B files.
constexpr double kFilesPerCgFrame = 5.0;

constexpr std::uint32_t kCheckpointVersion = 3;  // v3: in-situ accumulators

/// A save folds the journal into a new base once the journal holds more than
/// this fraction of the base's bytes: replay then never costs more than
/// half a base, and a base is rewritten at most every few saves.
constexpr double kJournalCompactFraction = 0.5;

void write_str_list(util::ByteWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const auto& s : v) w.str(s);
}

std::vector<std::string> read_str_list(util::ByteReader& r) {
  std::vector<std::string> v(r.u64());
  for (auto& s : v) s = r.str();
  return v;
}

void write_supervision(util::ByteWriter& w,
                       const supervise::SupervisionStats& s) {
  w.u64(s.hangs_detected);
  w.u64(s.speculations);
  w.u64(s.spec_wins);
  w.u64(s.spec_losses);
  w.u64(s.quarantined);
  w.u64(s.node_probations);
  w.u64(s.canaries_ok);
  w.u64(s.canaries_failed);
  w.u64(s.shed_transitions);
  w.f64(s.degraded_time_s);
  w.f64(s.first_quarantine_s);
}

supervise::SupervisionStats read_supervision(util::ByteReader& r) {
  supervise::SupervisionStats s;
  s.hangs_detected = r.u64();
  s.speculations = r.u64();
  s.spec_wins = r.u64();
  s.spec_losses = r.u64();
  s.quarantined = r.u64();
  s.node_probations = r.u64();
  s.canaries_ok = r.u64();
  s.canaries_failed = r.u64();
  s.shed_transitions = r.u64();
  s.degraded_time_s = r.f64();
  s.first_quarantine_s = r.f64();
  return s;
}

void write_u64_list(util::ByteWriter& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.u64(x);
}

std::vector<std::uint64_t> read_u64_list(util::ByteReader& r) {
  std::vector<std::uint64_t> v(r.u64());
  for (auto& x : v) x = r.u64();
  return v;
}

// std::pair is not trivially copyable, so the perf samples get explicit
// element-wise framing instead of ByteWriter::vec.
void write_pairs(util::ByteWriter& w,
                 const std::vector<std::pair<double, double>>& v) {
  w.u64(v.size());
  for (const auto& [a, b] : v) {
    w.f64(a);
    w.f64(b);
  }
}

std::vector<std::pair<double, double>> read_pairs(util::ByteReader& r) {
  std::vector<std::pair<double, double>> v(r.u64());
  for (auto& [a, b] : v) {
    a = r.f64();
    b = r.f64();
  }
  return v;
}
}  // namespace

util::Bytes CampaignResult::science_fingerprint() const {
  util::ByteWriter w;
  w.u64(table1.size());
  for (const auto& row : table1) {
    w.u64(static_cast<std::uint64_t>(row.nodes));
    w.f64(row.walltime_h);
    w.u64(static_cast<std::uint64_t>(row.count));
  }
  w.f64(node_hours);
  w.u64(snapshots);
  w.u64(patches_created);
  w.u64(patches_selected);
  w.u64(frame_candidates);
  w.u64(frames_selected);
  w.f64(continuum_total_us);
  w.f64(cg_total_us);
  w.f64(aa_total_ns);
  w.vec(cg_lengths_us);
  w.vec(aa_lengths_ns);
  w.vec(continuum_ms_per_day);
  write_pairs(w, cg_perf);
  write_pairs(w, aa_perf);
  w.f64(ledger.bytes_continuum);
  w.f64(ledger.bytes_patches);
  w.f64(ledger.bytes_cg_frames);
  w.f64(ledger.bytes_cg_analysis);
  w.f64(ledger.bytes_aa_frames);
  w.f64(ledger.bytes_backmap);
  w.u64(ledger.files_total);
  w.u64(faults_injected);
  w.u64(fault_jobs_killed);
  write_supervision(w, supervision);
  write_str_list(w, supervision_log);
  write_str_list(w, quarantined);
  w.u64(analysis_frames);
  w.bytes(rdf_feedback.serialize());
  return std::move(w).take();
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  next_frame_id_ = kFrameIdBase;
}

Campaign::~Campaign() = default;

Campaign::LogicalSim& Campaign::logical_sim(std::uint64_t payload, bool is_aa,
                                            bool degraded) {
  auto it = sims_.find(payload);
  if (it != sims_.end()) return it->second;
  LogicalSim ls;
  ls.is_aa = is_aa;
  if (is_aa) {
    const auto sample = config_.perf.sample_aa(rng_);
    ls.rate_per_s = sample.ns_per_second();
    ls.size = sample.atoms;
    ls.target = rng_.uniform(config_.aa_min_ns, config_.aa_max_ns);
  } else {
    const auto sample = config_.perf.sample_cg(rng_, degraded);
    ls.rate_per_s = sample.us_per_second();
    ls.size = sample.particles;
    ls.target = std::min(
        config_.cg_max_us,
        config_.cg_min_us +
            rng_.exponential(1.0 / (config_.cg_mean_us - config_.cg_min_us)));
  }
  return sims_.emplace(payload, ls).first->second;
}

void Campaign::run_one(int nodes, double walltime_h, CampaignResult& result,
                       WorkflowManager::CarryOver& carry,
                       double& campaign_hours_done,
                       double campaign_hours_total) {
  const double walltime_s = walltime_h * 3600.0;
  const double t_offset = campaign_hours_done * 3600.0;

  event::SimEngine engine;
  sched::Scheduler scheduler(sched::ClusterSpec::summit(nodes),
                             config_.match_policy, engine.clock());
  sched::QueueManager queue(engine, scheduler, config_.queue);
  QueuedBackend maestro(scheduler, queue);

  // Job trackers for the four application job types + the continuum.
  TrackerSet trackers;
  auto add_tracker = [&](const std::string& type, int cores, int gpus,
                         double mean_s, double sigma_s) {
    JobTypeConfig cfg;
    cfg.type = type;
    cfg.request.slot = sched::Slot{cores, gpus};
    cfg.mean_duration = mean_s;
    cfg.sigma_duration = sigma_s;
    trackers.add(std::make_unique<JobTracker>(cfg));
  };
  // Setup durations are lognormal(sigma=0.25 in log space); ~0.25*mean is the
  // absolute spread the watchdog deadlines are derived from.
  add_tracker("cg_setup", 24, 0, config_.perf.createsim_mean_s,
              0.25 * config_.perf.createsim_mean_s);
  add_tracker("cg_sim", 3, 1, 86400, 0.25 * 86400);
  add_tracker("aa_setup", 18, 0, config_.perf.backmap_mean_s,
              0.25 * config_.perf.backmap_mean_s);
  add_tracker("aa_sim", 3, 1, 86400, 0.25 * 86400);

  const int continuum_nodes =
      std::max(1, std::min(config_.continuum_nodes_max, nodes / 4));
  const int continuum_cores =
      continuum_nodes * config_.continuum_cores_per_node;

  // --- fault injection (Sec. 4.4) ------------------------------------------
  // Each run draws its own plan; the seed mixes the flat run index so the
  // whole campaign (and any crash-restart continuation) stays deterministic.
  fault::FaultPlan fault_plan;
  if (!config_.faults.empty()) {
    fault::FaultSpec spec = config_.faults;
    spec.seed ^= 0x9e3779b97f4a7c15ULL * (flat_run_ + 1);
    fault_plan = fault::FaultPlan::generate(spec, walltime_s, nodes,
                                            /*n_shards=*/0);
  }
  fault::FaultInjector injector(std::move(fault_plan));
  injector.bind_scheduler(&scheduler);
  // Armed below, once the executor exists — hang/straggler faults target it.

  // --- per-run state -------------------------------------------------------
  bool continuum_running = false;
  const bool degraded =
      campaign_hours_done / campaign_hours_total <
      config_.degraded_until_fraction;

  // Selectors persist across the campaign.
  static_assert(cont::kNumProteinStates == 4, "queue routing assumes 4 states");

  // Campaign-level accounting must see completions *before* the WM resubmits
  // failed jobs (so remaining-duration models read fresh progress), hence it
  // registers first.
  auto finish_sim = [&](std::uint64_t payload, const LogicalSim& ls) {
    if (ls.is_aa) {
      result.aa_lengths_ns.push_back(ls.progress);
      result.aa_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
      result.aa_total_ns += ls.progress;
    } else {
      result.cg_lengths_us.push_back(ls.progress);
      result.cg_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
      result.cg_total_us += ls.progress;
    }
    (void)payload;
  };

  auto continuum_spec = [&] {
    sched::JobSpec spec;
    spec.name = "gridsim2d";
    spec.type = "continuum";
    spec.request.slot = sched::Slot{config_.continuum_cores_per_node, 0};
    spec.request.nslots = continuum_nodes;
    spec.request.one_slot_per_node = true;
    spec.est_duration = 2.0 * walltime_s;
    return spec;
  };

  scheduler.on_finish([&](const sched::Job& job) {
    const auto& type = job.spec.type;
    if (type == "continuum") {
      if (job.state == sched::JobState::kFailed) {
        // A node crash took the continuum down. It is untracked (no WM
        // restart policy), so the campaign itself reloads it from its
        // snapshot; fail_node() drained the dead node first, so the new
        // allocation lands elsewhere.
        continuum_running = false;
        maestro.submit(continuum_spec());
      } else if (job.state == sched::JobState::kCancelled) {
        continuum_running = false;
      }
      return;
    }
    if (type != "cg_sim" && type != "aa_sim") return;
    auto it = sims_.find(job.spec.payload);
    if (it == sims_.end()) return;
    LogicalSim& ls = it->second;
    if (job.state == sched::JobState::kCompleted) {
      ls.progress = ls.target;
      finish_sim(job.spec.payload, ls);
      sims_.erase(it);
    } else if (job.state == sched::JobState::kFailed) {
      // Crash partway: progress up to the failure point survives via the
      // 15-minute checkpoints; the WM resubmits (registered after us).
      const double elapsed = std::max(0.0, engine.now() - job.start_time);
      ls.progress = std::min(ls.target * 0.999,
                             ls.progress + ls.rate_per_s * elapsed *
                                               rng_.uniform());
    }
  });

  WorkflowManager wm(config_.wm, maestro, trackers, *patch_selector_,
                     *frame_selector_);
  if (resume_) {
    // Crash-restart: restore buffers, restart counts and both selectors from
    // the checkpoint, then line up the payloads that were in flight when it
    // was taken ahead of fresh work.
    wm.restore(resume_->wm_blob);
    // Journal records after the base: replay the selector logs in order
    // (each selection is checked against its record), then take the newest
    // record's buffers; its empty selector slots leave the replay intact.
    for (std::size_t i = 0; i < resume_->patch_logs.size(); ++i) {
      patch_selector_->replay(resume_->patch_logs[i]);
      frame_selector_->replay(resume_->frame_logs[i]);
    }
    if (!resume_->wm_tail.empty()) wm.restore(resume_->wm_tail);
    auto restored = wm.carry_over();
    for (auto it = resume_->inflight_cg.rbegin();
         it != resume_->inflight_cg.rend(); ++it)
      restored.ready_cg.push_front(*it);
    for (auto it = resume_->inflight_aa.rbegin();
         it != resume_->inflight_aa.rend(); ++it)
      restored.ready_aa.push_front(*it);
    for (auto it = resume_->inflight_cg_setup.rbegin();
         it != resume_->inflight_cg_setup.rend(); ++it)
      restored.requeued_cg_setup.push_front(*it);
    for (auto it = resume_->inflight_aa_setup.rbegin();
         it != resume_->inflight_aa_setup.rend(); ++it)
      restored.requeued_aa_setup.push_front(*it);
    wm.restore_carry_over(restored);
    resume_base_s_ = resume_->time_into_run_s;
    resume_.reset();
  } else {
    wm.restore_carry_over(carry);
    resume_base_s_ = 0;
  }
  const double hours_at_run_start =
      campaign_hours_done - resume_base_s_ / 3600.0;
  wm.on_sim_finished([&](const sched::Job& job) {
    // Terminal failures (restarts exhausted): record the partial length.
    if (job.state != sched::JobState::kFailed) return;
    auto it = sims_.find(job.spec.payload);
    if (it == sims_.end()) return;
    finish_sim(job.spec.payload, it->second);
    sims_.erase(it);
  });

  // Executor: virtual-time job durations.
  sched::SimExecutor executor(engine, rng_.split(), config_.sim_failure_prob);
  executor.set_duration_model([&](const sched::Job& job) -> double {
    const auto& type = job.spec.type;
    // Active latency spikes (GPFS/fabric congestion) stretch job durations;
    // 1.0 when no spike is live, so fault-free runs are bit-identical.
    const double stretch = injector.latency_factor(engine.now());
    if (type == "continuum") return 2.0 * walltime_s;  // cut at teardown
    if (type == "cg_setup")
      return stretch * config_.perf.sample_createsim_seconds(rng_);
    if (type == "aa_setup")
      return stretch * config_.perf.sample_backmap_seconds(rng_);
    if (type == "cg_sim" || type == "aa_sim") {
      LogicalSim& ls =
          logical_sim(job.spec.payload, type == "aa_sim", degraded);
      return std::max(1.0, stretch * (ls.target - ls.progress) / ls.rate_per_s);
    }
    return job.spec.est_duration;
  });
  scheduler.on_start([&](const sched::Job& job) {
    if (job.spec.type == "continuum") continuum_running = true;
    const sched::JobId id = job.id;
    executor.launch(job, [&, id](bool ok) {
      // A node-crash fault may have killed the job after this completion
      // event was scheduled; the stale event must not touch it.
      if (scheduler.job(id).state == sched::JobState::kRunning)
        scheduler.complete(id, ok);
      maestro.poll();
    });
  });
  injector.bind_executor(&executor);
  injector.arm(engine);

  // Poison work: a deterministic subset of payloads kills every attempt of
  // its job type — the repeat offender the quarantine ledger is keyed for.
  if (config_.poison_payload_modulus > 0)
    executor.set_poison([this](const sched::Job& job) {
      return job.spec.type == config_.poison_job_type &&
             job.spec.payload != 0 &&
             job.spec.payload % config_.poison_payload_modulus == 0;
    });

  // --- supervision plane (off by default: bit-identical figure runs) -------
  // Constructed after the WM so the winner of a speculative pair reaches the
  // workload before the supervisor cancels the loser. Watchdog deadlines come
  // from the tracker duration models; sims legitimately outlive any deadline
  // shorter than the allocation, so in practice the watchdog covers setup and
  // canary jobs within a run while hung sims are reclaimed at teardown (no
  // progress credited, payload carried to the next allocation).
  std::optional<supervise::Supervisor> supervisor;
  std::function<void()> supervise_tick;
  if (config_.supervise.enabled) {
    supervisor.emplace(scheduler, engine.clock(), wm, config_.supervise);
    for (const auto& type : trackers.types()) {
      const auto& tc = trackers.tracker(type).config();
      supervisor->set_timing(type, {tc.mean_duration, tc.sigma_duration});
    }
    supervisor->set_timing(config_.wm.canary_type,
                           {config_.wm.canary_duration_s, 0.0});
    // Latency-spike faults stretch real durations; deadlines stretch along.
    supervisor->set_duration_stretch(
        [&injector](double now) { return injector.latency_factor(now); });
    wm.set_resubmit_veto([&supervisor](const sched::Job& job) {
      return supervisor->has_live_twin(job.id);
    });
    supervise_tick = [&] {
      // Poll only when the tick actually acted (every action logs a decision
      // line): an idle supervisor must not perturb queue-service timing, so a
      // zero-fault supervised run stays bit-identical to an unsupervised one.
      const std::size_t before = supervisor->decisions().size();
      supervisor->tick(engine.now());
      if (supervisor->decisions().size() != before)
        maestro.poll();  // place any resubmits/twins/canaries right away
      engine.schedule_after(config_.supervise.tick_interval_s, supervise_tick);
    };
    engine.schedule_after(config_.supervise.tick_interval_s, supervise_tick);
  }

  // The continuum job loads first.
  maestro.submit(continuum_spec());

  // --- recurring coordination events --------------------------------------
  std::function<void()> snapshot_tick = [&] {
    if (continuum_running) {
      ++result.snapshots;
      result.continuum_total_us += 1.0;  // 1 us of model time per snapshot
      result.continuum_ms_per_day.push_back(
          config_.perf.continuum_ms_per_day(continuum_cores) *
          (1.0 + 0.03 * rng_.normal()));
      result.ledger.bytes_continuum += config_.rates.continuum_snapshot_bytes;
      result.ledger.files_total += 1;

      // Task 1: the Patch Creator cuts one patch per protein. Embeddings are
      // written straight into per-queue flat stores — the selector ingest
      // path is allocation-free end to end.
      std::vector<ml::PointStore> by_queue(
          static_cast<std::size_t>(patch_selector_->n_queues()),
          ml::PointStore(9));
      float coords[9];
      for (int p = 0; p < config_.proteins_per_snapshot; ++p) {
        const ml::PointId id = next_patch_id_++;
        // Synthetic metric-space embedding: smooth drift + noise, so novelty
        // structure exists for FPS to exploit.
        for (int d = 0; d < 9; ++d)
          coords[d] = static_cast<float>(
              std::sin(0.01 * static_cast<double>(id) + d) +
              0.3 * rng_.normal());
        const auto state = rng_.uniform_index(cont::kNumProteinStates);
        const bool multi = rng_.uniform() < 0.2;  // multi-protein patches
        const std::size_t queue = multi ? 4 : state;
        by_queue[queue].add(id, coords);
      }
      std::size_t created = 0;
      for (int q = 0; q < patch_selector_->n_queues(); ++q) {
        created += by_queue[static_cast<std::size_t>(q)].size();
        if (!by_queue[static_cast<std::size_t>(q)].empty())
          wm.ingest_patches(q, by_queue[static_cast<std::size_t>(q)]);
      }
      result.patches_created += created;
      result.ledger.bytes_patches +=
          static_cast<double>(created) * config_.rates.patch_bytes;
      result.ledger.files_total += created;
    }
    engine.schedule_after(config_.snapshot_interval_s, snapshot_tick);
  };
  engine.schedule_after(config_.snapshot_interval_s, snapshot_tick);

  std::function<void()> maintain_tick = [&] {
    // Task 2 ingestion from the distributed CG analyses: one in-situ analysis
    // per running CG sim per tick (stepping, CgAnalysis, encoder feature
    // extraction, RDF accumulation), fanned out across the insitu pool and
    // folded in ascending sim-id order — candidate volume stays at the
    // calibrated rate, now as per-sim Poisson draws from counter-based
    // streams so the tick is byte-identical at any thread count.
    obs::Span tick_span("wm.tick", "wm");
    if (config_.frame_candidate_scale > 0) {
      const auto payloads = wm.running_payloads(
          "cg_sim",
          [&](const sched::Job& job) { return executor.is_hung(job.id); });
      if (!payloads.empty()) {
        const double mean_per_sim = (config_.perf.cg_us_per_day / 86400.0) *
                                    config_.maintain_interval_s *
                                    config_.frame_candidates_per_us *
                                    config_.frame_candidate_scale;
        // The tick key derives from the *absolute* offset into this run (and
        // the flat run index), so a campaign resumed from a checkpoint
        // replays the remaining ticks with the exact same per-sim streams.
        const double t_abs = resume_base_s_ + engine.now();
        std::uint64_t tbits = 0;
        std::memcpy(&tbits, &t_abs, sizeof tbits);
        const std::uint64_t tick_key =
            tbits ^ (0x9e3779b97f4a7c15ULL * (flat_run_ + 1));

        ml::PointStore frames(3);
        std::uint64_t candidates = 0;
        const std::uint64_t fold_ns = insitu_->tick(
            payloads, tick_key, mean_per_sim, [&](const InSituResult& r) {
              if (r.candidates > 0) {
                // First candidate is the analyzed frame's real descriptor;
                // the rest are subsampled snapshots of the same sim.
                r.frame.descriptor_into(next_frame_id_++, frames);
                for (const auto& d : r.extra)
                  frames.add(next_frame_id_++, std::span<const float>(d));
                candidates += r.candidates;
              }
              if (result.rdf_feedback.per_species.empty())
                result.rdf_feedback = r.rdfs;
              else
                result.rdf_feedback.merge(r.rdfs);
              ++result.analysis_frames;
            });
        if (candidates > 0) {
          result.frame_candidates += candidates;
          result.ledger.files_total += candidates;  // the ~850 B id records
          wm.ingest_frames(frames);
        }
        obs::counter("wm.tick.sims").inc(payloads.size());
        obs::counter("wm.tick.analysis_frames").inc(payloads.size());
        obs::counter("wm.tick.fold_ns").inc(fold_ns);
      }
      result.tick_sims.push_back(static_cast<std::uint32_t>(payloads.size()));
    }
    wm.maintain(config_.submit_budget_per_maintain);
    obs::histogram("wm.tick_s", 0.0, 0.02, 50)
        .observe(tick_span.elapsed_us() * 1e-6);
    engine.schedule_after(config_.maintain_interval_s, maintain_tick);
  };
  engine.schedule_after(config_.maintain_interval_s, maintain_tick);

  std::function<void()> feedback_tick = [&] {
    const int running_cg = wm.running("cg_sim");
    const int running_aa = wm.running("aa_sim");
    // CG->continuum: RDF pushes arrive every ~3-4 min per simulation.
    if (running_cg > 0) {
      const double rdf_interval = 200.0;  // s per simulation between pushes
      const auto frames = static_cast<std::size_t>(
          running_cg * config_.feedback_interval_s / rdf_interval);
      fb::IterationStats stats;
      const auto costs = fb::FeedbackCosts::redis();
      stats.frames = frames;
      stats.collect_virtual =
          static_cast<double>(frames) *
          (costs.identify_per_key + costs.read_per_record);
      stats.process_virtual =
          static_cast<double>(frames) * costs.process_per_frame;
      stats.tag_virtual = static_cast<double>(frames) * costs.tag_per_record;
      result.cg2cont_stats.push_back(stats);
    }
    // AA->CG: fewer frames, ~2 s each through external calls, pooled.
    if (running_aa > 0) {
      const auto frames = static_cast<std::size_t>(
          running_aa * config_.feedback_interval_s /
          config_.rates.aa_frame_interval_s);
      fb::IterationStats stats;
      const auto costs = fb::FeedbackCosts::redis();
      stats.frames = frames;
      stats.collect_virtual =
          static_cast<double>(frames) *
          (costs.identify_per_key + costs.read_per_record);
      stats.process_virtual =
          60.0 + 2.0 * static_cast<double>(frames) / 6.0;
      stats.tag_virtual = static_cast<double>(frames) * costs.tag_per_record;
      result.aa2cg_stats.push_back(stats);
    }
    // Data ledger: trajectory frames written during this interval.
    if (running_cg > 0) {
      const double cg_frames = running_cg * config_.feedback_interval_s /
                               config_.rates.cg_frame_interval_s;
      result.ledger.bytes_cg_frames +=
          cg_frames * config_.rates.cg_frame_bytes;
      result.ledger.bytes_cg_analysis +=
          cg_frames * config_.rates.cg_analysis_bytes;
      result.ledger.files_total +=
          static_cast<std::uint64_t>(cg_frames * kFilesPerCgFrame);
    }
    if (running_aa > 0) {
      const double aa_frames = running_aa * config_.feedback_interval_s /
                               config_.rates.aa_frame_interval_s;
      result.ledger.bytes_aa_frames +=
          aa_frames * config_.rates.aa_frame_bytes;
      result.ledger.files_total += static_cast<std::uint64_t>(aa_frames);
    }
    engine.schedule_after(config_.feedback_interval_s, feedback_tick);
  };
  engine.schedule_after(config_.feedback_interval_s, feedback_tick);

  std::function<void()> profile_tick = [&] {
    result.profiler.sample(t_offset + engine.now(), scheduler);
    // Registry gauges are freshest right after a profile sample — snapshot
    // into the attached telemetry sink (if any), stamped with campaign time.
    obs::report_sample(t_offset + engine.now());
    engine.schedule_after(config_.profile_interval_s, profile_tick);
  };
  engine.schedule_after(config_.profile_interval_s, profile_tick);

  // --- periodic checkpoint + simulated crash -------------------------------
  // One state image serves both save kinds (DESIGN.md 4i): a base carries
  // the selectors in full; a journal record carries the selector mutation
  // logs since the previous save, then the same image without selectors.
  auto encode_state = [&](util::ByteWriter& w, bool with_selectors) {
    w.u32(kCheckpointVersion);
    w.u64(flat_run_);
    w.f64(hours_at_run_start);
    w.f64(resume_base_s_ + engine.now());  // absolute offset into this run

    const util::Rng::State rst = rng_.save_state();
    for (int i = 0; i < 4; ++i) w.u64(rst.s[i]);
    w.u8(rst.has_spare ? 1 : 0);
    w.f64(rst.spare);
    w.u64(next_patch_id_);
    w.u64(next_frame_id_);

    // In-flight work in ascending job-id (submission) order. A payload may
    // be in flight twice (original + speculative twin); it must resume
    // exactly once, so one pass dedups on (payload, type).
    enum { kCgSim, kAaSim, kCgSetup, kAaSetup, kFlyKinds };
    std::vector<std::uint64_t> fly[kFlyKinds];
    // Running sims' checkpointed progress includes time since they started;
    // (payload, seconds running) in job order, so a twin's entry wins.
    std::vector<std::pair<std::uint64_t, double>> running_for;
    auto active = scheduler.active_jobs();
    std::sort(active.begin(), active.end());
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(active.size());
    for (const sched::JobId id : active) {
      const sched::Job& job = scheduler.job(id);
      const auto& type = job.spec.type;
      int kind = 0;
      if (type == "cg_sim")
        kind = kCgSim;
      else if (type == "aa_sim")
        kind = kAaSim;
      else if (type == "cg_setup")
        kind = kCgSetup;
      else if (type == "aa_setup")
        kind = kAaSetup;
      else
        continue;
      // Payload ids stay far below 2^62, so the low two bits hold the kind.
      if (seen.insert(job.spec.payload << 2 | static_cast<unsigned>(kind))
              .second)
        fly[kind].push_back(job.spec.payload);
      // Hung jobs accrue no progress; their sims resume from the last
      // checkpointed position instead.
      if ((kind == kCgSim || kind == kAaSim) &&
          job.state == sched::JobState::kRunning && !executor.is_hung(id))
        running_for.emplace_back(job.spec.payload,
                                 engine.now() - job.start_time);
    }

    std::vector<std::pair<std::uint64_t, LogicalSim>> snap(sims_.begin(),
                                                           sims_.end());
    std::sort(snap.begin(), snap.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> elapsed(snap.size(), -1.0);
    for (const auto& [payload, dt] : running_for) {
      const auto it = std::lower_bound(
          snap.begin(), snap.end(), payload,
          [](const auto& e, std::uint64_t p) { return e.first < p; });
      if (it != snap.end() && it->first == payload)
        elapsed[static_cast<std::size_t>(it - snap.begin())] = dt;
    }
    w.u64(snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
      const auto& [payload, ls] = snap[i];
      double progress = ls.progress;
      if (elapsed[i] >= 0)
        progress = std::min(ls.target, ls.progress + ls.rate_per_s * elapsed[i]);
      w.u64(payload);
      w.u8(ls.is_aa ? 1 : 0);
      w.f64(ls.target);
      w.f64(progress);
      w.f64(ls.rate_per_s);
      w.f64(ls.size);
    }
    for (const auto& list : fly) write_u64_list(w, list);
    w.bytes(wm.serialize(with_selectors));

    // Result accumulators. The profiler timeline and feedback iteration
    // stats are diagnostics, not campaign state, and are not checkpointed.
    w.u64(result.snapshots);
    w.u64(result.patches_created);
    w.u64(result.frame_candidates);
    w.f64(result.continuum_total_us);
    w.f64(result.cg_total_us);
    w.f64(result.aa_total_ns);
    w.f64(result.ledger.bytes_continuum);
    w.f64(result.ledger.bytes_patches);
    w.f64(result.ledger.bytes_cg_frames);
    w.f64(result.ledger.bytes_cg_analysis);
    w.f64(result.ledger.bytes_aa_frames);
    w.f64(result.ledger.bytes_backmap);
    w.u64(result.ledger.files_total);
    w.vec(result.cg_lengths_us);
    w.vec(result.aa_lengths_ns);
    w.vec(result.continuum_ms_per_day);
    write_pairs(w, result.cg_perf);
    write_pairs(w, result.aa_perf);
    w.u64(result.faults_injected + injector.fired().size());
    w.u64(result.fault_jobs_killed + injector.jobs_killed());
    w.u64(result.checkpoints_written);

    // v2: supervision outcomes so far (prior runs + this run's partial). The
    // quarantine ledger itself rides inside wm.serialize() above.
    supervise::SupervisionStats sup = result.supervision;
    std::vector<std::string> sup_log = result.supervision_log;
    if (supervisor) {
      sup.merge(supervisor->stats());
      sup_log.insert(sup_log.end(), supervisor->decisions().begin(),
                     supervisor->decisions().end());
    }
    write_supervision(w, sup);
    write_str_list(w, sup_log);

    // v3: in-situ analysis accumulators (fingerprinted science state — a
    // resumed campaign must keep merging RDFs into the same totals).
    w.u64(result.analysis_frames);
    w.bytes(result.rdf_feedback.serialize());
  };

  // A base when this process has none yet or the journal outgrew
  // kJournalCompactFraction of it; otherwise one journal record.
  auto save_checkpoint = [&] {
    static obs::Counter& bytes_written =
        obs::counter("wm.checkpoint.bytes_written");
    static obs::Counter& compactions = obs::counter("wm.checkpoint.compactions");
    const bool base =
        !journal_.have_base ||
        static_cast<double>(journal_.journal_bytes) >
            kJournalCompactFraction * static_cast<double>(journal_.base_bytes);
    util::ByteWriter w;
    if (base) {
      encode_state(w, /*with_selectors=*/true);
      // The base holds every logged mutation; the logs restart from it.
      (void)patch_selector_->take_log();
      (void)frame_selector_->take_log();
      const util::Bytes payload = std::move(w).take();
      journal_.base = util::CheckpointFile(config_.checkpoint_path).save(payload);
      // A crash here leaves the old journal naming the previous base; load
      // ignores it and resumes from the base just written.
      util::crash_point("wm.checkpoint.compact.pre_reset");
      util::CheckpointJournal(journal_path()).reset();
      journal_.have_base = true;
      journal_.base_bytes = payload.size();
      journal_.journal_bytes = 0;
      journal_.next_seq = 0;
      bytes_written.inc(payload.size());
      compactions.inc();
      return;
    }
    w.bytes(patch_selector_->take_log());
    w.bytes(frame_selector_->take_log());
    encode_state(w, /*with_selectors=*/false);
    const std::size_t n = util::CheckpointJournal(journal_path())
                              .append(journal_.base, journal_.next_seq,
                                      std::move(w).take());
    ++journal_.next_seq;
    journal_.journal_bytes += n;
    bytes_written.inc(n);
  };

  std::function<void()> checkpoint_tick;
  if (config_.checkpoint_interval_s > 0 && !config_.checkpoint_path.empty()) {
    checkpoint_tick = [&] {
      static obs::HistogramMetric& save_s =
          obs::histogram("wm.checkpoint_s", 0.0, 1.0, 50);
      static obs::Counter& saves = obs::counter("wm.checkpoints");
      ++result.checkpoints_written;
      {
        // Checkpoint serialization is real wall-clock work inside the
        // coordination loop; the span + histogram expose its cost.
        obs::Span span("wm.checkpoint", "wm");
        // The outermost persistence boundary pair: a crash at .pre must
        // recover the previous checkpoint generation, a crash at .post the
        // one just written. Each fires once per tick, so the sweep's "nth
        // hit" selects the checkpoint tick to kill.
        util::crash_point("wm.checkpoint.pre");
        save_checkpoint();
        util::crash_point("wm.checkpoint.post");
        save_s.observe(span.elapsed_us() * 1e-6);
      }
      saves.inc();
      engine.schedule_after(config_.checkpoint_interval_s, checkpoint_tick);
    };
    engine.schedule_after(config_.checkpoint_interval_s, checkpoint_tick);
  }

  if (config_.crash_at_campaign_h > 0) {
    const double crash_s = config_.crash_at_campaign_h * 3600.0 - t_offset;
    if (crash_s >= 0 && crash_s < walltime_s)
      engine.schedule_at(crash_s, [] {
        throw SimulatedCrash("simulated coordination-process crash");
      });
  }

  // --- run to walltime ------------------------------------------------------
  engine.run_until(walltime_s);

  // --- teardown: checkpoint-and-carry --------------------------------------
  std::set<std::uint64_t> torn_down_sims, torn_down_setups;
  for (const sched::JobId id : scheduler.active_jobs()) {
    const sched::Job& job = scheduler.job(id);
    const auto& type = job.spec.type;
    // Hung jobs made no progress since launch; their payloads still carry
    // over, so a hang costs at most the rest of this allocation.
    const bool was_running =
        job.state == sched::JobState::kRunning && !executor.is_hung(id);
    if (type == "cg_sim" || type == "aa_sim") {
      auto it = sims_.find(job.spec.payload);
      if (it != sims_.end() && was_running) {
        LogicalSim& ls = it->second;
        ls.progress = std::min(
            ls.target, ls.progress + ls.rate_per_s *
                                         (walltime_s - job.start_time));
        if (ls.progress >= ls.target) {
          finish_sim(job.spec.payload, ls);
          sims_.erase(it);
          torn_down_sims.insert(job.spec.payload);  // twin must not resume it
          scheduler.cancel(id);
          continue;
        }
      }
      // Resumes next allocation from its checkpoint. An original and its
      // speculative twin share a payload; it resumes exactly once.
      if (torn_down_sims.insert(job.spec.payload).second) {
        if (type == "cg_sim")
          carry_resume_cg_.push_back(job.spec.payload);
        else
          carry_resume_aa_.push_back(job.spec.payload);
      }
    } else if (type == "cg_setup" || type == "aa_setup") {
      if (torn_down_setups.insert(job.spec.payload).second)
        wm.requeue_setup(type, job.spec.payload);
    }
    scheduler.cancel(id);
  }

  carry = wm.carry_over();
  // Interrupted simulations resume ahead of fresh ones.
  for (auto it = carry_resume_cg_.rbegin(); it != carry_resume_cg_.rend(); ++it)
    carry.ready_cg.push_front(*it);
  for (auto it = carry_resume_aa_.rbegin(); it != carry_resume_aa_.rend(); ++it)
    carry.ready_aa.push_front(*it);
  carry_resume_cg_.clear();
  carry_resume_aa_.clear();

  // Backmap data volumes from completed AA setups this run.
  const auto aa_setups_after = trackers.tracker("aa_setup").counters();
  const auto backmaps =
      static_cast<double>(aa_setups_after.completed);
  result.ledger.bytes_backmap +=
      backmaps *
      (config_.rates.backmap_local_bytes + config_.rates.backmap_gpfs_bytes);
  result.ledger.files_total += static_cast<std::uint64_t>(backmaps) * 4;

  result.faults_injected += injector.fired().size();
  result.fault_jobs_killed += injector.jobs_killed();

  if (supervisor) {
    supervisor->finalize(engine.now());
    result.supervision.merge(supervisor->stats());
    const auto& log = supervisor->decisions();
    result.supervision_log.insert(result.supervision_log.end(), log.begin(),
                                  log.end());
  }
  // The ledger carries across allocations; the last run's view is cumulative.
  result.quarantined = wm.quarantine_ledger().quarantined_keys();

  campaign_hours_done += walltime_h;
}

std::uint64_t Campaign::decode_state(util::ByteReader& r,
                                     CampaignResult& result,
                                     ResumeState& rs) {
  const auto version = r.u32();
  if (version != kCheckpointVersion)
    throw util::FormatError("unknown campaign checkpoint version " +
                            std::to_string(version));
  const std::uint64_t flat_run = r.u64();
  r.f64();  // hours at run start; recomputed from the schedule on resume

  rs.time_into_run_s = r.f64();

  util::Rng::State rst{};
  for (int i = 0; i < 4; ++i) rst.s[i] = r.u64();
  rst.has_spare = r.u8() != 0;
  rst.spare = r.f64();
  rng_.load_state(rst);
  next_patch_id_ = r.u64();
  next_frame_id_ = r.u64();

  // A fresh map, not clear(): run() folds the sims still in flight in
  // sims_'s iteration order, which follows the map's bucket history. Decoding
  // a journal record after its base must leave the same map a campaign
  // resuming from a single image builds.
  sims_ = decltype(sims_)();
  const auto n_sims = r.u64();
  for (std::uint64_t i = 0; i < n_sims; ++i) {
    const std::uint64_t payload = r.u64();
    LogicalSim ls;
    ls.is_aa = r.u8() != 0;
    ls.target = r.f64();
    ls.progress = r.f64();
    ls.rate_per_s = r.f64();
    ls.size = r.f64();
    sims_.emplace(payload, ls);
  }
  rs.inflight_cg = read_u64_list(r);
  rs.inflight_aa = read_u64_list(r);
  rs.inflight_cg_setup = read_u64_list(r);
  rs.inflight_aa_setup = read_u64_list(r);
  rs.wm_blob = r.bytes();

  result.snapshots = r.u64();
  result.patches_created = r.u64();
  result.frame_candidates = r.u64();
  result.continuum_total_us = r.f64();
  result.cg_total_us = r.f64();
  result.aa_total_ns = r.f64();
  result.ledger.bytes_continuum = r.f64();
  result.ledger.bytes_patches = r.f64();
  result.ledger.bytes_cg_frames = r.f64();
  result.ledger.bytes_cg_analysis = r.f64();
  result.ledger.bytes_aa_frames = r.f64();
  result.ledger.bytes_backmap = r.f64();
  result.ledger.files_total = r.u64();
  result.cg_lengths_us = r.vec<double>();
  result.aa_lengths_ns = r.vec<double>();
  result.continuum_ms_per_day = r.vec<double>();
  result.cg_perf = read_pairs(r);
  result.aa_perf = read_pairs(r);
  result.faults_injected = r.u64();
  result.fault_jobs_killed = r.u64();
  result.checkpoints_written = r.u64();
  result.supervision = read_supervision(r);
  result.supervision_log = read_str_list(r);
  result.analysis_frames = r.u64();
  result.rdf_feedback = coupling::RdfSet::deserialize(r.bytes());
  return flat_run;
}

std::optional<std::uint64_t> Campaign::try_load_checkpoint(
    CampaignResult& result) {
  if (config_.checkpoint_path.empty()) return std::nullopt;
  const auto base = util::CheckpointFile(config_.checkpoint_path).load_latest();
  if (!base) return std::nullopt;
  // Recovery order (DESIGN.md 4i): the newest valid base, then the valid
  // prefix of the journal records that extend it; the newest record's state
  // wins, and its selector logs replay on top of the base in run_one.
  const auto records = util::CheckpointJournal(journal_path()).scan(base->id);

  ResumeState rs;
  util::ByteReader base_reader(base->payload);
  std::uint64_t flat_run = decode_state(base_reader, result, rs);
  for (std::size_t i = 0; i < records.size(); ++i) {
    util::ByteReader r(records[i]);
    rs.patch_logs.push_back(r.bytes());
    rs.frame_logs.push_back(r.bytes());
    if (i + 1 < records.size()) continue;
    ResumeState tail;
    flat_run = decode_state(r, result, tail);
    tail.wm_tail = std::move(tail.wm_blob);
    tail.wm_blob = std::move(rs.wm_blob);
    tail.patch_logs = std::move(rs.patch_logs);
    tail.frame_logs = std::move(rs.frame_logs);
    rs = std::move(tail);
  }
  result.resumed_from_checkpoint = true;

  resume_ = std::move(rs);
  util::log_info("campaign: resuming run ", flat_run, " from checkpoint ",
                 config_.checkpoint_path, " + ", records.size(),
                 " journal records (", resume_->time_into_run_s,
                 " s into the run)");
  return flat_run;
}

CampaignResult Campaign::run() {
  CampaignResult result;
  double hours_total = 0;
  for (const auto& run : config_.runs) hours_total += run.walltime_h * run.count;

  patch_selector_ = std::make_unique<PatchSelector>(9, 5, 35000);
  frame_selector_ = std::make_unique<FrameSelector>(0.8, rng_());
  {
    // In-situ analysis fan-out: per-sim streams are counter-based (never the
    // shared rng_), so the pool only trades wall time for tick latency.
    InSituConfig insitu_cfg;
    insitu_cfg.pool = config_.insitu_pool != nullptr ? config_.insitu_pool
                                                     : util::env_shared_pool();
    insitu_ = std::make_unique<InSituPlane>(
        config_.seed ^ 0xa5a5a5a5a5a5a5a5ULL, insitu_cfg);
  }
  // Campaign-scale candidate volumes: stream history to /dev/null instead of
  // holding tens of millions of event ids in memory.
  patch_selector_->set_history_enabled(false);
  frame_selector_->set_history_enabled(false);
  // Journal records carry the selector mutation logs; a campaign that never
  // checkpoints logs nothing.
  const bool checkpoints =
      config_.checkpoint_interval_s > 0 && !config_.checkpoint_path.empty();
  patch_selector_->set_log_enabled(checkpoints);
  frame_selector_->set_log_enabled(checkpoints);

  // Crash recovery: a checkpoint left by an interrupted campaign with this
  // config resumes the interrupted run with its remaining walltime.
  const std::optional<std::uint64_t> resume_run = try_load_checkpoint(result);

  WorkflowManager::CarryOver carry;
  double hours_done = 0;
  std::uint64_t flat = 0;
  for (const auto& run : config_.runs) {
    RunRow row;
    row.nodes = run.nodes;
    row.walltime_h = run.walltime_h;
    row.count = run.count;
    result.table1.push_back(row);
    for (int i = 0; i < run.count; ++i, ++flat) {
      double walltime_h = run.walltime_h;
      if (resume_run) {
        if (flat < *resume_run) {  // completed before the crash
          hours_done += run.walltime_h;
          continue;
        }
        if (flat == *resume_run && resume_) {
          const double into_h = resume_->time_into_run_s / 3600.0;
          hours_done += into_h;
          // At least one virtual second remains, so run_one always executes
          // and restores the checkpointed WM/selector state into play.
          walltime_h = std::max(walltime_h - into_h, 1.0 / 3600.0);
        }
      }
      flat_run_ = flat;
      run_one(run.nodes, walltime_h, result, carry, hours_done, hours_total);
      util::log_info("campaign: finished run ", run.nodes, " nodes x ",
                     run.walltime_h, " h (", hours_done, "/", hours_total,
                     " h)");
    }
    result.node_hours += row.node_hours();
  }

  // Record sims still in flight at the very end of the campaign.
  for (auto& [payload, ls] : sims_) {
    if (ls.progress <= 0) continue;
    if (ls.is_aa) {
      result.aa_lengths_ns.push_back(ls.progress);
      result.aa_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
      result.aa_total_ns += ls.progress;
    } else {
      result.cg_lengths_us.push_back(ls.progress);
      result.cg_perf.emplace_back(ls.size, ls.rate_per_s * 86400.0);
      result.cg_total_us += ls.progress;
    }
  }
  sims_.clear();

  result.patches_selected = patch_selector_->selected_count();
  result.frames_selected = frame_selector_->selected_count();

  // The campaign finished; a stale checkpoint must not hijack the next one.
  // The journal goes first: a journal without its base is ignored on load.
  if (!config_.checkpoint_path.empty()) {
    util::CheckpointJournal(journal_path()).reset();
    util::CheckpointFile(config_.checkpoint_path).remove();
  }
  return result;
}

}  // namespace mummi::wm
