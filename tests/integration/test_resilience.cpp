// Resilience integration tests (paper Sec. 4.4): node drains, job failures
// with resubmission, checkpoint/restore of every stateful component, and a
// campaign under elevated failure rates.
#include <gtest/gtest.h>

#include <filesystem>

#include <deque>

#include "continuum/gridsim2d.hpp"
#include "datastore/red_store.hpp"
#include "datastore/resilient_kv.hpp"
#include "fault/fault_injector.hpp"
#include "fault/crash_point.hpp"
#include "feedback/aa2cg.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/crashpoint.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "wm/campaign.hpp"
#include "wm/workflow_manager.hpp"

namespace mummi {
namespace {

TEST(Resilience, DrainedNodeKeepsRunningJobsButTakesNoNew) {
  util::ManualClock clock;
  sched::Scheduler scheduler(sched::ClusterSpec::summit(2),
                             sched::MatchPolicy::kFirstMatch, clock);
  // Load node 0 fully.
  std::vector<sched::JobId> on_node0;
  for (int i = 0; i < 6; ++i)
    scheduler.submit(sched::JobSpec::gpu_sim("j", "cg_sim"));
  for (const auto id : scheduler.pump())
    if (scheduler.job(id).alloc.slots[0].node == 0) on_node0.push_back(id);
  ASSERT_FALSE(on_node0.empty());

  // The node "fails": drain it. Running jobs keep their resources.
  scheduler.drain_node(0);
  EXPECT_EQ(scheduler.state(on_node0[0]), sched::JobState::kRunning);

  // New work avoids the drained node entirely.
  for (int i = 0; i < 6; ++i)
    scheduler.submit(sched::JobSpec::gpu_sim("k", "cg_sim"));
  for (const auto id : scheduler.pump())
    EXPECT_EQ(scheduler.job(id).alloc.slots[0].node, 1);

  // After repair, the node serves again.
  for (const auto id : on_node0) scheduler.complete(id, false);
  scheduler.undrain_node(0);
  scheduler.submit(sched::JobSpec::gpu_sim("l", "cg_sim"));
  const auto started = scheduler.pump();
  ASSERT_FALSE(started.empty());
  EXPECT_EQ(scheduler.job(started[0]).alloc.slots[0].node, 0);
}

TEST(Resilience, CampaignSurvivesElevatedFailureRates) {
  wm::CampaignConfig cfg;
  cfg.runs = {{30, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.sim_failure_prob = 0.25;  // every fourth job crashes
  cfg.seed = 3;
  const auto result = wm::Campaign(cfg).run();
  // The workflow keeps making progress despite the failures...
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
  // ...and failed sims retain checkpointed progress (no negative/overshoot).
  for (double len : result.cg_lengths_us) {
    EXPECT_GE(len, 0.0);
    EXPECT_LE(len, cfg.cg_max_us + 1e-9);
  }
}

TEST(Resilience, ContinuumCheckpointIsArmored) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_resil_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "continuum.ckpt").string();

  cont::ContinuumConfig ccfg;
  ccfg.grid = 16;
  ccfg.extent = 32.0;
  ccfg.inner_species = 2;
  ccfg.outer_species = 1;
  ccfg.n_proteins = 2;
  cont::GridSim2D sim(ccfg);
  sim.step(5);
  util::CheckpointFile ckpt(path);
  ckpt.save(sim.serialize());
  sim.step(5);
  ckpt.save(sim.serialize());  // newest state; previous rotates to .bak

  // Torn write on the primary: restore falls back to the .bak (t = 0.25).
  util::write_file(path, util::to_bytes("short"));
  const auto payload = ckpt.load();
  ASSERT_TRUE(payload.has_value());
  cont::GridSim2D restored(ccfg);
  restored.restore(*payload);
  EXPECT_NEAR(restored.time_us(), 0.25, 1e-12);
  std::filesystem::remove_all(dir);
}

TEST(Resilience, SelectorStateRoundTripsThroughCheckpointFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_resil_sel_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  wm::PatchSelector selector(9, 5, 100);
  std::vector<ml::HDPoint> pts;
  for (int i = 0; i < 40; ++i) {
    ml::HDPoint p;
    p.id = static_cast<ml::PointId>(i + 1);
    p.coords.assign(9, 0.25f * static_cast<float>(i % 7));
    pts.push_back(std::move(p));
  }
  selector.add(2, pts);
  (void)selector.select(6);

  util::CheckpointFile ckpt((dir / "selector.ckpt").string());
  ckpt.save(selector.serialize());

  wm::PatchSelector restored(9, 5, 100);
  restored.restore(*ckpt.load());
  EXPECT_EQ(restored.candidate_count(), selector.candidate_count());
  EXPECT_EQ(restored.selected_count(), selector.selected_count());
  // Identical future behaviour.
  for (int i = 0; i < 4; ++i) {
    const auto a = selector.select(1);
    const auto b = restored.select(1);
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(a[0].point.id, b[0].point.id);
    }
  }
  std::filesystem::remove_all(dir);
}

wm::CampaignConfig small_faulted_config() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 2}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.faults.node_crash_rate_per_h = 8.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.latency_spike_rate_per_h = 3.0;
  cfg.faults.latency_spike_mean_s = 200.0;
  cfg.faults.seed = 5;
  return cfg;
}

TEST(Resilience, FaultedCampaignIsDeterministic) {
  // Acceptance (a): same seed + same fault plan => bit-identical results.
  const auto cfg = small_faulted_config();
  const auto a = wm::Campaign(cfg).run();
  const auto b = wm::Campaign(cfg).run();
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.patches_selected, 0u);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.fault_jobs_killed, b.fault_jobs_killed);
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.patches_created, b.patches_created);
  EXPECT_EQ(a.patches_selected, b.patches_selected);
  EXPECT_EQ(a.frames_selected, b.frames_selected);
  EXPECT_EQ(a.cg_total_us, b.cg_total_us);  // bitwise, not approximate
  EXPECT_EQ(a.aa_total_ns, b.aa_total_ns);
  EXPECT_EQ(a.cg_lengths_us, b.cg_lengths_us);
  EXPECT_EQ(a.continuum_total_us, b.continuum_total_us);
}

TEST(Resilience, CampaignAbsorbsNodeCrashes) {
  // Acceptance (d), campaign level: node crashes kill running jobs; the
  // trackers resubmit them and the campaign keeps producing science.
  auto cfg = small_faulted_config();
  cfg.faults.latency_spike_rate_per_h = 0.0;
  cfg.faults.node_crash_rate_per_h = 12.0;
  const auto result = wm::Campaign(cfg).run();
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.fault_jobs_killed, 0u);
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
}

TEST(Resilience, CrashRestartResumesFromCheckpoint) {
  // Acceptance (b): a mid-campaign crash, then a fresh Campaign resumes from
  // the periodic checkpoint and completes.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_crash_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt_path = (dir / "campaign.ckpt").string();

  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = ckpt_path;
  // Not a checkpoint multiple: the crash lands between two ticks.
  cfg.crash_at_campaign_h = 1.45;

  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  EXPECT_TRUE(std::filesystem::exists(ckpt_path));

  auto resume_cfg = cfg;
  resume_cfg.crash_at_campaign_h = 0;  // the "restarted" coordination process
  const auto result = wm::Campaign(resume_cfg).run();
  EXPECT_TRUE(result.resumed_from_checkpoint);
  EXPECT_GT(result.checkpoints_written, 0u);
  // Pre-crash progress was not lost: the resumed result carries the
  // accumulated counters past what the post-crash tail alone could produce.
  EXPECT_GT(result.patches_selected, 0u);
  EXPECT_GT(result.snapshots, 0u);
  EXPECT_GT(result.cg_total_us, 0.0);
  // Success clears the checkpoint so the next campaign starts fresh.
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  EXPECT_FALSE(std::filesystem::exists(ckpt_path + ".journal"));
  std::filesystem::remove_all(dir);
}

// --- base + journal checkpoints (DESIGN.md 4i) ------------------------------

wm::CampaignConfig journal_config(const std::string& ckpt_path) {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 4}};
  cfg.proteins_per_snapshot = 60;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 19;
  cfg.checkpoint_interval_s = 300;
  cfg.checkpoint_path = ckpt_path;
  return cfg;
}

/// Runs `cfg` until the `nth` hit of `point` and crashes there; returns the
/// checkpoint tick the crash interrupted (1-based).
std::uint64_t crash_at(const wm::CampaignConfig& cfg, const char* point,
                       std::uint64_t nth) {
  fault::ScopedCrashHarness harness;
  harness.registry().arm(point, nth);
  EXPECT_THROW((void)wm::Campaign(cfg).run(), wm::SimulatedCrash);
  EXPECT_TRUE(harness.registry().fired());
  return harness.registry().hits("wm.checkpoint.pre");
}

TEST(Resilience, JournalRecordBytesStayBoundedAsHistoryGrows) {
  // Bytes written per save, from the obs counters at every checkpoint tick:
  // the base grows with the selector history; a journal record does not.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_journal_bytes_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg = journal_config((dir / "campaign.ckpt").string());
  const auto& written = obs::counter("wm.checkpoint.bytes_written");
  const auto& compactions = obs::counter("wm.checkpoint.compactions");
  std::vector<double> records, bases;
  std::uint64_t bytes_before = 0, compactions_before = 0;
  util::set_crash_point_hook([&](const char* point) {
    const std::string p(point);
    if (p == "wm.checkpoint.pre") {
      bytes_before = written.value();
      compactions_before = compactions.value();
    } else if (p == "wm.checkpoint.post") {
      const auto bytes = static_cast<double>(written.value() - bytes_before);
      (compactions.value() > compactions_before ? bases : records)
          .push_back(bytes);
    }
  });
  const auto result = wm::Campaign(cfg).run();
  util::set_crash_point_hook({});
  std::filesystem::remove_all(dir);

  ASSERT_EQ(records.size() + bases.size(), result.checkpoints_written);
  ASSERT_GE(records.size(), 20u);
  ASSERT_GE(bases.size(), 2u);
  // The history grew: the last base is over ten times the first (~23x)...
  EXPECT_GT(bases.back(), 10.0 * bases.front());
  // ...while no record reaches three times the first one (~2x: the small
  // state still carries the per-sim result vectors, a few bytes per
  // finished sim) or a tenth of the newest base.
  for (const double r : records) {
    EXPECT_LT(r, 3.0 * records.front());
    EXPECT_LT(r, 0.1 * bases.back());
  }
}

TEST(Resilience, TornJournalTailResumesLikeThePreviousSave) {
  // Damage the newest journal record: resume keeps what precedes it, which
  // is exactly the state a crash right after the previous save recovers.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_journal_torn_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto torn_cfg = journal_config((dir / "torn.ckpt").string());
  const auto clean_cfg = journal_config((dir / "clean.ckpt").string());

  const std::uint64_t tick =
      crash_at(torn_cfg, "ckpt.journal.append.post", 6);
  ASSERT_GE(tick, 2u);
  const std::string journal = torn_cfg.checkpoint_path + ".journal";
  auto raw = util::read_file(journal);
  ASSERT_TRUE(raw.has_value());
  ASSERT_FALSE(raw->empty());
  raw->back() ^= 0x40;  // last payload byte of the newest record
  util::write_file(journal, *raw);
  const auto torn = wm::Campaign(torn_cfg).run();

  crash_at(clean_cfg, "wm.checkpoint.post", tick - 1);
  const auto clean = wm::Campaign(clean_cfg).run();

  EXPECT_TRUE(torn.resumed_from_checkpoint);
  EXPECT_TRUE(clean.resumed_from_checkpoint);
  EXPECT_EQ(torn.science_fingerprint(), clean.science_fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(Resilience, JournalThatSkipsARecordFailsReplayWithFormatError) {
  // Re-sequence the journal without its first record: every record still
  // passes its checksum, but the selector logs no longer start from the
  // base, so replay must catch the divergence instead of resuming from a
  // state that never existed.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_journal_gap_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg = journal_config((dir / "gap.ckpt").string());
  crash_at(cfg, "ckpt.journal.append.post", 4);
  const auto base = util::CheckpointFile(cfg.checkpoint_path).load_latest();
  ASSERT_TRUE(base.has_value());
  util::CheckpointJournal journal(cfg.checkpoint_path + ".journal");
  const auto records = journal.scan(base->id);
  ASSERT_GE(records.size(), 2u);
  journal.reset();
  for (std::size_t i = 1; i < records.size(); ++i)
    (void)journal.append(base->id, i - 1, records[i]);
  EXPECT_THROW((void)wm::Campaign(cfg).run(), util::FormatError);
  std::filesystem::remove_all(dir);
}

TEST(Resilience, UnknownCheckpointVersionIsFormatError) {
  // A checkpoint from an unknown format version is a decode failure
  // (FormatError), not an internal invariant violation.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_ckpt_version_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt_path = (dir / "campaign.ckpt").string();
  util::ByteWriter w;
  w.u32(99);
  w.u64(0);
  util::CheckpointFile(ckpt_path).save(std::move(w).take());

  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.seed = 11;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = ckpt_path;
  EXPECT_THROW(wm::Campaign(cfg).run(), util::FormatError);
  std::filesystem::remove_all(dir);
}

TEST(Resilience, FeedbackLoopSurvivesShardOutage) {
  // Acceptance (c): a producer writes frames through ResilientKvClient while
  // every shard goes down mid-stream. Unwritable frames aggregate locally
  // (the paper's producer/consumer decoupling) and flush after recovery:
  // zero lost frames.
  event::SimEngine engine;
  ds::KvCluster kv(4);
  util::BackoffPolicy backoff;
  backoff.max_attempts = 3;
  backoff.base_delay_s = 0.01;
  backoff.jitter_frac = 0.0;
  ds::CircuitBreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_s = 60.0;
  ds::ResilientKvClient client(kv, engine.clock(), backoff, breaker);

  fault::FaultPlan plan;
  for (int s = 0; s < 4; ++s)
    plan.shard_outage(100.0, s, 120.0);  // all shards dark for [100, 220)
  fault::FaultInjector injector(std::move(plan));
  injector.bind_kv(&kv);
  injector.arm(engine);

  const int total_frames = 40;
  std::deque<std::pair<std::string, util::Bytes>> unflushed;
  int produced = 0;
  std::function<void()> tick = [&] {
    unflushed.emplace_back("frame-" + std::to_string(produced),
                           util::to_bytes("payload-" + std::to_string(produced)));
    ++produced;
    while (!unflushed.empty()) {
      try {
        client.set(unflushed.front().first, unflushed.front().second);
        unflushed.pop_front();
      } catch (const util::UnavailableError&) {
        break;  // shard down: keep the backlog, retry next tick
      }
    }
    if (produced < total_frames) engine.schedule_after(10.0, tick);
  };
  engine.schedule_at(5.0, tick);
  engine.run();

  // The outage was real (breaker opened, short-circuits fired)...
  EXPECT_GT(client.stats().breaker_opens, 0u);
  EXPECT_GT(client.stats().short_circuits, 0u);
  EXPECT_GT(client.stats().failures, 0u);
  // ...the backlog drained after recovery, and no frame was lost.
  EXPECT_TRUE(unflushed.empty());
  for (int i = 0; i < total_frames; ++i) {
    const auto v = client.get("frame-" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << "frame " << i << " lost";
    EXPECT_EQ(util::to_string(*v), "payload-" + std::to_string(i));
  }
}

TEST(Resilience, ProducerConsumerDecoupling) {
  // "if the data producer fails, the consumer components simply wait ...
  // if a consumer fails, the unconsumed data simply aggregates."
  auto store = std::make_shared<ds::RedStore>(2);
  fb::Aa2CgConfig cfg;
  cfg.pool_size = 2;
  fb::AaToCgFeedback consumer(store, cfg);

  // Consumer runs with no producer: clean no-op.
  EXPECT_EQ(consumer.iterate().frames, 0u);

  // Producer floods while the consumer is "down"; data aggregates.
  for (int i = 0; i < 500; ++i)
    store->put_text("ss-pending", "f" + std::to_string(i), "HHHC");
  EXPECT_EQ(store->keys("ss-pending", "*").size(), 500u);

  // Consumer comes back and drains everything in one iteration.
  EXPECT_EQ(consumer.iterate().frames, 500u);
  EXPECT_TRUE(store->keys("ss-pending", "*").empty());
}

}  // namespace
}  // namespace mummi
