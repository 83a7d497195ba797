// Campaign crash-point sweep (the tentpole acceptance test): kill a faulted,
// checkpointed campaign at every persistence boundary on its checkpoint
// path, resume it, and prove the science comes back intact.
//
// What "intact" means — and deliberately does not mean. The simulator does
// not checkpoint engine/scheduler internals, and a resumed campaign redraws
// its fault plan over the *remaining* walltime, so a resumed run is not
// byte-identical to an uninterrupted one and cannot be. What the durability
// contract (DESIGN.md 4i) does promise is that every crash point maps to a
// definite recovered checkpoint state:
//   - "pre" group (crash before the tick's save is complete): the campaign
//     resumes from the state of tick k-1;
//   - "post" group (crash once the save is durable): it resumes from tick k.
// All resumes within a group therefore recover the *same* durable state and,
// being deterministic, must produce byte-identical science fingerprints.
// Zero divergence within each group is the sweep's pass condition; the
// pre-fix post_bak bug (load() preferring the stale .bak over the fully
// written .tmp) shows up here as a post-group divergence.
//
// A checkpoint tick either appends one journal record or writes a base
// image (the first save of a process, then a compaction whenever the journal
// outgrew half the base), and each kind crosses its own boundaries, so the
// sweep kills one tick of each kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fault/crash_point.hpp"
#include "util/rng.hpp"
#include "wm/campaign.hpp"

namespace fs = std::filesystem;

namespace mummi {
namespace {

using Group = std::vector<std::string>;

// Boundaries of an append tick and of a base (compaction) tick, by
// durability outcome.
const Group kAppendPre = {
    "wm.checkpoint.pre",
    "supervise.ledger.serialize",
    "ckpt.journal.append.pre",
    "ckpt.journal.append.mid",
};
const Group kAppendPost = {
    "ckpt.journal.append.post",
    "wm.checkpoint.post",
};
const Group kBasePre = {
    "wm.checkpoint.pre",   "supervise.ledger.serialize",
    "ckpt.save.pre_tmp",   "util.write_file.pre",
    "util.write_file.mid",
};
const Group kBasePost = {
    "util.write_file.post",  "ckpt.save.post_tmp",
    "ckpt.save.post_bak",    "ckpt.save.post_rename",
    "wm.checkpoint.compact.pre_reset", "wm.checkpoint.post",
};

wm::CampaignConfig sweep_config(const std::string& ckpt_path) {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 11;
  cfg.faults.node_crash_rate_per_h = 8.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = ckpt_path;
  return cfg;
}

/// A base tick writes the checkpoint image; every other tick appends.
bool is_base(const fault::HitSegment& tick) {
  return tick.crossed("ckpt.save.pre_tmp");
}

TEST(CrashSweep, EveryPersistenceBoundaryRecoversWithinItsDurabilityGroup) {
  const auto dir = fs::temp_directory_path() /
                   ("mummi_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  // --- observe pass: which points fire, in which tick ----------------------
  fault::ScopedCrashHarness harness;
  auto& reg = harness.registry();
  {
    auto cfg = sweep_config((dir / "observe.ckpt").string());
    const auto result = wm::Campaign(cfg).run();
    ASSERT_GT(result.checkpoints_written, 2u);
  }
  const auto observed = reg.hit_counts();
  const auto ticks = fault::split_hit_order(
      reg.hit_order(), "wm.checkpoint.pre", "wm.checkpoint.post");
  ASSERT_GE(ticks.size(), 3u);
  ASSERT_TRUE(is_base(ticks.front())) << "the first save must write a base";

  // Coverage: every tick crosses every boundary of its kind, so the sweep
  // cannot silently skip an instrumented one.
  for (std::size_t t = 0; t < ticks.size(); ++t)
    for (const auto* group :
         is_base(ticks[t])
             ? std::vector<const Group*>{&kBasePre, &kBasePost}
             : std::vector<const Group*>{&kAppendPre, &kAppendPost})
      for (const auto& point : *group)
        EXPECT_TRUE(ticks[t].crossed(point))
            << "tick " << t + 1 << " never crossed " << point;

  // ...and every registered name must be a known one (catches typos between
  // instrumentation sites and the kCrashPoints roster).
  for (const auto& [point, _] : observed)
    EXPECT_NE(std::find_if(std::begin(fault::kCrashPoints),
                           std::end(fault::kCrashPoints),
                           [&](const char* p) { return point == p; }),
              std::end(fault::kCrashPoints))
        << "unregistered crash point: " << point;

  // --- pick one append tick and one compaction tick ------------------------
  // Seeded draws over the ticks of each kind after the first (tick 1 has no
  // previous state to fall back to, which is a different — also covered —
  // scenario than the steady-state one this sweep locks down).
  std::vector<std::size_t> appends, compactions;
  for (std::size_t t = 1; t < ticks.size(); ++t)
    (is_base(ticks[t]) ? compactions : appends).push_back(t);
  ASSERT_FALSE(appends.empty()) << "no journal append tick to kill";
  ASSERT_FALSE(compactions.empty()) << "no compaction tick to kill";
  util::Rng rng(0xfeed5eed);
  const auto& append_tick = ticks[appends[rng.uniform_index(appends.size())]];
  const auto& compact_tick =
      ticks[compactions[rng.uniform_index(compactions.size())]];

  // --- sweep: crash at every boundary of both ticks, resume, fingerprint ----
  struct Shot {
    const fault::HitSegment* tick;
    const Group* group;
    const char* name;
  };
  const Shot shots[] = {
      {&append_tick, &kAppendPre, "append/pre"},
      {&append_tick, &kAppendPost, "append/post"},
      {&compact_tick, &kBasePre, "compaction/pre"},
      {&compact_tick, &kBasePost, "compaction/post"},
  };
  int run_idx = 0;
  for (const auto& shot : shots) {
    std::map<std::string, util::Bytes> fingerprints;
    for (const auto& point : *shot.group) {
      const std::string ckpt =
          (dir / ("sweep_" + std::to_string(run_idx++) + ".ckpt")).string();
      auto cfg = sweep_config(ckpt);
      reg.reset();
      reg.arm(point, shot.tick->nth.at(point));
      EXPECT_THROW((void)wm::Campaign(cfg).run(), wm::SimulatedCrash)
          << shot.name << " " << point;
      ASSERT_TRUE(reg.fired()) << shot.name << " " << point;
      reg.disarm();
      // The restarted coordination process: same config, fresh Campaign.
      const auto result = wm::Campaign(cfg).run();
      EXPECT_TRUE(result.resumed_from_checkpoint) << shot.name << " " << point;
      EXPECT_GT(result.patches_selected, 0u) << shot.name << " " << point;
      fingerprints[point] = result.science_fingerprint();
    }

    // --- verdict: zero divergence within each durability group --------------
    const auto& reference = fingerprints.at(shot.group->front());
    EXPECT_FALSE(reference.empty());
    for (const auto& point : *shot.group)
      EXPECT_EQ(fingerprints.at(point), reference)
          << shot.name << ": " << point << " diverged from "
          << shot.group->front();
  }

  fs::remove_all(dir);
}

TEST(CrashSweep, CrashBeforeFirstCheckpointRestartsFresh) {
  // Tick-1 pre-group crash: no previous generation exists. The restart must
  // come up from scratch (not resume) and still complete.
  const auto dir = fs::temp_directory_path() /
                   ("mummi_sweep_first_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto cfg = sweep_config((dir / "first.ckpt").string());
  fault::ScopedCrashHarness harness;
  harness.registry().arm("ckpt.save.pre_tmp", 1);
  EXPECT_THROW((void)wm::Campaign(cfg).run(), wm::SimulatedCrash);
  harness.registry().disarm();
  const auto result = wm::Campaign(cfg).run();
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_GT(result.patches_selected, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mummi
