#include "wm/job_tracker.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi::wm {
namespace {

JobTypeConfig cg_sim_config() {
  JobTypeConfig cfg;
  cfg.type = "cg_sim";
  cfg.request.slot = sched::Slot{3, 1};
  cfg.max_restarts = 2;
  cfg.mean_duration = 86400;
  return cfg;
}

TEST(JobTracker, MakeSpecCarriesShape) {
  JobTracker tracker(cg_sim_config());
  const auto spec = tracker.make_spec(42);
  EXPECT_EQ(spec.type, "cg_sim");
  EXPECT_EQ(spec.name, "cg_sim-42");
  EXPECT_EQ(spec.request.slot.cores, 3);
  EXPECT_EQ(spec.request.slot.gpus, 1);
  EXPECT_EQ(spec.payload, 42u);
  EXPECT_DOUBLE_EQ(spec.est_duration, 86400);
}

TEST(JobTracker, ResubmitPolicyHonorsMaxRestarts) {
  JobTracker tracker(cg_sim_config());
  sched::Job job;
  job.spec = tracker.make_spec(1);
  job.state = sched::JobState::kFailed;
  job.restarts = 0;
  EXPECT_TRUE(tracker.should_resubmit(job));
  job.restarts = 2;
  EXPECT_FALSE(tracker.should_resubmit(job));
  job.restarts = 0;
  job.state = sched::JobState::kCompleted;
  EXPECT_FALSE(tracker.should_resubmit(job));
}

TEST(JobTracker, NodeKillsRetryWithoutConsumingTheBudget) {
  // Attribution: a job killed by its node is infrastructure's fault, not the
  // payload's — it always retries, even past max_restarts.
  JobTracker tracker(cg_sim_config());
  sched::Job job;
  job.spec = tracker.make_spec(1);
  job.state = sched::JobState::kFailed;
  job.killed_by_node = true;
  job.restarts = 0;
  EXPECT_TRUE(tracker.should_resubmit(job));
  job.restarts = 99;  // far past the budget
  EXPECT_TRUE(tracker.should_resubmit(job));
  // The same restart count with genuine failure attribution is refused.
  job.killed_by_node = false;
  EXPECT_FALSE(tracker.should_resubmit(job));
}

TEST(JobTracker, KilledByFaultCountsSeparatelyFromFailed) {
  JobTracker tracker(cg_sim_config());
  tracker.note_failed();
  tracker.note_killed_by_fault();
  tracker.note_killed_by_fault();
  EXPECT_EQ(tracker.counters().failed, 1u);
  EXPECT_EQ(tracker.counters().killed_by_fault, 2u);
}

TEST(JobTracker, CountersAccumulate) {
  JobTracker tracker(cg_sim_config());
  tracker.note_submitted();
  tracker.note_submitted();
  tracker.note_completed();
  tracker.note_failed();
  tracker.note_restarted();
  EXPECT_EQ(tracker.counters().submitted, 2u);
  EXPECT_EQ(tracker.counters().completed, 1u);
  EXPECT_EQ(tracker.counters().failed, 1u);
  EXPECT_EQ(tracker.counters().restarted, 1u);
}

TEST(JobTracker, ConfigFromIniSection) {
  // "a generic and abstract Job Tracker that can be customized using a
  // combination of inherited classes and configuration files."
  const auto cfg = util::Config::parse(
      "[job.aa_setup]\n"
      "cores = 18\n"
      "gpus = 0\n"
      "max_restarts = 5\n"
      "mean_duration = 7200\n"
      "sigma_duration = 0.25\n");
  const auto tc = JobTracker::config_from(cfg, "aa_setup");
  EXPECT_EQ(tc.type, "aa_setup");
  EXPECT_EQ(tc.request.slot.cores, 18);
  EXPECT_EQ(tc.request.slot.gpus, 0);
  EXPECT_EQ(tc.max_restarts, 5);
  EXPECT_DOUBLE_EQ(tc.mean_duration, 7200);
  EXPECT_DOUBLE_EQ(tc.sigma_duration, 0.25);
}

TEST(JobTracker, ConfigFromDefaults) {
  const util::Config cfg;
  const auto tc = JobTracker::config_from(cfg, "anything");
  EXPECT_EQ(tc.request.slot.cores, 1);
  EXPECT_EQ(tc.request.slot.gpus, 0);
  EXPECT_EQ(tc.max_restarts, 2);
}

TEST(JobTracker, ConfigFromOneSlotPerNode) {
  const auto cfg = util::Config::parse(
      "[job.continuum]\n"
      "cores = 24\n"
      "nslots = 150\n"
      "one_slot_per_node = true\n");
  const auto tc = JobTracker::config_from(cfg, "continuum");
  EXPECT_EQ(tc.request.nslots, 150);
  EXPECT_TRUE(tc.request.one_slot_per_node);
}

/// Inheritance customization point: a tracker that never resubmits.
class NoRetryTracker : public JobTracker {
 public:
  using JobTracker::JobTracker;
  [[nodiscard]] bool should_resubmit(const sched::Job&) const override {
    return false;
  }
};

TEST(TrackerSet, RegistersAndDispatchesPolymorphically) {
  TrackerSet set;
  set.add(std::make_unique<JobTracker>(cg_sim_config()));
  JobTypeConfig no_retry = cg_sim_config();
  no_retry.type = "fragile";
  set.add(std::make_unique<NoRetryTracker>(no_retry));

  EXPECT_TRUE(set.has("cg_sim"));
  EXPECT_TRUE(set.has("fragile"));
  EXPECT_FALSE(set.has("unknown"));
  EXPECT_EQ(set.types(), (std::vector<std::string>{"cg_sim", "fragile"}));

  sched::Job failed;
  failed.state = sched::JobState::kFailed;
  EXPECT_TRUE(set.tracker("cg_sim").should_resubmit(failed));
  EXPECT_FALSE(set.tracker("fragile").should_resubmit(failed));
}

TEST(TrackerSet, DuplicateAndMissingRejected) {
  TrackerSet set;
  set.add(std::make_unique<JobTracker>(cg_sim_config()));
  EXPECT_THROW(set.add(std::make_unique<JobTracker>(cg_sim_config())),
               util::Error);
  EXPECT_THROW((void)set.tracker("nope"), util::Error);
  EXPECT_THROW(set.add(nullptr), util::Error);
}

}  // namespace
}  // namespace mummi::wm
