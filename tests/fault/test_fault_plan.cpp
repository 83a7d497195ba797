// FaultPlan: builder ordering, Poisson generation, determinism.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mummi {
namespace {

bool same_events(const std::vector<fault::FaultEvent>& a,
                 const std::vector<fault::FaultEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
        a[i].target != b[i].target || a[i].duration != b[i].duration ||
        a[i].magnitude != b[i].magnitude || a[i].count != b[i].count)
      return false;
  }
  return true;
}

TEST(FaultPlan, BuilderKeepsEventsSortedByTime) {
  fault::FaultPlan plan;
  plan.latency_spike(500.0, 3.0, 60.0)
      .node_crash(100.0, 2, 250.0)
      .store_errors(10.0, 2);
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, fault::FaultKind::kStoreIoError);
  EXPECT_EQ(ev[1].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(ev[2].kind, fault::FaultKind::kNodeRecover);
  EXPECT_DOUBLE_EQ(ev[2].time, 350.0);  // crash + down_for
  EXPECT_EQ(ev[3].kind, fault::FaultKind::kLatencySpike);
}

TEST(FaultPlan, ShardOutageWipeFlagRoundTrips) {
  fault::FaultPlan plan;
  plan.shard_outage(1.0, 3, 10.0, /*wipe=*/true);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, fault::FaultKind::kShardDown);
  EXPECT_EQ(plan.events()[0].count, 1);  // wipe encoded
  EXPECT_EQ(plan.events()[1].kind, fault::FaultKind::kShardUp);
}

TEST(FaultPlan, GenerateIsDeterministic) {
  fault::FaultSpec spec;
  spec.node_crash_rate_per_h = 5.0;
  spec.shard_outage_rate_per_h = 3.0;
  spec.latency_spike_rate_per_h = 2.0;
  spec.seed = 99;
  const auto a = fault::FaultPlan::generate(spec, 7200.0, 16, 4);
  const auto b = fault::FaultPlan::generate(spec, 7200.0, 16, 4);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(same_events(a.events(), b.events()));

  fault::FaultSpec other = spec;
  other.seed = 100;
  const auto c = fault::FaultPlan::generate(other, 7200.0, 16, 4);
  EXPECT_FALSE(same_events(a.events(), c.events()));
}

TEST(FaultPlan, FaultClassesDrawIndependentStreams) {
  // Adding a second fault class must not perturb the first one's schedule.
  fault::FaultSpec crashes_only;
  crashes_only.node_crash_rate_per_h = 4.0;
  crashes_only.seed = 7;
  fault::FaultSpec with_spikes = crashes_only;
  with_spikes.latency_spike_rate_per_h = 6.0;

  auto crash_events = [](const fault::FaultPlan& plan) {
    std::vector<fault::FaultEvent> out;
    for (const auto& ev : plan.events())
      if (ev.kind == fault::FaultKind::kNodeCrash ||
          ev.kind == fault::FaultKind::kNodeRecover)
        out.push_back(ev);
    return out;
  };
  const auto a = fault::FaultPlan::generate(crashes_only, 3600.0, 8, 0);
  const auto b = fault::FaultPlan::generate(with_spikes, 3600.0, 8, 0);
  EXPECT_FALSE(a.empty());
  EXPECT_GT(b.size(), a.size());
  EXPECT_TRUE(same_events(crash_events(a), crash_events(b)));
}

TEST(FaultPlan, GenerateRespectsBoundsAndZeroRates) {
  fault::FaultSpec spec;  // all rates zero
  EXPECT_TRUE(spec.empty());
  EXPECT_TRUE(fault::FaultPlan::generate(spec, 3600.0, 8, 4).empty());

  spec.node_crash_rate_per_h = 50.0;
  spec.shard_outage_rate_per_h = 50.0;
  EXPECT_FALSE(spec.empty());
  const auto plan = fault::FaultPlan::generate(spec, 3600.0, 4, 2);
  for (const auto& ev : plan.events()) {
    EXPECT_GE(ev.time, 0.0);
    if (ev.kind == fault::FaultKind::kNodeCrash) {
      EXPECT_LT(ev.time, 3600.0);  // recoveries may land past the horizon
    }
    if (ev.kind == fault::FaultKind::kNodeCrash ||
        ev.kind == fault::FaultKind::kNodeRecover) {
      EXPECT_GE(ev.target, 0);
      EXPECT_LT(ev.target, 4);
    }
    if (ev.kind == fault::FaultKind::kShardDown ||
        ev.kind == fault::FaultKind::kShardUp) {
      EXPECT_GE(ev.target, 0);
      EXPECT_LT(ev.target, 2);
    }
  }
  // No shard events when the cluster has no shards.
  const auto nodes_only = fault::FaultPlan::generate(spec, 3600.0, 4, 0);
  for (const auto& ev : nodes_only.events())
    EXPECT_TRUE(ev.kind == fault::FaultKind::kNodeCrash ||
                ev.kind == fault::FaultKind::kNodeRecover);
}

TEST(FaultPlan, JobHangAndStragglerBuilders) {
  fault::FaultPlan plan;
  plan.straggler(200.0, 3, 6.0).job_hang(50.0, 2);
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, fault::FaultKind::kJobHang);
  EXPECT_EQ(ev[0].count, 2);
  EXPECT_EQ(ev[1].kind, fault::FaultKind::kStragglerJob);
  EXPECT_EQ(ev[1].count, 3);
  EXPECT_DOUBLE_EQ(ev[1].magnitude, 6.0);
  // describe() names the new kinds (operator logs, validate() messages).
  EXPECT_NE(ev[0].describe().find("job_hang"), std::string::npos);
  EXPECT_NE(ev[1].describe().find("straggler_job"), std::string::npos);
  plan.validate();  // builder-made plans are always valid
}

TEST(FaultSpec, ValidateRejectsNegativeRatesAndBadFactors) {
  fault::FaultSpec ok;
  ok.job_hang_rate_per_h = 2.0;
  ok.straggler_rate_per_h = 1.0;
  ok.validate();

  fault::FaultSpec bad = ok;
  bad.node_crash_rate_per_h = -1.0;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = ok;
  bad.job_hang_rate_per_h = -0.5;
  EXPECT_THROW(bad.validate(), util::Error);

  bad = ok;
  bad.straggler_factor = 0.5;  // a "straggler" that speeds jobs up is a bug
  EXPECT_THROW(bad.validate(), util::Error);

  bad = ok;
  bad.node_down_mean_s = -10.0;
  EXPECT_THROW(bad.validate(), util::Error);
}

TEST(FaultPlan, ValidateGuardsHandAssembledPlans) {
  // add() keeps insertion sorted and rejects negative times outright; what it
  // does NOT check are the payload fields, which validate() guards.
  fault::FaultEvent bad_time;
  bad_time.time = -1.0;
  bad_time.kind = fault::FaultKind::kJobHang;
  fault::FaultPlan plan;
  EXPECT_THROW(plan.add(bad_time), util::Error);

  fault::FaultPlan slow_straggler;
  fault::FaultEvent ev;
  ev.time = 1.0;
  ev.kind = fault::FaultKind::kStragglerJob;
  ev.magnitude = 0.25;  // a "straggler" that speeds jobs up is a bug
  slow_straggler.add(ev);
  EXPECT_THROW(slow_straggler.validate(), util::Error);

  fault::FaultPlan bad_burst;
  ev.magnitude = 2.0;
  ev.count = -3;
  bad_burst.add(ev);
  EXPECT_THROW(bad_burst.validate(), util::Error);

  fault::FaultPlan bad_duration;
  ev.count = 1;
  ev.duration = -5.0;
  bad_duration.add(ev);
  EXPECT_THROW(bad_duration.validate(), util::Error);

  ev.duration = 5.0;
  fault::FaultPlan good;
  good.add(ev);
  good.validate();
}

TEST(FaultPlan, HangAndStragglerStreamsAreIndependent) {
  // New fault classes append their Poisson streams after the existing ones:
  // enabling hangs must not move a single node-crash event.
  fault::FaultSpec crashes_only;
  crashes_only.node_crash_rate_per_h = 4.0;
  crashes_only.seed = 21;
  fault::FaultSpec with_hangs = crashes_only;
  with_hangs.job_hang_rate_per_h = 6.0;
  with_hangs.straggler_rate_per_h = 8.0;
  with_hangs.straggler_factor = 5.0;

  auto filter = [](const fault::FaultPlan& plan, fault::FaultKind kind) {
    std::vector<fault::FaultEvent> out;
    for (const auto& ev : plan.events())
      if (ev.kind == kind) out.push_back(ev);
    return out;
  };
  const auto a = fault::FaultPlan::generate(crashes_only, 3600.0, 8, 0);
  const auto b = fault::FaultPlan::generate(with_hangs, 3600.0, 8, 0);
  EXPECT_TRUE(same_events(filter(a, fault::FaultKind::kNodeCrash),
                          filter(b, fault::FaultKind::kNodeCrash)));
  const auto hangs = filter(b, fault::FaultKind::kJobHang);
  const auto stragglers = filter(b, fault::FaultKind::kStragglerJob);
  EXPECT_FALSE(hangs.empty());
  EXPECT_FALSE(stragglers.empty());
  for (const auto& ev : hangs) {
    EXPECT_GE(ev.time, 0.0);
    EXPECT_LT(ev.time, 3600.0);
    EXPECT_EQ(ev.count, with_hangs.hang_burst);
  }
  for (const auto& ev : stragglers)
    EXPECT_DOUBLE_EQ(ev.magnitude, 5.0);
}

}  // namespace
}  // namespace mummi
