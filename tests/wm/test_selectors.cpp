#include "wm/selectors.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace mummi::wm {
namespace {

std::vector<ml::HDPoint> points9d(int n, ml::PointId base, float offset) {
  std::vector<ml::HDPoint> out;
  for (int i = 0; i < n; ++i) {
    ml::HDPoint p;
    p.id = base + static_cast<ml::PointId>(i);
    p.coords.assign(9, offset + 0.1f * static_cast<float>(i));
    out.push_back(std::move(p));
  }
  return out;
}

TEST(PatchSelector, FiveQueuesIngestIndependently) {
  PatchSelector sel(9, 5, 35000);
  EXPECT_EQ(sel.n_queues(), 5);
  for (int q = 0; q < 5; ++q)
    sel.add(q, points9d(10, static_cast<ml::PointId>(q) * 100, q * 1.0f));
  EXPECT_EQ(sel.candidate_count(), 50u);
  EXPECT_EQ(sel.selected_count(), 0u);
}

TEST(PatchSelector, RoundRobinAcrossQueues) {
  PatchSelector sel(9, 3, 1000);
  sel.add(0, points9d(5, 0, 0.0f));
  sel.add(1, points9d(5, 100, 1.0f));
  sel.add(2, points9d(5, 200, 2.0f));
  const auto picks = sel.select(6);
  ASSERT_EQ(picks.size(), 6u);
  std::set<int> queues_first3{picks[0].queue, picks[1].queue, picks[2].queue};
  EXPECT_EQ(queues_first3.size(), 3u);  // one from each queue
}

TEST(PatchSelector, SkipsEmptyQueues) {
  PatchSelector sel(9, 4, 1000);
  sel.add(2, points9d(3, 0, 0.0f));
  const auto picks = sel.select(3);
  EXPECT_EQ(picks.size(), 3u);
  for (const auto& p : picks) EXPECT_EQ(p.queue, 2);
  EXPECT_TRUE(sel.select(1).empty());
}

TEST(PatchSelector, CapacityPerQueue) {
  PatchSelector sel(9, 2, 20);
  sel.add(0, points9d(50, 0, 0.0f));
  sel.update_ranks();
  EXPECT_LE(sel.candidate_count(), 20u);
}

TEST(PatchSelector, QueueOutOfRangeRejected) {
  PatchSelector sel(9, 5, 100);
  EXPECT_THROW(sel.add(5, points9d(1, 0, 0.0f)), util::Error);
  EXPECT_THROW(sel.add(-1, points9d(1, 0, 0.0f)), util::Error);
}

TEST(PatchSelector, SerializeRestoreRoundTrip) {
  PatchSelector sel(9, 3, 100);
  for (int q = 0; q < 3; ++q) sel.add(q, points9d(8, q * 50u, q * 1.0f));
  (void)sel.select(4);
  const auto state = sel.serialize();

  PatchSelector restored(9, 3, 100);
  restored.restore(state);
  EXPECT_EQ(restored.candidate_count(), sel.candidate_count());
  EXPECT_EQ(restored.selected_count(), sel.selected_count());
  // Future selections agree.
  for (int i = 0; i < 5; ++i) {
    const auto a = sel.select(1);
    const auto b = restored.select(1);
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(a[0].point.id, b[0].point.id);
      EXPECT_EQ(a[0].queue, b[0].queue);
    }
  }
}

TEST(PatchSelector, RestoreRejectsQueueMismatch) {
  PatchSelector a(9, 3, 100), b(9, 5, 100);
  EXPECT_THROW(b.restore(a.serialize()), util::Error);
}

TEST(PatchSelector, ConcurrentAddAndSelect) {
  // Selectors are shared between the selection task and the feedback task
  // (paper: "thread-safe objects ... blocking and nonblocking locks").
  PatchSelector sel(9, 5, 10000);
  std::thread adder([&] {
    for (int i = 0; i < 50; ++i)
      sel.add(i % 5, points9d(20, static_cast<ml::PointId>(i) * 1000, 0.5f));
  });
  std::thread selector([&] {
    std::size_t got = 0;
    while (got < 100) got += sel.select(10).size();
  });
  adder.join();
  selector.join();
  EXPECT_EQ(sel.selected_count(), 100u);
}

TEST(FrameSelector, AddSelectBasics) {
  FrameSelector sel(0.8, 7);
  std::vector<ml::HDPoint> frames;
  for (int i = 0; i < 100; ++i)
    frames.push_back({static_cast<ml::PointId>(i),
                      {static_cast<float>(i % 90), static_cast<float>(i * 3.6),
                       0.5f + 0.02f * static_cast<float>(i % 10)}});
  sel.add(frames);
  EXPECT_EQ(sel.candidate_count(), 100u);
  const auto picks = sel.select(10);
  EXPECT_EQ(picks.size(), 10u);
  EXPECT_EQ(sel.selected_count(), 10u);
  EXPECT_EQ(sel.candidate_count(), 90u);
}

TEST(FrameSelector, SerializeRestoreRoundTrip) {
  FrameSelector sel(0.8, 7);
  std::vector<ml::HDPoint> frames;
  for (int i = 0; i < 50; ++i)
    frames.push_back({static_cast<ml::PointId>(i),
                      {30.0f, 100.0f, 1.0f}});
  sel.add(frames);
  (void)sel.select(5);
  FrameSelector restored(0.8, 7);
  restored.restore(sel.serialize());
  EXPECT_EQ(restored.candidate_count(), 45u);
  EXPECT_EQ(restored.selected_count(), 5u);
}

TEST(FrameSelector, DescriptorRangesLandInDistinctBins) {
  FrameSelector sel(1.0, 1);
  // Extremes of the (tilt, rotation, separation) space.
  sel.add({{1, {5.0f, 10.0f, 0.2f}}, {2, {85.0f, 350.0f, 2.8f}}});
  const auto picks = sel.select(2);
  EXPECT_EQ(picks.size(), 2u);
}

// --- mutation logs for checkpoint journals ---------------------------------

std::vector<ml::HDPoint> frames3d(int n, ml::PointId base) {
  std::vector<ml::HDPoint> out;
  for (int i = 0; i < n; ++i)
    out.push_back({base + static_cast<ml::PointId>(i),
                   {static_cast<float>((i * 7) % 90),
                    static_cast<float>((i * 37) % 360),
                    0.1f * static_cast<float>(i % 30)}});
  return out;
}

/// A base image, then a run of logged mutations over both add overloads,
/// batched selects and a rank refresh.
struct LoggedPatches {
  PatchSelector live{9, 3, 40};
  util::Bytes base;
  util::Bytes log;

  LoggedPatches() {
    for (int q = 0; q < 3; ++q) live.add(q, points9d(10, q * 100u, q * 1.0f));
    (void)live.select(4);
    base = live.serialize();
    live.set_log_enabled(true);
    ml::PointStore flat(9);
    float c[9];
    for (int i = 0; i < 30; ++i) {
      for (int d = 0; d < 9; ++d) c[d] = 0.37f * static_cast<float>(i + d);
      flat.add(1000 + static_cast<ml::PointId>(i), c);
    }
    live.add(1, flat);
    (void)live.select(7);
    live.add(2, points9d(25, 2000, 3.5f));
    (void)live.update_ranks();
    (void)live.select(100);  // more than the pools hold
    log = live.take_log();
  }
};

TEST(SelectorLog, OffByDefaultAndOffLogsNothing) {
  PatchSelector patches(9, 2, 100);
  patches.add(0, points9d(5, 0, 0.0f));
  (void)patches.select(2);
  EXPECT_TRUE(patches.take_log().empty());
  FrameSelector frames(0.8, 3);
  frames.add(frames3d(5, 0));
  (void)frames.select(2);
  EXPECT_TRUE(frames.take_log().empty());
}

TEST(SelectorLog, PatchReplayReproducesTheLiveSelector) {
  LoggedPatches run;
  EXPECT_TRUE(run.live.take_log().empty()) << "take_log starts a new log";
  PatchSelector replayed(9, 3, 40);
  replayed.restore(run.base);
  replayed.replay(run.log);
  EXPECT_EQ(replayed.candidate_count(), run.live.candidate_count());
  EXPECT_EQ(replayed.selected_count(), run.live.selected_count());
  EXPECT_EQ(replayed.serialize(), run.live.serialize());
  EXPECT_TRUE(replayed.take_log().empty()) << "replay must not log";
  run.live.add(0, points9d(12, 5000, 0.25f));
  replayed.add(0, points9d(12, 5000, 0.25f));
  const auto a = run.live.select(9);
  const auto b = replayed.select(9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.id, b[i].point.id);
    EXPECT_EQ(a[i].queue, b[i].queue);
  }
}

TEST(SelectorLog, FrameReplayReproducesTheLiveSelector) {
  FrameSelector live(0.8, 11);
  live.add(frames3d(40, 0));
  (void)live.select(5);
  const auto base = live.serialize();
  live.set_log_enabled(true);
  ml::PointStore flat(3);
  for (int i = 0; i < 20; ++i) {
    const float c[3] = {static_cast<float>(i * 4), static_cast<float>(i * 17),
                        0.15f * static_cast<float>(i)};
    flat.add(500 + static_cast<ml::PointId>(i), c);
  }
  live.add(flat);
  (void)live.select(12);
  live.add(frames3d(15, 900));
  (void)live.select(200);
  const auto log = live.take_log();

  FrameSelector replayed(0.8, 11);
  replayed.restore(base);
  replayed.replay(log);
  EXPECT_EQ(replayed.serialize(), live.serialize());
}

TEST(SelectorLog, DivergentSelectionThrowsFormatError) {
  LoggedPatches run;
  // Replayed onto a different starting state, the first select picks other
  // candidates than the log recorded.
  PatchSelector other(9, 3, 40);
  for (int q = 0; q < 3; ++q) other.add(q, points9d(10, q * 100u, q * 1.0f));
  other.add(0, points9d(1, 77777, 9.0f));  // a far outlier FPS picks first
  EXPECT_THROW(other.replay(run.log), util::FormatError);

  FrameSelector frames(0.8, 11);
  frames.add(frames3d(30, 0));
  frames.set_log_enabled(true);
  (void)frames.select(6);
  const auto log = frames.take_log();
  FrameSelector reseeded(0.8, 12);  // same candidates, another stream
  reseeded.add(frames3d(30, 0));
  EXPECT_THROW(reseeded.replay(log), util::FormatError);
}

TEST(SelectorLog, MalformedLogsThrowFormatError) {
  const auto replay_fresh = [](const util::Bytes& log) {
    PatchSelector sel(9, 3, 40);
    for (int q = 0; q < 3; ++q) sel.add(q, points9d(10, q * 100u, q * 1.0f));
    sel.replay(log);
  };
  util::ByteWriter unknown;
  unknown.u8('Z');
  EXPECT_THROW(replay_fresh(unknown.data()), util::FormatError);

  util::ByteWriter bad_queue;
  bad_queue.u8('A');
  bad_queue.u32(3);
  ml::PointStore(9).serialize(bad_queue);
  EXPECT_THROW(replay_fresh(bad_queue.data()), util::FormatError);

  util::ByteWriter bad_dim;
  bad_dim.u8('A');
  bad_dim.u32(0);
  ml::PointStore(3).serialize(bad_dim);
  EXPECT_THROW(replay_fresh(bad_dim.data()), util::FormatError);

  util::ByteWriter zero_dim;
  zero_dim.u8('A');
  zero_dim.u32(0);
  zero_dim.u32(0);
  zero_dim.u64(0);
  zero_dim.u64(0);
  EXPECT_THROW(replay_fresh(zero_dim.data()), util::FormatError);

  // A select record claiming more picks than the log holds is refused
  // before anything is selected or allocated; so is an absurd k.
  util::ByteWriter inflated;
  inflated.u8('S');
  inflated.u64(~std::uint64_t{0});
  inflated.u64(std::uint64_t{1} << 60);
  EXPECT_THROW(replay_fresh(inflated.data()), util::FormatError);
  util::ByteWriter huge_k;
  huge_k.u8('S');
  huge_k.u64(~std::uint64_t{0});
  huge_k.u64(0);
  EXPECT_THROW(replay_fresh(huge_k.data()), util::FormatError);

  // Every truncation of a valid log either replays a whole-op prefix or
  // throws FormatError.
  LoggedPatches run;
  for (std::size_t cut = 0; cut < run.log.size(); ++cut) {
    const util::Bytes torn(run.log.begin(),
                           run.log.begin() + static_cast<long>(cut));
    PatchSelector sel(9, 3, 40);
    sel.restore(run.base);
    try {
      sel.replay(torn);
    } catch (const util::FormatError&) {
    }
  }
}

}  // namespace
}  // namespace mummi::wm
