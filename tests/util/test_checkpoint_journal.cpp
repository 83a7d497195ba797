// Decoder contract for checkpoint journals (DESIGN.md 4i): every damaged
// input either keeps the valid prefix of records — a torn tail, a flipped
// bit, an inflated length, recovered the way TarIdx::scan recovers a torn
// archive — or throws util::FormatError. Nothing aborts and nothing
// allocates more than the input holds (the suite runs under ASan+UBSan in
// scripts/tier1.sh).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/crash_point.hpp"
#include "util/checkpoint.hpp"

namespace mummi::util {
namespace {

const CheckpointId kBase{7, 0x1234abcd};

class CheckpointJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mummi_journal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path() const { return (dir_ / "j").string(); }

  /// Three records of different sizes; returns the raw journal and the end
  /// offset of each record.
  std::pair<Bytes, std::vector<std::size_t>> three_records() {
    CheckpointJournal journal(path());
    std::vector<std::size_t> ends;
    std::size_t at = 0;
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
      at += journal.append(kBase, seq, payload(seq));
      ends.push_back(at);
    }
    return {*read_file(path()), ends};
  }

  static Bytes payload(std::uint64_t seq) {
    return to_bytes("record-" + std::to_string(seq) +
                    std::string(5 * seq, 'x'));
  }

  /// Records a scan must keep when the byte at `offset` is damaged.
  static std::size_t records_before(const std::vector<std::size_t>& ends,
                                    std::size_t offset) {
    std::size_t n = 0;
    while (n < ends.size() && ends[n] <= offset) ++n;
    return n;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointJournalTest, RoundTripsRecordsInOrder) {
  const auto [raw, ends] = three_records();
  EXPECT_EQ(raw.size(), ends.back());
  const auto scan = CheckpointJournal(path()).scan(kBase);
  ASSERT_EQ(scan.size(), 3u);
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    EXPECT_EQ(scan[seq], payload(seq));
}

TEST_F(CheckpointJournalTest, MissingOrResetJournalIsEmpty) {
  CheckpointJournal journal(path());
  EXPECT_TRUE(journal.scan(kBase).empty());
  (void)journal.append(kBase, 0, payload(0));
  journal.reset();
  EXPECT_TRUE(journal.scan(kBase).empty());
  (void)journal.append(kBase, 0, payload(1));
  const auto scan = journal.scan(kBase);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0], payload(1));
}

TEST_F(CheckpointJournalTest, TornTailKeepsValidPrefix) {
  const auto [raw, ends] = three_records();
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    const Bytes torn(raw.begin(), raw.begin() + static_cast<long>(cut));
    const auto scan = CheckpointJournal::parse(torn, kBase);
    const std::size_t keep = records_before(ends, cut);
    ASSERT_EQ(scan.size(), keep) << "cut at " << cut;
    for (std::size_t i = 0; i < keep; ++i) EXPECT_EQ(scan[i], payload(i));
  }
}

TEST_F(CheckpointJournalTest, FlippedBitAnywhereKeepsPrefixBeforeIt) {
  const auto [raw, ends] = three_records();
  for (std::size_t byte = 0; byte < raw.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = raw;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto scan = CheckpointJournal::parse(flipped, kBase);
      const std::size_t keep = records_before(ends, byte);
      ASSERT_EQ(scan.size(), keep) << "byte " << byte << " bit " << bit;
      for (std::size_t i = 0; i < keep; ++i) EXPECT_EQ(scan[i], payload(i));
    }
}

TEST_F(CheckpointJournalTest, InflatedLengthDropsTheRecordWithoutAllocating) {
  const auto [raw, ends] = three_records();
  // The size field sits after the magic; inflate the second record's.
  for (const std::uint64_t size :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40,
        static_cast<std::uint64_t>(raw.size()), ~std::uint64_t{0}}) {
    Bytes bad = raw;
    std::memcpy(bad.data() + ends[0] + 8, &size, sizeof size);
    const auto scan = CheckpointJournal::parse(bad, kBase);
    ASSERT_EQ(scan.size(), 1u) << size;
    EXPECT_EQ(scan[0], payload(0));
  }
}

TEST_F(CheckpointJournalTest, StaleOrForeignBaseIgnoresTheJournal) {
  const auto [raw, ends] = three_records();
  // Stale: a compaction wrote a newer base but crashed before resetting
  // the journal. Foreign: same generation, different base content.
  for (const CheckpointId other :
       {CheckpointId{kBase.generation + 1, kBase.checksum},
        CheckpointId{kBase.generation - 1, kBase.checksum},
        CheckpointId{kBase.generation, kBase.checksum ^ 1}}) {
    EXPECT_TRUE(CheckpointJournal::parse(raw, other).empty());
  }
}

TEST_F(CheckpointJournalTest, ForeignRecordAfterValidOnesThrows) {
  CheckpointJournal journal(path());
  (void)journal.append(kBase, 0, payload(0));
  (void)journal.append(CheckpointId{kBase.generation + 1, 99}, 1, payload(1));
  EXPECT_THROW((void)journal.scan(kBase), FormatError);
}

TEST_F(CheckpointJournalTest, SequenceGapOrRepeatThrows) {
  {
    CheckpointJournal journal(path());
    (void)journal.append(kBase, 0, payload(0));
    (void)journal.append(kBase, 2, payload(2));
    EXPECT_THROW((void)journal.scan(kBase), FormatError);
  }
  CheckpointJournal repeat((dir_ / "repeat").string());
  (void)repeat.append(kBase, 0, payload(0));
  (void)repeat.append(kBase, 0, payload(0));
  EXPECT_THROW((void)repeat.scan(kBase), FormatError);
  CheckpointJournal late((dir_ / "late").string());
  (void)late.append(kBase, 1, payload(1));
  EXPECT_THROW((void)late.scan(kBase), FormatError);
}

TEST_F(CheckpointJournalTest, GarbageAndSplicesNeverEscapeTheContract) {
  // Deterministic mutations over the valid journal: truncations, splices of
  // one record's bytes over another and garbage runs. Each parse keeps a
  // prefix of the original records or throws FormatError — never anything
  // else.
  const auto [raw, ends] = three_records();
  std::vector<Bytes> inputs;
  inputs.push_back(to_bytes("not a journal at all"));
  inputs.push_back(Bytes(64, 0xff));
  inputs.push_back(Bytes(64, 0x00));
  for (std::size_t from = 0; from + 16 < raw.size(); from += 7)
    for (std::size_t to = 0; to + 16 < raw.size(); to += 11) {
      Bytes spliced = raw;
      std::memcpy(spliced.data() + to, raw.data() + from, 16);
      inputs.push_back(std::move(spliced));
    }
  for (const auto& input : inputs) {
    try {
      const auto scan = CheckpointJournal::parse(input, kBase);
      ASSERT_LE(scan.size(), 3u);
      for (std::size_t i = 0; i < scan.size(); ++i)
        EXPECT_EQ(scan[i], payload(i));
    } catch (const FormatError&) {
    }
  }
}

TEST_F(CheckpointJournalTest, AppendCrashPointsLeaveOldOrNewNeverTorn) {
  struct Case {
    const char* point;
    std::size_t records;  // what a scan recovers after the crash
  };
  const Case cases[] = {{"ckpt.journal.append.pre", 1},
                        {"ckpt.journal.append.mid", 1},
                        {"ckpt.journal.append.post", 2}};
  for (const auto& c : cases) {
    const std::string p = (dir_ / c.point).string();
    CheckpointJournal journal(p);
    const std::size_t first = journal.append(kBase, 0, payload(0));
    {
      fault::ScopedCrashHarness harness;
      harness.registry().arm(c.point);
      EXPECT_THROW((void)journal.append(kBase, 1, payload(1)),
                   fault::SimulatedCrash)
          << c.point;
    }
    const auto scan = journal.scan(kBase);
    ASSERT_EQ(scan.size(), c.records) << c.point;
    EXPECT_EQ(scan[0], payload(0));
    // "mid" leaves a torn record on disk; the scan dropped exactly that.
    EXPECT_EQ(read_file(p)->size() > first,
              std::string(c.point) != "ckpt.journal.append.pre")
        << c.point;
  }
}

TEST_F(CheckpointJournalTest, BaseIdsNameTheSavedFrame) {
  CheckpointFile ckpt((dir_ / "base").string());
  const auto first = ckpt.save(to_bytes("base one"));
  const auto second = ckpt.save(to_bytes("base two"));
  EXPECT_EQ(second.generation, first.generation + 1);
  EXPECT_NE(second.checksum, first.checksum);
  const auto loaded = CheckpointFile((dir_ / "base").string()).load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->id, second);
  EXPECT_EQ(to_string(loaded->payload), "base two");
}

}  // namespace
}  // namespace mummi::util
