// Golden-master contract: the science fingerprints of three seed campaign
// configurations are pinned under tests/data/golden/. Any change to campaign
// dynamics, RNG consumption, fold order, or serialization that moves a byte
// shows up here as a diff against the stored corpus — the cross-PR anchor
// the per-run determinism tests can't provide.
//
// Regenerate intentionally with scripts/regen_golden.sh (sets
// MUMMI_REGEN_GOLDEN=1) and commit the diff alongside the change that caused
// it. The goldens are produced and checked by the same toolchain in CI; a
// different libm/compiler may legitimately produce a different corpus.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/bytes.hpp"
#include "wm/campaign.hpp"

#ifndef MUMMI_GOLDEN_DIR
#error "MUMMI_GOLDEN_DIR must be defined by the build"
#endif

namespace mummi {
namespace {

namespace fs = std::filesystem;

std::map<std::string, std::string> summarize(const wm::CampaignResult& r) {
  const util::Bytes fp = r.science_fingerprint();
  char hex[32], cg[64];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(fp.data(), fp.size())));
  std::snprintf(cg, sizeof cg, "%.17g", r.cg_total_us);
  return {
      {"fingerprint_fnv1a", hex},
      {"fingerprint_bytes", std::to_string(fp.size())},
      {"snapshots", std::to_string(r.snapshots)},
      {"frame_candidates", std::to_string(r.frame_candidates)},
      {"analysis_frames", std::to_string(r.analysis_frames)},
      {"cg_total_us", cg},
  };
}

std::map<std::string, std::string> load_golden(const fs::path& file) {
  std::ifstream in(file);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

void store_golden(const fs::path& file,
                  const std::map<std::string, std::string>& kv) {
  std::ofstream out(file);
  out << "# Golden science fingerprint — regen via scripts/regen_golden.sh\n";
  for (const auto& [k, v] : kv) out << k << "=" << v << "\n";
}

void check_golden(const std::string& name, const wm::CampaignResult& result) {
  const fs::path file = fs::path(MUMMI_GOLDEN_DIR) / (name + ".golden");
  const auto got = summarize(result);
  if (std::getenv("MUMMI_REGEN_GOLDEN") != nullptr) {
    fs::create_directories(file.parent_path());
    store_golden(file, got);
    GTEST_SKIP() << "regenerated " << file;
  }
  ASSERT_TRUE(fs::exists(file))
      << file << " missing — run scripts/regen_golden.sh";
  const auto want = load_golden(file);
  for (const auto& [k, v] : want)
    EXPECT_EQ(got.at(k), v) << name << ": field '" << k
                            << "' diverged from golden corpus";
  EXPECT_EQ(got.size(), want.size()) << name << ": field set changed";
}

wm::CampaignConfig golden_plain() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 1, 1}};
  cfg.proteins_per_snapshot = 10;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 2021;
  return cfg;
}

wm::CampaignConfig golden_faulted() {
  wm::CampaignConfig cfg;
  cfg.runs = {{20, 2, 1}};
  cfg.proteins_per_snapshot = 20;
  cfg.perf.createsim_mean_s = 900;
  cfg.seed = 2022;
  cfg.supervise.enabled = true;
  cfg.faults.job_hang_rate_per_h = 10.0;
  cfg.faults.hang_burst = 2;
  cfg.faults.straggler_rate_per_h = 6.0;
  cfg.faults.straggler_burst = 2;
  cfg.faults.straggler_factor = 4.0;
  cfg.faults.node_crash_rate_per_h = 4.0;
  cfg.faults.node_down_mean_s = 300.0;
  cfg.faults.seed = 5;
  cfg.poison_payload_modulus = 3;
  return cfg;
}

TEST(GoldenFingerprintContract, PlainCampaign) {
  check_golden("plain", wm::Campaign(golden_plain()).run());
}

TEST(GoldenFingerprintContract, FaultedSupervisedCampaign) {
  check_golden("faulted_supervised", wm::Campaign(golden_faulted()).run());
}

TEST(GoldenFingerprintContract, CheckpointResumeCampaign) {
  const auto dir = fs::temp_directory_path() /
                   ("mummi_golden_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto cfg = golden_plain();
  cfg.runs = {{20, 2, 1}};
  cfg.seed = 2023;
  cfg.checkpoint_interval_s = 600;
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 1.45;
  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  cfg.crash_at_campaign_h = 0;
  const auto resumed = wm::Campaign(cfg).run();
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  fs::remove_all(dir);
  check_golden("checkpoint_resume", resumed);
}

TEST(GoldenFingerprintContract, JournalResumeCampaign) {
  // Four allocations with a save every 300 s: the crash lands after several
  // journal records on top of a compacted base, in the third allocation, so
  // resume replays selector logs written across allocation boundaries. The
  // pinned value was first produced by a single-image resume at the same
  // tick; base + journal must reproduce it.
  const auto dir = fs::temp_directory_path() /
                   ("mummi_golden_journal_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto cfg = golden_plain();
  cfg.runs = {{20, 1, 4}};
  cfg.proteins_per_snapshot = 60;
  cfg.seed = 2024;
  cfg.checkpoint_interval_s = 300;
  cfg.checkpoint_path = (dir / "campaign.ckpt").string();
  cfg.crash_at_campaign_h = 2.9;
  EXPECT_THROW(wm::Campaign(cfg).run(), wm::SimulatedCrash);
  cfg.crash_at_campaign_h = 0;
  const auto resumed = wm::Campaign(cfg).run();
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  fs::remove_all(dir);
  check_golden("journal_resume", resumed);
}

}  // namespace
}  // namespace mummi
