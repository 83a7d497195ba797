// Resilience sweep: campaign goodput vs injected node-crash rate.
//
// Paper Sec. 4.4: "everything fails at scale" — the campaign survived node
// losses, Redis deaths and whole-workflow restarts. This bench quantifies the
// cost of that resilience machinery: the same seeded campaign runs under a
// sweep of node-crash rates, and the throughput/goodput curve shows how much
// science survives each failure regime. Results land as JSON in
// bench_outputs/resilience.json so the curve can be replotted without rerun.
//
// --crash-sweep instead runs the crash-consistency sweep (DESIGN.md 4i):
// every registered persistence boundary is killed once — one journal-append
// and one compaction checkpoint tick of a campaign, store operations
// mid-flight — recovery is attempted
// over the crashed on-disk state, and within-durability-group science
// fingerprints are compared. bench_outputs/crash_recovery.json reports
// points swept, recoveries and divergences (the contract demands zero).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "datastore/fs_store.hpp"
#include "datastore/taridx.hpp"
#include "fault/crash_point.hpp"
#include "util/checkpoint.hpp"
#include "wm/campaign.hpp"

using namespace mummi;

namespace {

wm::CampaignConfig base_config(bool full) {
  wm::CampaignConfig config;
  if (full) {
    config.runs = {{100, 6, 1}, {500, 12, 1}, {1000, 24, 2}};
    config.proteins_per_snapshot = 150;
  } else {
    config.runs = {{50, 2, 2}, {100, 3, 1}};
    config.proteins_per_snapshot = 60;
  }
  config.seed = 7;
  return config;
}

struct Sample {
  double crash_rate_per_h = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t patches_selected = 0;
  std::uint64_t cg_sims = 0;
  double cg_total_us = 0;
  double aa_total_ns = 0;
  double goodput_us_per_node_h = 0;
};

// Supervision sweep: the same hang/straggler/poison-laden campaign with the
// watchdog plane off vs on. Setup-heavy regime (fast setups, short sims, a
// small cluster) so every hung setup visibly starves the GPU pipeline — the
// configuration the campaign-level supervision tests validate.
wm::CampaignConfig supervised_config(bool full) {
  wm::CampaignConfig config;
  if (full) {
    config.runs = {{8, 6, 1}};
    config.proteins_per_snapshot = 40;
  } else {
    config.runs = {{4, 3, 1}};
    config.proteins_per_snapshot = 20;
  }
  config.perf.createsim_mean_s = 300;
  config.perf.backmap_mean_s = 300;
  config.cg_min_us = 0.05;
  config.cg_mean_us = 0.08;
  config.cg_max_us = 0.10;
  config.seed = 11;
  config.faults.seed = 9;
  return config;
}

struct SupSample {
  double hang_rate_per_h = 0;
  double unsup_cg_total_us = 0;
  double sup_cg_total_us = 0;
  double unsup_goodput = 0;
  double sup_goodput = 0;
  std::uint64_t hangs_detected = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t unsup_cg_sims = 0;
  std::uint64_t sup_cg_sims = 0;
};

// --- crash-consistency sweep -----------------------------------------------

struct SweepRow {
  std::string point;
  std::string mode;      // "campaign" or "store"
  bool crashed = false;  // the armed point actually fired
  bool recovered = false;
  bool divergent = false;
};

/// True if `got` matches one of the two legitimate post-crash states.
bool old_xor_new(const util::Bytes& got, const util::Bytes& old_v,
                 const util::Bytes& new_v) {
  return got == old_v || got == new_v;
}

wm::CampaignConfig crash_sweep_config(const std::string& ckpt_path) {
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

/// Campaign half: kill one journal-append tick and one compaction tick at
/// each of their boundaries, resume, and require byte-identical science
/// fingerprints within each durability group.
void sweep_campaign(const std::filesystem::path& dir,
                    std::vector<SweepRow>& rows) {
  using Group = std::vector<std::string>;
  const Group append_pre = {"wm.checkpoint.pre", "supervise.ledger.serialize",
                            "ckpt.journal.append.pre",
                            "ckpt.journal.append.mid"};
  const Group append_post = {"ckpt.journal.append.post", "wm.checkpoint.post"};
  const Group base_pre = {"wm.checkpoint.pre", "supervise.ledger.serialize",
                          "ckpt.save.pre_tmp", "util.write_file.pre",
                          "util.write_file.mid"};
  const Group base_post = {"util.write_file.post",  "ckpt.save.post_tmp",
                           "ckpt.save.post_bak",    "ckpt.save.post_rename",
                           "wm.checkpoint.compact.pre_reset",
                           "wm.checkpoint.post"};

  fault::ScopedCrashHarness harness;
  auto& reg = harness.registry();
  // Observe which ticks append and which write a base, then kill the first
  // steady-state tick (k >= 2: a previous state exists) of each kind.
  (void)wm::Campaign(crash_sweep_config((dir / "observe.ckpt").string())).run();
  const auto ticks = fault::split_hit_order(
      reg.hit_order(), "wm.checkpoint.pre", "wm.checkpoint.post");
  const fault::HitSegment* append_tick = nullptr;
  const fault::HitSegment* base_tick = nullptr;
  for (std::size_t t = 1; t < ticks.size(); ++t) {
    auto& slot = ticks[t].crossed("ckpt.save.pre_tmp") ? base_tick : append_tick;
    if (slot == nullptr) slot = &ticks[t];
  }

  int idx = 0;
  const std::pair<const fault::HitSegment*, const Group*> shots[] = {
      {append_tick, &append_pre},
      {append_tick, &append_post},
      {base_tick, &base_pre},
      {base_tick, &base_post}};
  for (const auto& [tick, group] : shots) {
    util::Bytes reference;
    for (const auto& point : *group) {
      SweepRow row;
      row.point = point;
      row.mode = "campaign";
      auto cfg = crash_sweep_config(
          (dir / ("campaign_" + std::to_string(idx++) + ".ckpt")).string());
      reg.reset();
      if (tick != nullptr && tick->crossed(point)) {
        reg.arm(point, tick->nth.at(point));
        try {
          (void)wm::Campaign(cfg).run();
        } catch (const fault::SimulatedCrash&) {
          row.crashed = true;
        }
        reg.disarm();
      }
      if (row.crashed) {
        const auto result = wm::Campaign(cfg).run();
        row.recovered =
            result.resumed_from_checkpoint && result.patches_selected > 0;
        const auto fp = result.science_fingerprint();
        if (reference.empty()) reference = fp;
        row.divergent = fp != reference;
      }
      std::printf("  %-32s crashed=%d recovered=%d divergent=%d\n",
                  point.c_str(), row.crashed, row.recovered, row.divergent);
      rows.push_back(std::move(row));
    }
  }
}

/// Store half: FsStore, CheckpointFile and TarIdx killed mid-operation; the
/// recovered state must be old-xor-new, never torn.
void sweep_stores(const std::filesystem::path& dir,
                  std::vector<SweepRow>& rows) {
  fault::ScopedCrashHarness harness;
  auto& reg = harness.registry();
  const util::Bytes old_v = util::to_bytes("old"), new_v = util::to_bytes("new");
  int idx = 0;

  auto run_case = [&](const std::string& point, std::uint64_t nth,
                      const std::function<void()>& operation,
                      const std::function<bool()>& verify) {
    SweepRow row;
    row.point = point;
    row.mode = "store";
    reg.reset();
    reg.arm(point, nth);
    try {
      operation();
    } catch (const fault::SimulatedCrash&) {
      row.crashed = true;
    }
    reg.disarm();
    if (row.crashed) row.recovered = verify();
    std::printf("  %-32s crashed=%d recovered=%d\n", point.c_str(),
                row.crashed, row.recovered);
    rows.push_back(std::move(row));
  };

  // FsStore::put at each boundary.
  for (const char* point :
       {"fs.put.pre_tmp", "fs.put.post_tmp", "fs.put.post_rename"}) {
    const std::string root = (dir / ("fs_" + std::to_string(idx++))).string();
    ds::FsStore store(root);
    store.put("ns", "k", old_v);
    run_case(
        point, 1, [&] { store.put("ns", "k", new_v); },
        [&] {
          ds::FsStore r(root);
          return old_xor_new(r.get("ns", "k"), old_v, new_v);
        });
  }

  // FsStore::move / move_many / erase.
  {
    const std::string root = (dir / "fs_move").string();
    ds::FsStore store(root);
    for (const char* point : {"fs.move.pre", "fs.move.post"}) {
      store.put("src", "k", old_v);
      store.erase("dst", "k");
      run_case(
          point, 1, [&] { store.move("src", "k", "dst"); },
          [&] {
            ds::FsStore r(root);
            return r.exists("src", "k") != r.exists("dst", "k");
          });
    }
    for (const char* k : {"a", "b", "c"}) store.put("msrc", k, old_v);
    run_case(
        "fs.move_many.mid", 2,
        [&] { store.move_many("msrc", {"a", "b", "c"}, "mdst"); },
        [&] {
          ds::FsStore r(root);
          for (const char* k : {"a", "b", "c"})
            if (r.exists("msrc", k) == r.exists("mdst", k)) return false;
          return true;
        });
    store.put("del", "k", old_v);
    run_case(
        "fs.del.pre", 1, [&] { store.erase("del", "k"); },
        [&] {
          ds::FsStore r(root);
          return !r.exists("del", "k") ||
                 old_xor_new(r.get("del", "k"), old_v, new_v);
        });
  }

  // CheckpointFile::save at each boundary.
  for (const char* point : {"ckpt.save.pre_tmp", "ckpt.save.post_tmp",
                            "ckpt.save.post_bak", "ckpt.save.post_rename"}) {
    const std::string p = (dir / ("ckpt_" + std::to_string(idx++))).string();
    util::CheckpointFile ckpt(p);
    ckpt.save(old_v);
    run_case(
        point, 1, [&] { ckpt.save(new_v); },
        [&] {
          const auto got = util::CheckpointFile(p).load();
          return got && old_xor_new(*got, old_v, new_v);
        });
  }

  // CheckpointJournal::append at each boundary: the journal keeps the old
  // record alone or both, never a torn one.
  const util::CheckpointId base{1, 1};
  for (const char* point : {"ckpt.journal.append.pre", "ckpt.journal.append.mid",
                            "ckpt.journal.append.post"}) {
    const std::string p = (dir / ("journal_" + std::to_string(idx++))).string();
    util::CheckpointJournal journal(p);
    (void)journal.append(base, 0, old_v);
    run_case(
        point, 1, [&] { (void)journal.append(base, 1, new_v); },
        [&] {
          const auto got = util::CheckpointJournal(p).scan(base);
          return (got.size() == 1 || (got.size() == 2 && got[1] == new_v)) &&
                 got[0] == old_v;
        });
  }

  // TarIdx append/flush at each boundary. Member data spans multiple blocks
  // so a torn append is detectably truncated on rescan.
  const util::Bytes big(2048, 0x5a);
  for (const char* point : {"tar.append.pre", "tar.append.mid",
                            "tar.append.post", "tar.flush.post_trailer"}) {
    const std::string tar =
        (dir / ("tar_" + std::to_string(idx++) + ".tar")).string();
    ds::TarIdx writer(tar);
    writer.append("k1", old_v);
    writer.flush();
    run_case(
        point, 1,
        [&] {
          writer.append("k2", big);
          writer.flush();
        },
        [&] {
          // Restart view without the old process tidying up: drop the
          // sidecar so recovery rescans the archive itself.
          std::filesystem::remove(tar + ".idx");
          ds::TarIdx r(tar);
          if (!r.contains("k1") || *r.read("k1") != old_v) return false;
          return !r.contains("k2") || *r.read("k2") == big;
        });
  }
}

int run_crash_sweep() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_bench_crash_sweep_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::printf("=== Crash-consistency sweep (campaign checkpoint path) ===\n");
  std::vector<SweepRow> rows;
  sweep_campaign(dir, rows);
  std::printf("\n=== Crash-consistency sweep (stores) ===\n");
  sweep_stores(dir, rows);
  std::filesystem::remove_all(dir);

  std::map<std::string, bool> seen;
  std::size_t recoveries = 0, divergences = 0, crashes = 0;
  for (const auto& row : rows) {
    seen[row.point] = true;
    crashes += row.crashed ? 1u : 0u;
    recoveries += row.recovered ? 1u : 0u;
    divergences += row.divergent ? 1u : 0u;
  }
  std::printf("\npoints swept: %zu  crashes: %zu  recoveries: %zu"
              "  divergences: %zu\n",
              seen.size(), crashes, recoveries, divergences);

  std::filesystem::create_directories("bench_outputs");
  const std::string path = "bench_outputs/crash_recovery.json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"crash_recovery\",\n");
  std::fprintf(out, "  \"points_swept\": %zu,\n", seen.size());
  std::fprintf(out, "  \"crashes\": %zu,\n", crashes);
  std::fprintf(out, "  \"recoveries\": %zu,\n", recoveries);
  std::fprintf(out, "  \"divergences\": %zu,\n", divergences);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(out,
                 "    {\"point\": \"%s\", \"mode\": \"%s\", \"crashed\": %s, "
                 "\"recovered\": %s, \"divergent\": %s}%s\n",
                 r.point.c_str(), r.mode.c_str(),
                 r.crashed ? "true" : "false", r.recovered ? "true" : "false",
                 r.divergent ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--crash-sweep") == 0)
    return run_crash_sweep();
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  const std::vector<double> rates = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};

  std::printf("=== Resilience sweep: goodput vs node-crash rate (%s) ===\n\n",
              full ? "full" : "small");
  std::printf("%10s %8s %8s %10s %8s %12s %14s\n", "crashes/h", "faults",
              "killed", "patches", "cg_sims", "cg_us", "us/node-hour");

  std::vector<Sample> samples;
  for (const double rate : rates) {
    auto config = base_config(full);
    config.faults.seed = 13;
    config.faults.node_crash_rate_per_h = rate;
    config.faults.node_down_mean_s = 600.0;
    const auto result = wm::Campaign(std::move(config)).run();

    Sample s;
    s.crash_rate_per_h = rate;
    s.faults_injected = result.faults_injected;
    s.jobs_killed = result.fault_jobs_killed;
    s.patches_selected = result.patches_selected;
    s.cg_sims = result.cg_lengths_us.size();
    s.cg_total_us = result.cg_total_us;
    s.aa_total_ns = result.aa_total_ns;
    s.goodput_us_per_node_h =
        result.node_hours > 0 ? result.cg_total_us / result.node_hours : 0.0;
    samples.push_back(s);

    std::printf("%10.1f %8llu %8llu %10llu %8llu %12.1f %14.4f\n", rate,
                static_cast<unsigned long long>(s.faults_injected),
                static_cast<unsigned long long>(s.jobs_killed),
                static_cast<unsigned long long>(s.patches_selected),
                static_cast<unsigned long long>(s.cg_sims), s.cg_total_us,
                s.goodput_us_per_node_h);
  }

  const double base = samples.front().goodput_us_per_node_h;
  if (base > 0) {
    std::printf("\ngoodput retained at max rate: %.1f%%\n",
                100.0 * samples.back().goodput_us_per_node_h / base);
  }

  std::filesystem::create_directories("bench_outputs");
  const std::string path = "bench_outputs/resilience.json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"resilience_sweep\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n  \"samples\": [\n",
               full ? "full" : "small");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(out,
                 "    {\"crash_rate_per_h\": %.3f, \"faults_injected\": %llu, "
                 "\"jobs_killed\": %llu, \"patches_selected\": %llu, "
                 "\"cg_sims\": %llu, \"cg_total_us\": %.3f, "
                 "\"aa_total_ns\": %.3f, \"goodput_us_per_node_h\": %.6f}%s\n",
                 s.crash_rate_per_h,
                 static_cast<unsigned long long>(s.faults_injected),
                 static_cast<unsigned long long>(s.jobs_killed),
                 static_cast<unsigned long long>(s.patches_selected),
                 static_cast<unsigned long long>(s.cg_sims), s.cg_total_us,
                 s.aa_total_ns, s.goodput_us_per_node_h,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());

  // --- supervised-vs-unsupervised sweep ------------------------------------
  const std::vector<double> hang_rates = {0.0, 2.0, 4.0, 6.0, 8.0};
  std::printf("\n=== Supervision sweep: goodput vs job-hang rate ===\n\n");
  std::printf("%8s %12s %12s %10s %8s %8s\n", "hangs/h", "unsup_cg_us",
              "sup_cg_us", "recovered", "caught", "quar");

  std::vector<SupSample> sup_samples;
  for (const double rate : hang_rates) {
    auto config = supervised_config(full);
    config.faults.job_hang_rate_per_h = rate;
    const auto unsup = wm::Campaign(config).run();
    config.supervise.enabled = true;
    config.supervise.speculate = false;  // twins just queue on a tiny cluster
    const auto sup = wm::Campaign(config).run();

    SupSample s;
    s.hang_rate_per_h = rate;
    s.unsup_cg_total_us = unsup.cg_total_us;
    s.sup_cg_total_us = sup.cg_total_us;
    s.unsup_goodput =
        unsup.node_hours > 0 ? unsup.cg_total_us / unsup.node_hours : 0.0;
    s.sup_goodput = sup.node_hours > 0 ? sup.cg_total_us / sup.node_hours : 0.0;
    s.hangs_detected = sup.supervision.hangs_detected;
    s.quarantined = sup.supervision.quarantined;
    s.unsup_cg_sims = unsup.cg_lengths_us.size();
    s.sup_cg_sims = sup.cg_lengths_us.size();
    sup_samples.push_back(s);

    const double recovered = s.unsup_cg_total_us > 0
                                 ? s.sup_cg_total_us / s.unsup_cg_total_us
                                 : 1.0;
    std::printf("%8.1f %12.3f %12.3f %9.2fx %8llu %8llu\n", rate,
                s.unsup_cg_total_us, s.sup_cg_total_us, recovered,
                static_cast<unsigned long long>(s.hangs_detected),
                static_cast<unsigned long long>(s.quarantined));
  }

  // One combined sample on top of the pure-hang curve: stragglers and poison
  // payloads exercise the speculation and quarantine arms of the plane.
  auto combined_cfg = supervised_config(full);
  combined_cfg.faults.job_hang_rate_per_h = 4.0;
  combined_cfg.faults.straggler_rate_per_h = 2.0;
  combined_cfg.faults.straggler_factor = 4.0;
  combined_cfg.poison_payload_modulus = 7;
  const auto combined_unsup = wm::Campaign(combined_cfg).run();
  combined_cfg.supervise.enabled = true;
  combined_cfg.supervise.speculate = false;
  const auto combined_sup = wm::Campaign(combined_cfg).run();
  std::printf(
      "\ncombined (hang 4/h + straggler 2/h + poison 1-in-7): "
      "cg %.3f -> %.3f us, caught=%llu quarantined=%llu "
      "first_quarantine=%.0f s\n",
      combined_unsup.cg_total_us, combined_sup.cg_total_us,
      static_cast<unsigned long long>(combined_sup.supervision.hangs_detected),
      static_cast<unsigned long long>(combined_sup.supervision.quarantined),
      combined_sup.supervision.first_quarantine_s);

  const std::string sup_path = "bench_outputs/resilience_supervised.json";
  out = std::fopen(sup_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", sup_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"supervision_sweep\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n  \"samples\": [\n",
               full ? "full" : "small");
  for (std::size_t i = 0; i < sup_samples.size(); ++i) {
    const auto& s = sup_samples[i];
    std::fprintf(
        out,
        "    {\"hang_rate_per_h\": %.3f, \"unsupervised_cg_total_us\": %.3f, "
        "\"supervised_cg_total_us\": %.3f, "
        "\"unsupervised_goodput_us_per_node_h\": %.6f, "
        "\"supervised_goodput_us_per_node_h\": %.6f, "
        "\"hangs_detected\": %llu, \"quarantined\": %llu, "
        "\"unsupervised_cg_sims\": %llu, \"supervised_cg_sims\": %llu}%s\n",
        s.hang_rate_per_h, s.unsup_cg_total_us, s.sup_cg_total_us,
        s.unsup_goodput, s.sup_goodput,
        static_cast<unsigned long long>(s.hangs_detected),
        static_cast<unsigned long long>(s.quarantined),
        static_cast<unsigned long long>(s.unsup_cg_sims),
        static_cast<unsigned long long>(s.sup_cg_sims),
        i + 1 < sup_samples.size() ? "," : ",");
  }
  std::fprintf(
      out,
      "    {\"combined\": true, \"hang_rate_per_h\": 4.0, "
      "\"straggler_rate_per_h\": 2.0, \"poison_payload_modulus\": 7, "
      "\"unsupervised_cg_total_us\": %.3f, \"supervised_cg_total_us\": %.3f, "
      "\"hangs_detected\": %llu, \"quarantined\": %llu, "
      "\"first_quarantine_s\": %.1f}\n",
      combined_unsup.cg_total_us, combined_sup.cg_total_us,
      static_cast<unsigned long long>(combined_sup.supervision.hangs_detected),
      static_cast<unsigned long long>(combined_sup.supervision.quarantined),
      combined_sup.supervision.first_quarantine_s);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", sup_path.c_str());
  return 0;
}
