// Campaign maintain-tick thread sweep: runs the same campaign with the
// in-situ analysis plane on 1/2/4/8 pool workers, checks the bit-identity
// contract (science_fingerprint byte-equal across every thread count), and
// writes bench_outputs/campaign_parallel.json with wall time plus a
// deterministic model of the per-tick block schedule
// (schedule_model_speedup). bench_smoke.sh validates the JSON; wall scaling
// is host-dependent and informational (the tick is a small slice of total
// campaign wall time).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/campaign_common.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "wm/insitu.hpp"

using namespace mummi;

namespace {

std::string fingerprint_hex(const util::Bytes& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

// Relative per-sim costs in the tick's fused pass, from the work each sim
// does: stepping regenerates 22 bead positions; analysis runs the RDF pair
// loops (4 species x 4 heads x 6 protein beads) plus the candidate and
// descriptor draws. Only the ratio to the fold matters to the schedule.
constexpr double kStepCostPerSim = 22.0;
constexpr double kAnalysisCostPerSim = 96.0;

/// Deterministic model of the tick schedule: per tick, the fused pass's
/// blocks (kInSituSubBlock sims, each costing step plus analysis) are
/// greedily list-scheduled onto T workers in block order.
/// schedule_model_speedup = sum(serial) / sum(makespan) over all ticks; it
/// depends only on (tick_sims, T), so it is identical on every host. It is a
/// model of the schedule, not a measured speedup (wall_s is the measurement).
double schedule_model_speedup(const std::vector<std::uint32_t>& tick_sims,
                              int threads) {
  double serial = 0.0, makespan = 0.0;
  std::vector<double> worker(static_cast<std::size_t>(threads), 0.0);
  for (const std::uint32_t n : tick_sims) {
    if (n == 0) continue;
    std::fill(worker.begin(), worker.end(), 0.0);
    for (std::size_t lo = 0; lo < n; lo += wm::kInSituSubBlock) {
      const std::size_t sims =
          std::min<std::size_t>(wm::kInSituSubBlock, n - lo);
      const double cost =
          (kStepCostPerSim + kAnalysisCostPerSim) * static_cast<double>(sims);
      serial += cost;
      *std::min_element(worker.begin(), worker.end()) += cost;
    }
    makespan += *std::max_element(worker.begin(), worker.end());
  }
  return makespan > 0 ? serial / makespan : 1.0;
}

struct Row {
  int threads;
  double wall_s, model;
  bool identical;
  std::string fingerprint;
};

}  // namespace

int main(int argc, char** argv) {
  wm::CampaignConfig base = bench::campaign_config(argc, argv);
  base.seed = 7;
  std::printf("=== campaign maintain tick: in-situ thread sweep ===\n");
  std::printf("(%s schedule, sub-block %zu)\n\n",
              bench::scale_label(argc, argv), wm::kInSituSubBlock);

  std::vector<Row> rows;
  std::string serial_fp;
  std::vector<std::uint32_t> serial_ticks;
  std::uint64_t analysis_frames = 0;
  std::printf("%8s %12s %14s %10s\n", "threads", "wall s", "model speedup",
              "identical");
  for (const int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    // A 1-worker pool takes the inline path; pass null to make that explicit.
    auto cfg = base;
    cfg.insitu_pool = threads > 1 ? &pool : nullptr;
    util::Stopwatch wall;
    const auto result = wm::Campaign(cfg).run();
    const double wall_s = wall.elapsed();
    const std::string fp = fingerprint_hex(result.science_fingerprint());
    if (threads == 1) {
      serial_fp = fp;
      serial_ticks = result.tick_sims;
      analysis_frames = result.analysis_frames;
    }
    const bool identical = fp == serial_fp;
    const double model = schedule_model_speedup(serial_ticks, threads);
    std::printf("%8d %12.3f %14.2f %10s\n", threads, wall_s, model,
                identical ? "yes" : "NO");
    rows.push_back({threads, wall_s, model, identical, fp});
  }
  std::printf("\n%llu frames analyzed across %zu ticks; fingerprint %s\n",
              static_cast<unsigned long long>(analysis_frames),
              serial_ticks.size(), serial_fp.c_str());

  std::filesystem::create_directories("bench_outputs");
  std::FILE* f = std::fopen("bench_outputs/campaign_parallel.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench_outputs/campaign_parallel.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"campaign_parallel\",\n"
               "  \"ticks\": %zu,\n  \"analysis_frames\": %llu,\n"
               "  \"rows\": [\n",
               serial_ticks.size(),
               static_cast<unsigned long long>(analysis_frames));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s\": %.3f, "
                 "\"schedule_model_speedup\": %.3f, \"identical\": %s, "
                 "\"fingerprint\": \"%s\"}%s\n",
                 r.threads, r.wall_s, r.model, r.identical ? "true" : "false",
                 r.fingerprint.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote bench_outputs/campaign_parallel.json\n");
  for (const Row& r : rows)
    if (!r.identical) {
      std::fprintf(stderr,
                   "campaign_parallel: fingerprint diverged at %d threads\n",
                   r.threads);
      return 1;
    }
  return 0;
}
