// Repository benchmark binary. Usually started by perfbench/run.py,
// which builds this tree first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--git-sha <sha>] [--src-digest <hex>]
//
// Prints a provenance line, one line per workload-named figure or note, and
// as the last line the result object {correct, attempted, failed, metrics}
// with the metrics this workload measures: end-to-end ones with --trace 0,
// per-layer ones with --trace 1. run.py completes the per-layer set from
// BENCHMARK.json (layers a workload does not exercise read 0).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Metric;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Refuses builds whose timings would not be comparable.
const char* build_problem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    return "CMAKE_BUILD_TYPE is not Release";
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
    return "sanitizer flags in CMAKE_CXX_FLAGS";
  if (!mummi::obs::kCompiledIn) return "telemetry compiled out";
  return nullptr;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <campaign_steady|campaign_churn|"
               "multiscale_chain|feedback_kv> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--git-sha <sha>] "
               "[--src-digest <hex>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string git_sha = "unavailable", src_digest = "unavailable";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--work-dir") opt.work_dir = val;
    else if (key == "--git-sha") git_sha = val;
    else if (key == "--src-digest") src_digest = val;
    else return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0))
    return usage();
  if (const char* problem = build_problem()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", problem);
    return 3;
  }

  mummi::util::Log::set_level(mummi::util::LogLevel::kError);
  mummi::obs::set_enabled(false);  // telemetry is on by default at runtime

  perfbench::Outcome outcome;
  try {
    if (opt.workload == "campaign_steady")
      outcome = perfbench::run_campaign(opt, false);
    else if (opt.workload == "campaign_churn")
      outcome = perfbench::run_campaign(opt, true);
    else if (opt.workload == "multiscale_chain")
      outcome = perfbench::run_chain(opt);
    else if (opt.workload == "feedback_kv")
      outcome = perfbench::run_feedback_kv(opt);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::size_t pool = perfbench::pool_size();
  std::printf(
      "{\"provenance\": {\"git_sha\": %s, \"src_digest\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %zu, "
      "\"pool_sizes\": {\"timed\": %zu, \"reference\": 1}, \"seed\": %llu, "
      "\"workload\": %s, \"seconds\": %s, \"trace\": %s}}\n",
      json_string(git_sha).c_str(), json_string(src_digest).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      static_cast<std::size_t>(std::thread::hardware_concurrency()), pool,
      static_cast<unsigned long long>(opt.seed),
      json_string(opt.workload).c_str(), json_number(opt.seconds).c_str(),
      opt.trace ? "true" : "false");
  if (!outcome.details.empty())
    std::printf("{\"figures\": %s}\n", json_metrics(outcome.details).c_str());
  for (const std::string& note : outcome.notes)
    std::printf("{\"note\": %s}\n", json_string(note).c_str());
  const bool correct = outcome.attempted > 0 && outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              json_metrics(outcome.metrics).c_str());
  return 0;
}
