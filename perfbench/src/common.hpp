// Shared plumbing for the repository benchmark: run options, the result
// record every workload fills, order statistics, and the span accounting
// that turns an obs trace into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds since `t0`.
double since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout that this run owns (checkpoints).
  std::string work_dir;
};

/// One named value with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the output-check tally, the
/// metrics of the requested mode, and descriptive lines (workload-named
/// figures, dominance verdicts) printed before the result line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::string> notes;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Pool size for every parallel engine: min(nproc, 4).
std::size_t pool_size();

/// Median / quantile by linear interpolation between order statistics.
/// Both return 0 for an empty sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// splitmix64 mix of (seed, lane): independent per-purpose seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane);

/// 64-bit FNV-1a over raw bytes, chained from `h`.
std::uint64_t hash_bytes(const void* data, std::size_t n,
                         std::uint64_t h = 0xcbf29ce484222325ULL);

/// Per-span-name totals from the obs tracer, restricted to spans recorded by
/// one thread (the caller's), with self time = duration minus the part of it
/// covered by directly nested spans.
struct LayerTimes {
  struct Row {
    double total_ms = 0;
    double self_ms = 0;
    std::vector<double> durations_ms;
  };
  std::map<std::string, Row> rows;
  double top_level_ms = 0;  // sum of spans not nested in another span

  [[nodiscard]] const Row& at(const std::string& name) const;
  [[nodiscard]] double self_sum_ms() const;
};

/// Reads the tracer's buffered events for the calling thread.
LayerTimes collect_layers();

/// Resets the obs registry and tracer and switches telemetry on or off.
void reset_telemetry(bool enabled);

/// Value of an obs counter (0 if never registered).
double counter_value(const std::string& name);

// Workload entry points (one translation unit each).
Outcome run_campaign(const Options& opt, bool churn);
Outcome run_chain(const Options& opt);
Outcome run_feedback_kv(const Options& opt);

}  // namespace perfbench
