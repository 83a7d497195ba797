#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t pool_size() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_bytes(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

const LayerTimes::Row& LayerTimes::at(const std::string& name) const {
  static const Row empty;
  const auto it = rows.find(name);
  return it == rows.end() ? empty : it->second;
}

double LayerTimes::self_sum_ms() const {
  double sum = 0;
  for (const auto& [name, row] : rows) sum += row.self_ms;
  return sum;
}

LayerTimes collect_layers() {
  const std::uint32_t tid = mummi::obs::Tracer::thread_id();
  std::vector<mummi::obs::TraceEvent> events;
  for (auto& ev : mummi::obs::Tracer::instance().events())
    if (ev.ph == 'X' && ev.tid == tid) events.push_back(std::move(ev));
  // Parents first: earlier start, and the longer span on a tie.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
  });

  LayerTimes out;
  struct Open {
    LayerTimes::Row* row;
    double end_us;
  };
  std::vector<Open> stack;
  for (const auto& ev : events) {
    while (!stack.empty() && stack.back().end_us <= ev.ts_us) stack.pop_back();
    const double ms = ev.dur_us * 1e-3;
    LayerTimes::Row& row = out.rows[ev.name];
    row.total_ms += ms;
    row.self_ms += ms;
    row.durations_ms.push_back(ms);
    if (stack.empty())
      out.top_level_ms += ms;
    else
      stack.back().row->self_ms -= ms;
    stack.push_back({&row, ev.ts_us + ev.dur_us});
  }
  return out;
}

void reset_telemetry(bool enabled) {
  mummi::obs::MetricsRegistry::instance().reset();
  mummi::obs::Tracer::instance().clear();
  mummi::obs::set_enabled(enabled);
}

double counter_value(const std::string& name) {
  return static_cast<double>(mummi::obs::counter(name).value());
}

}  // namespace perfbench
