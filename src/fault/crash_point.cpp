#include "fault/crash_point.hpp"

#include <cstdlib>

#include "util/crashpoint.hpp"
#include "util/rng.hpp"

namespace mummi::fault {

CrashPointRegistry& CrashPointRegistry::instance() {
  static CrashPointRegistry registry;
  return registry;
}

void CrashPointRegistry::install() {
  util::set_crash_point_hook(
      [](const char* point) { CrashPointRegistry::instance().hit(point); });
}

void CrashPointRegistry::uninstall() { util::set_crash_point_hook({}); }

void CrashPointRegistry::reset() {
  std::lock_guard lock(mutex_);
  hits_.clear();
  order_.clear();
  armed_ = false;
  fired_ = false;
  armed_point_.clear();
  armed_nth_ = 0;
}

void CrashPointRegistry::arm(std::string point, std::uint64_t nth,
                             CrashAction action) {
  MUMMI_CHECK_MSG(nth >= 1, "crash shot hit index is 1-based");
  std::lock_guard lock(mutex_);
  armed_ = true;
  fired_ = false;
  armed_point_ = std::move(point);
  armed_nth_ = nth;
  action_ = action;
}

void CrashPointRegistry::disarm() {
  std::lock_guard lock(mutex_);
  armed_ = false;
}

void CrashPointRegistry::hit(const char* point) {
  bool fire = false;
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t count = ++hits_[point];
    if (order_.size() < kMaxOrder) order_.emplace_back(point);
    if (armed_ && armed_point_ == point && count == armed_nth_) {
      // Fire exactly once: recovery code re-executing this boundary in the
      // same process must sail through.
      armed_ = false;
      fired_ = true;
      fire = true;
    }
  }
  if (!fire) return;
  if (action_ == CrashAction::kAbort) std::_Exit(kAbortExitCode);
  throw SimulatedCrash(std::string("crash point fired: ") + point);
}

std::uint64_t CrashPointRegistry::hits(const std::string& point) const {
  std::lock_guard lock(mutex_);
  const auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> CrashPointRegistry::hit_counts() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::vector<std::string> CrashPointRegistry::points() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(hits_.size());
  for (const auto& [name, _] : hits_) out.push_back(name);
  return out;  // std::map iteration is already ascending
}

std::vector<std::string> CrashPointRegistry::hit_order() const {
  std::lock_guard lock(mutex_);
  return order_;
}

bool CrashPointRegistry::fired() const {
  std::lock_guard lock(mutex_);
  return fired_;
}

std::vector<HitSegment> split_hit_order(const std::vector<std::string>& order,
                                        const std::string& open,
                                        const std::string& close) {
  std::vector<HitSegment> segments;
  std::map<std::string, std::uint64_t> count;
  bool inside = false;
  for (const auto& point : order) {
    const std::uint64_t n = ++count[point];
    if (point == open) {
      segments.emplace_back();
      inside = true;
    }
    if (!inside) continue;
    segments.back().nth.emplace(point, n);  // first hit inside the segment
    if (point == close) inside = false;
  }
  return segments;
}

std::vector<CrashShot> CrashPointRegistry::plan(
    const std::map<std::string, std::uint64_t>& observed, std::uint64_t seed) {
  std::vector<CrashShot> shots;
  shots.reserve(observed.size());
  // One seeded stream over the sorted point list: inserting a new point
  // shifts later draws but the plan stays a pure function of (counts, seed).
  util::Rng rng(seed ^ 0xc7a5'9b0d'11e8'55fdULL);
  for (const auto& [point, count] : observed) {
    if (count == 0) continue;
    CrashShot shot;
    shot.point = point;
    shot.nth = 1 + rng.uniform_index(static_cast<std::size_t>(count));
    shots.push_back(std::move(shot));
  }
  return shots;
}

}  // namespace mummi::fault
