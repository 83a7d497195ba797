// Deterministic crash-point injection (the persistence analogue of
// FaultPlan).
//
// The paper's campaigns survived months of node failures and scheduled
// outages only because every component could be "restored completely after
// any such crash" (Sec. 4.4). FaultPlan covers *infrastructure* faults in
// virtual time; this registry covers the other failure axis: the
// coordination process itself dying mid-I/O. The persistence layer marks its
// boundaries with util::crash_point("name"); the registry, once installed,
// counts every hit and — when armed — kills the run at the Nth hit of a
// chosen point, either by throwing SimulatedCrash (in-process sweeps) or by
// aborting the process-under-test (external sweeps, death tests).
//
// A sweep then proves the crash-consistency contract (DESIGN.md 4i): run
// once in observe mode to learn which points fire and how often, derive a
// seeded plan of (point, nth-hit) shots, and for each shot crash + recover +
// compare against a reference. Registered point names are enumerated in
// kCrashPoints so sweeps can assert they covered every boundary.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mummi::fault {

/// A hard, mid-I/O death of the process under test. Recovery is a fresh
/// component (Campaign, FsStore, ...) over the same on-disk state. Also
/// aliased as wm::SimulatedCrash for the campaign-level crash tests.
struct SimulatedCrash : util::Error {
  using util::Error::Error;
};

/// What an armed crash point does when it fires.
enum class CrashAction : std::uint8_t {
  kThrow,  // throw SimulatedCrash through the I/O call stack
  kAbort,  // _Exit(kAbortExitCode): the real-process analogue (death tests)
};

inline constexpr int kAbortExitCode = 86;

/// Every crash point instrumented in the persistence layer, grouped by
/// subsystem. Sweeps union their observed coverage against this list; adding
/// an instrumentation site means adding its name here (the registry test
/// cross-checks nothing is silently dropped).
inline constexpr const char* kCrashPoints[] = {
    // util::write_file (fires for every armored file write: checkpoint tmp,
    // FsStore tmp, tar sidecar index).
    "util.write_file.pre",   // before the trunc-open
    "util.write_file.mid",   // file truncated, payload not yet written (torn)
    "util.write_file.post",  // payload flushed, before returning
    // util::CheckpointFile::save
    "ckpt.save.pre_tmp",      // nothing written yet
    "ckpt.save.post_tmp",     // .tmp holds the newest complete frame
    "ckpt.save.post_bak",     // primary rotated away; .tmp is the only copy
    "ckpt.save.post_rename",  // new primary in place
    // util::CheckpointJournal::append
    "ckpt.journal.append.pre",   // journal untouched
    "ckpt.journal.append.mid",   // header + half the body down (torn record)
    "ckpt.journal.append.post",  // record complete
    // ds::FsStore
    "fs.put.pre_tmp",       // destination untouched
    "fs.put.post_tmp",      // sibling .tmp complete, destination still old
    "fs.put.post_rename",   // destination atomically replaced
    "fs.move.pre",          // single-key rename not yet issued
    "fs.move.post",         // single-key rename done
    "fs.move_many.mid",     // before each per-key rename of a batch
    "fs.del.pre",           // before the unlink
    // ds::TarIdx (tar archive append + index flush)
    "tar.append.pre",        // archive untouched
    "tar.append.mid",        // header written, member data torn
    "tar.append.post",       // member durable, sidecar index still stale
    "tar.flush.post_trailer",  // trailer written, sidecar not yet persisted
    // campaign / supervision checkpoint path
    "wm.checkpoint.pre",           // before serializing campaign state
    "wm.checkpoint.post",          // checkpoint fully durable
    "wm.checkpoint.compact.pre_reset",  // new base durable, journal not reset
    "supervise.ledger.serialize",  // quarantine ledger entering the blob
};

/// One shot of a sweep: crash at the `nth` hit (1-based) of `point`.
struct CrashShot {
  std::string point;
  std::uint64_t nth = 1;
};

class CrashPointRegistry {
 public:
  static CrashPointRegistry& instance();

  /// Installs this registry as the util::crash_point hook (idempotent).
  void install();
  /// Clears the hook; hits become no-ops again.
  void uninstall();

  /// Forgets all hit counts and disarms. Coverage starts fresh.
  void reset();

  /// Arms one shot: the `nth` (1-based) hit of `point` fires `action`, then
  /// the registry disarms itself so recovery code running in the same
  /// process does not crash again at the same boundary.
  void arm(std::string point, std::uint64_t nth = 1,
           CrashAction action = CrashAction::kThrow);
  void disarm();

  /// Called (via the util hook) at every boundary. Throws / aborts when the
  /// armed shot is due.
  void hit(const char* point);

  /// Observability for sweeps.
  [[nodiscard]] std::uint64_t hits(const std::string& point) const;
  [[nodiscard]] std::map<std::string, std::uint64_t> hit_counts() const;
  /// Point names observed since the last reset(), ascending.
  [[nodiscard]] std::vector<std::string> points() const;
  /// Every hit since the last reset(), in hit order (the first kMaxOrder):
  /// lets a sweep tell which boundaries one checkpoint tick crossed.
  [[nodiscard]] std::vector<std::string> hit_order() const;
  static constexpr std::size_t kMaxOrder = 1 << 16;
  /// True once the armed shot fired (throw mode only, by construction).
  [[nodiscard]] bool fired() const;

  /// Derives a deterministic sweep plan from observed hit counts: one shot
  /// per point, with the hit index drawn from a seeded stream over
  /// [1, hits]. Same counts + seed => same plan.
  [[nodiscard]] static std::vector<CrashShot> plan(
      const std::map<std::string, std::uint64_t>& observed,
      std::uint64_t seed);

 private:
  CrashPointRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> hits_;
  std::vector<std::string> order_;
  bool armed_ = false;
  bool fired_ = false;
  std::string armed_point_;
  std::uint64_t armed_nth_ = 0;
  CrashAction action_ = CrashAction::kThrow;
};

/// One stretch of a hit order from an `open` point through the next `close`
/// point (for a campaign: one checkpoint tick), with the 1-based hit index of
/// every point crossed inside it, so arm(point, nth.at(point)) kills exactly
/// this stretch.
struct HitSegment {
  std::map<std::string, std::uint64_t> nth;
  [[nodiscard]] bool crossed(const std::string& point) const {
    return nth.count(point) > 0;
  }
};

/// Splits CrashPointRegistry::hit_order() into its open..close segments.
[[nodiscard]] std::vector<HitSegment> split_hit_order(
    const std::vector<std::string>& order, const std::string& open,
    const std::string& close);

/// RAII harness for tests: installs the singleton registry on construction,
/// disarms + uninstalls (and optionally resets) on destruction, so a failing
/// test cannot leak an armed crash into its neighbours.
class ScopedCrashHarness {
 public:
  ScopedCrashHarness() { CrashPointRegistry::instance().install(); }
  ~ScopedCrashHarness() {
    auto& reg = CrashPointRegistry::instance();
    reg.disarm();
    reg.uninstall();
    reg.reset();
  }
  ScopedCrashHarness(const ScopedCrashHarness&) = delete;
  ScopedCrashHarness& operator=(const ScopedCrashHarness&) = delete;

  [[nodiscard]] CrashPointRegistry& registry() {
    return CrashPointRegistry::instance();
  }
};

}  // namespace mummi::fault
