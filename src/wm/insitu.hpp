// In-situ analysis plane for the campaign maintain tick.
//
// Paper Sec. 4.1: every running CG simulation has an analysis process sitting
// next to it, inspecting each new snapshot within the frame cadence and
// emitting candidate-frame identifying info plus protein-lipid RDF feedback.
// At campaign scale those analyses are thousands of independent tasks per
// tick — the last serial hot path in the coordination loop before this class.
//
// InSituPlane advances one miniature logical CG system per running sim
// (stepping), runs the real coupling::CgAnalysis over it (RDF accumulation +
// encoder feature extraction), and draws the per-sim candidate counts — all
// under the engines' bit-level discipline: per-sim counter-based RNG streams,
// one fused util::for_blocks pass (each task steps and then analyzes its
// kInSituSubBlock sims; block boundaries a function of data only), and a
// serial fold in ascending sim-id order. Threads change wall time, never
// output.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coupling/analysis.hpp"
#include "util/thread_pool.hpp"

namespace mummi::wm {

struct InSituConfig {
  // Miniature CG stand-in per sim: 4 lipid species x 4 head beads + a
  // 6-bead RAS-RAF backbone (4 RAS + 2 RAF) in a 4 x 4 x 8 nm box.
  int n_species = 4;
  int heads_per_species = 4;
  int ras_beads = 4;
  int raf_beads = 2;
  double box_xy = 4.0;
  double box_z = 8.0;
  md::real rdf_rmax = 2.0;
  std::size_t rdf_bins = 16;
  /// Pool for the fan-out; null runs serially (same outputs either way).
  util::ThreadPool* pool = nullptr;
};

/// Sims stepped and analyzed by one pool task. Data-only constant.
constexpr std::size_t kInSituSubBlock = 8;

/// Per-sim outcome of one tick, handed to the fold callback.
struct InSituResult {
  std::uint64_t sim = 0;
  /// Analyzed frame (real CgAnalysis::analyze output for this tick's state).
  coupling::CgFrameInfo frame;
  /// Candidate count drawn from the sim's stream; when > 0, `frame` is the
  /// first candidate and `extra` holds descriptors for the remaining n-1.
  std::uint32_t candidates = 0;
  std::vector<std::array<float, 3>> extra;
  /// RDFs accumulated by this sim this tick (one frame per species).
  coupling::RdfSet rdfs;
};

class InSituPlane {
 public:
  explicit InSituPlane(std::uint64_t seed, InSituConfig config = {});
  ~InSituPlane();  // out of line: SimState is incomplete here

  /// Advances and analyzes every sim in `payloads` (must be ascending and
  /// unique) for the tick identified by `tick_key`, then folds results
  /// serially in ascending payload order via `fold`. `candidate_mean` is the
  /// Poisson mean of candidate frames per sim this tick. Returns nanoseconds
  /// spent in the serial fold (wm.tick.fold_ns).
  ///
  /// Output is a pure function of (seed, payloads, tick_key, candidate_mean):
  /// per-sim streams are counter-based, positions are regenerated statelessly
  /// each tick, and the fold order is fixed — so any pool size, and a plane
  /// rebuilt after a crash-restart, produce byte-identical folds.
  std::uint64_t tick(const std::vector<std::uint64_t>& payloads,
                     std::uint64_t tick_key, double candidate_mean,
                     const std::function<void(const InSituResult&)>& fold);

  [[nodiscard]] std::size_t active_sims() const { return states_.size(); }

  /// Counter-based per-(sim, tick, lane) stream seed — the continuum engine's
  /// util::stream_seed idiom: a splitmix64-style avalanche, so nearby sims
  /// and ticks give uncorrelated streams without any shared RNG state.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t sim,
                                   std::uint64_t tick, std::uint64_t lane);

 private:
  struct SimState;

  SimState& state_for(std::uint64_t payload);
  void step_sim(std::uint64_t payload, SimState& st,
                std::uint64_t tick_key) const;
  void analyze_sim(std::uint64_t payload, SimState& st, std::uint64_t tick_key,
                   double candidate_mean, InSituResult& out) const;

  std::uint64_t seed_;
  InSituConfig config_;
  /// Geometry template shared by every sim (per-sim state differs only in
  /// positions, which are regenerated statelessly each tick).
  coupling::CgSystemInfo proto_;
  std::unordered_map<std::uint64_t, std::unique_ptr<SimState>> states_;
};

}  // namespace mummi::wm
