// Deterministic pseudo-random number generation.
//
// All stochastic components of mummi-cpp (MD thermostats, performance models,
// samplers, the campaign simulator) take explicit Rng instances so entire
// campaigns replay bit-for-bit from a seed — the paper's "history files that
// may be replayed exactly" requirement (Sec. 4.4).
#pragma once

#include <cmath>
#include <cstdint>

namespace mummi::util {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Satisfies UniformRandomBitGenerator so it plugs into <random> too.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via splitmix64 so nearby seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = sqrt_m2log(s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  /// Normal with given mean and stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate);

  /// Log-normal such that the *result* has the given mean and sigma of the
  /// underlying normal — used by performance models for slow-tail outliers.
  double lognormal(double mean_of_log, double sigma_of_log);

  /// Derives an independent child stream (for per-thread/per-job rngs).
  Rng split() { return Rng((*this)() ^ 0xd1342543de82ef95ULL); }

  /// Full generator state, so checkpoints resume the exact stream (crash
  /// recovery must not fork the campaign's randomness).
  struct State {
    std::uint64_t s[4];
    bool has_spare;
    double spare;
  };
  [[nodiscard]] State save_state() const {
    State st{{state_[0], state_[1], state_[2], state_[3]}, has_spare_, spare_};
    return st;
  }
  void load_state(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    has_spare_ = st.has_spare;
    spare_ = st.spare;
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static double sqrt_m2log(double s);

  std::uint64_t state_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Counter-based stream seed: a splitmix64-style avalanche over (seed, item
/// index, step index). An item that draws from Rng(stream_seed(seed, i, step))
/// has its own short-lived stream each step, with no shared generator cursor,
/// so per-item updates thread freely, replay bit-identically at any worker
/// count, and survive checkpoint/restore of anything that records the step.
/// Drives the continuum protein kicks and the MD Langevin noise.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t idx,
                                 std::uint64_t step) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (idx + 1) +
                    0xbf58476d1ce4e5b9ULL * (step + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline double Rng::sqrt_m2log(double s) {
  return std::sqrt(-2.0 * std::log(s) / s);
}

inline double Rng::exponential(double rate) {
  return -std::log(1.0 - uniform()) / rate;
}

inline double Rng::lognormal(double mean_of_log, double sigma_of_log) {
  return std::exp(normal(mean_of_log, sigma_of_log));
}

}  // namespace mummi::util
