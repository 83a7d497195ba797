// feedback_kv: the Fig. 7 path. Bursts of RDF records are published one by
// one with DataStore::put into a 20-shard KvCluster behind RedStore, the
// CG-to-continuum feedback collects and tags them, and every few iterations
// the tagged records are purged with keys + erase. The records are built from
// the seed outside the timed calls.

#include <cmath>
#include <memory>

#include "common.hpp"
#include "continuum/gridsim2d.hpp"
#include "datastore/red_store.hpp"
#include "feedback/cg2cont.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mummi;

constexpr std::size_t kShards = 20;
constexpr double kMeanBurst = 6000;      // records per iteration, +-50%
constexpr int kPurgeEvery = 4;           // iterations between purges
constexpr int kWarmupIterations = 4;     // one purge period, untimed
constexpr int kTemplates = 64;           // distinct RDF payloads per state
constexpr int kRdfSpecies = 4;
constexpr std::size_t kRdfBins = 24;
constexpr int kMinIterations = 20;

/// The objects a feedback deployment builds before its first iteration.
struct Deployment {
  std::shared_ptr<ds::KvCluster> cluster;
  std::shared_ptr<ds::RedStore> store;
  std::unique_ptr<cont::GridSim2D> continuum;
  std::unique_ptr<fb::CgToContinuumFeedback> feedback;

  explicit Deployment(std::uint64_t seed)
      : cluster(std::make_shared<ds::KvCluster>(kShards)),
        store(std::make_shared<ds::RedStore>(cluster)) {
    cont::ContinuumConfig cfg;
    cfg.grid = 32;
    cfg.extent = 64.0;
    cfg.inner_species = 3;
    cfg.outer_species = 2;
    cfg.n_proteins = 6;
    cfg.seed = mix_seed(seed, 6);
    continuum = std::make_unique<cont::GridSim2D>(cfg);
    feedback =
        std::make_unique<fb::CgToContinuumFeedback>(store, continuum.get());
  }
};

/// Serialized FeedbackRecord payloads: kTemplates distinct RDF sets for each
/// protein state, drawn from the seed.
std::vector<util::Bytes> make_payloads(util::Rng& rng) {
  std::vector<util::Bytes> payloads;
  for (int state = 0; state < cont::kNumProteinStates; ++state)
    for (int t = 0; t < kTemplates; ++t) {
      fb::FeedbackRecord record;
      record.state = static_cast<cont::ProteinState>(state);
      for (int s = 0; s < kRdfSpecies; ++s) {
        md::RdfAccumulator rdf(2.5, kRdfBins);
        std::vector<double> counts(kRdfBins);
        for (std::size_t b = 0; b < kRdfBins; ++b)
          counts[b] = std::floor(rng.uniform(0.5, 1.5) * double(b * b + 1));
        rdf.restore_raw(std::move(counts), 10, 10 * rng.uniform(20.0, 40.0));
        record.rdfs.per_species.push_back(std::move(rdf));
      }
      payloads.push_back(record.serialize());
    }
  return payloads;
}

struct Iteration {
  std::size_t records = 0;
  double wall_ms = 0;  // the whole iteration, burst building included
  double put_ms = 0, iterate_ms = 0, purge_ms = -1;  // purge_ms < 0: none
  std::vector<double> put_us;                        // traced runs only
  double virtual_s = 0;
};

class Loop {
 public:
  Loop(std::uint64_t seed, Deployment& dep)
      : rng_(mix_seed(seed, 7)), dep_(dep) {
    payloads_ = make_payloads(rng_);
  }

  /// One feedback iteration; `time_puts` times every put on its own.
  Iteration next(bool time_puts, Outcome& out) {
    const auto start = Clock::now();
    // Build the burst (outside the timed calls).
    const auto n = static_cast<std::size_t>(kMeanBurst * rng_.uniform(0.5, 1.5));
    std::vector<std::pair<std::string, const util::Bytes*>> burst;
    burst.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      burst.emplace_back(
          "it" + std::to_string(index_) + "-" + std::to_string(i),
          &payloads_[rng_.uniform_index(payloads_.size())]);

    Iteration it;
    it.records = n;
    const double virtual0 = dep_.cluster->total_sim_seconds();
    auto t0 = Clock::now();
    if (time_puts) {
      it.put_us.reserve(n);
      for (const auto& [key, blob] : burst) {
        const auto p = Clock::now();
        dep_.store->put("rdf-pending", key, *blob);
        it.put_us.push_back(since(p) * 1e6);
      }
    } else {
      for (const auto& [key, blob] : burst)
        dep_.store->put("rdf-pending", key, *blob);
    }
    it.put_ms = since(t0) * 1e3;

    t0 = Clock::now();
    const fb::IterationStats stats = dep_.feedback->iterate();
    it.iterate_ms = since(t0) * 1e3;
    bool ok = stats.frames == n && dep_.store->count("rdf-pending") == 0;

    if (++index_ % kPurgeEvery == 0) {
      t0 = Clock::now();
      for (const auto& key : dep_.store->keys("rdf-done", "*"))
        dep_.store->erase("rdf-done", key);
      it.purge_ms = since(t0) * 1e3;
      ok = ok && dep_.store->count("rdf-done") == 0;
    }
    it.virtual_s = dep_.cluster->total_sim_seconds() - virtual0;
    for (const double w : dep_.feedback->last_weights())
      ok = ok && std::isfinite(w);
    out.check(ok);
    it.wall_ms = since(start) * 1e3;
    return it;
  }

 private:
  util::Rng rng_;
  Deployment& dep_;
  std::vector<util::Bytes> payloads_;
  int index_ = 0;
};

std::vector<double> field(const std::vector<Iteration>& its,
                          double Iteration::*f) {
  std::vector<double> v;
  for (const auto& it : its)
    if (it.*f >= 0) v.push_back(it.*f);
  return v;
}

double publish_rate(const std::vector<Iteration>& its) {
  std::vector<double> v;
  for (const auto& it : its) v.push_back(it.records / (it.put_ms * 1e-3));
  return median(v);
}

/// Runs the warm-up, then timed iterations for at least `seconds` and at
/// least `min_iterations`, ending on a purge. With `setup`, a fresh
/// Deployment is constructed and timed after every purge, so set-up is
/// sampled under the same host conditions as the iterations.
std::vector<Iteration> timed_loop(std::uint64_t seed, double seconds,
                                  std::size_t min_iterations, bool time_puts,
                                  Outcome& out,
                                  std::vector<double>* setup = nullptr) {
  Deployment dep(seed);
  Loop loop(seed, dep);
  for (int i = 0; i < kWarmupIterations; ++i) loop.next(false, out);
  std::vector<Iteration> its;
  const auto start = Clock::now();
  while (its.size() < min_iterations || since(start) < seconds ||
         its.size() % kPurgeEvery != 0) {
    its.push_back(loop.next(time_puts, out));
    if (setup && its.size() % kPurgeEvery == 0) {
      const auto t0 = Clock::now();
      Deployment fresh(seed);
      setup->push_back(since(t0));
    }
  }
  return its;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

void end_to_end(const Options& opt, Outcome& out) {
  std::vector<double> setup;
  const auto its =
      timed_loop(opt.seed, opt.seconds, kMinIterations, false, out, &setup);
  const auto iterate = field(its, &Iteration::iterate_ms);
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("wall_ms_per_unit", median(iterate), "ms");
  out.add("work_rate_per_s", publish_rate(its), "1/s");
  out.detail("feedback_iter_ms_p50", median(iterate), "ms");
  out.detail("feedback_iter_ms_p90", quantile(iterate, 0.9), "ms");
  out.detail("publish_records_per_s", publish_rate(its), "1/s");
  out.detail("timed_iterations", static_cast<double>(its.size()), "count");
}

void per_layer(const Options& opt, Outcome& out) {
  // Untraced first: the baseline for the tracing overhead, over the same
  // iterations (same seed, same count) as the traced loop.
  const auto plain =
      timed_loop(opt.seed, 0.45 * opt.seconds, kMinIterations, false, out);
  reset_telemetry(true);
  const auto its = timed_loop(opt.seed, 0, plain.size(), true, out);
  const double n = static_cast<double>(its.size() + kWarmupIterations);
  std::map<std::string, double> ops;
  for (const char* op : {"set", "get", "rename", "keys", "del", "mget",
                         "mrename"})
    ops[op] = counter_value(std::string("kv.ops.") + op) / n;
  reset_telemetry(false);

  const auto iterate = field(its, &Iteration::iterate_ms);
  std::vector<double> put_us;
  double records = 0;
  for (const auto& it : its) {
    put_us.insert(put_us.end(), it.put_us.begin(), it.put_us.end());
    records += static_cast<double>(it.records);
  }
  const double wall = sum(field(its, &Iteration::wall_ms));
  const double layers = sum(field(its, &Iteration::put_ms)) + sum(iterate) +
                        sum(field(its, &Iteration::purge_ms));

  out.add("feedback.iterate_ms", median(iterate), "ms");
  out.add("feedback.iter_ms_p90", quantile(iterate, 0.9), "ms");
  out.add("feedback.frames", records / static_cast<double>(its.size()),
          "count");
  out.add("datastore.put_us_p50", median(put_us), "us");
  out.add("datastore.purge_ms", median(field(its, &Iteration::purge_ms)), "ms");
  out.add("datastore.virtual_s", median(field(its, &Iteration::virtual_s)), "s");
  for (const auto& [op, per_iter] : ops)
    out.add("kv.ops." + op, per_iter, "count/iter");
  out.add("obs.overhead_frac",
          wall / sum(field(plain, &Iteration::wall_ms)) - 1.0, "ratio");
  out.add("obs.dark_frac", 1.0 - layers / wall, "ratio");
  out.add("obs.traced_wall_ms", wall, "ms");
  out.add("layer.dominant_share", layers / wall, "ratio");
  out.notes.push_back("dominant layer datastore + feedback: " +
                      std::to_string(layers / wall) + " of loop wall" +
                      (layers / wall >= 0.8 ? " -> confirmed" : " -> NOT met"));
}

}  // namespace

Outcome run_feedback_kv(const Options& opt) {
  Outcome out;
  if (opt.trace)
    per_layer(opt, out);
  else
    end_to_end(opt, out);
  return out;
}

}  // namespace perfbench
