// service_rw: two tenants share one warm KaryTree Algorithm-2 engine.
//
//   writer  reads, and one of its clients interleaves payload-only weight
//           updates through submit_update: a batch of keys is set to new
//           weights, a later update sets them back, so every pass ends on
//           the structure it started from. Updates alternate between the
//           key-space tail and the interior; the topology never changes.
//   reader  reads only, under an armed, seeded FaultPlan whose phase
//           failures are all recovered by retry.
//
// It runs the same service and engine layers as service_mixed, but its wall
// time goes to apply_updates, engine refresh, read-your-writes barriers and
// fault-recovery checkpoint copies.
#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/sequential.hpp"
#include "service_loop.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ms = meshsearch;
using ms::msearch::Query;
using ms::msearch::QueryOutcome;

namespace {

constexpr std::size_t kKeys = std::size_t{1} << 15;
constexpr unsigned kFanout = 3;
// Unequal client counts keep the latency median inside one mode of the
// latency distribution. Writer queries often wait behind an update; with
// as many writer as reader queries the median sat on the edge between the
// modes and jumped between them from run to run.
constexpr std::size_t kReaderClients = 6;
constexpr std::size_t kWriterClients = 3;
constexpr std::size_t kBurstsPerClient = 192;
constexpr std::size_t kBurstsPerUpdate = 2;  ///< updater's reads between updates
constexpr std::size_t kBurstMin = 64, kBurstMax = 256;
constexpr std::size_t kUpdateMin = 16, kUpdateMax = 1024;

class ServiceRw final : public Workload {
 public:
  explicit ServiceRw(std::uint64_t seed) : seed_(seed) {}

  SetupResult setup() override {
    registry_.reset();
    tree_.reset();
    SetupResult r;
    auto t0 = Clock::now();
    tree_ = std::make_unique<ms::ds::KaryTree>(ms::ds::iota_keys(kKeys),
                                               kFanout,
                                               ms::ds::TreeMode::kDirected);
    auto t1 = Clock::now();
    r.layer["datastruct.build_ms"] = ms_between(t0, t1);
    registry_ = std::make_unique<ms::service::EngineRegistry>();
    const auto& g = tree_->graph();
    t0 = Clock::now();
    engine_ = &registry_->add(
        {"ranks", ms::msearch::EngineKind::kAlg2Alpha},
        ms::service::make_partitioned_engine(
            ms::msearch::EngineKind::kAlg2Alpha, g, tree_->alpha_splitting(),
            tree_->alpha_splitting(), tree_->rank_count(), model_,
            g.shape_for(g.vertex_count())));
    t1 = Clock::now();
    r.layer["engine.alg2-alpha.setup_ms"] = ms_between(t0, t1);
    return r;
  }

  void make_inputs() override {
    ms::util::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 23);
    shadow_ = std::make_unique<ms::ds::KaryTree>(ms::ds::iota_keys(kKeys),
                                                 kFanout,
                                                 ms::ds::TreeMode::kDirected);
    const auto burst = [&](TenantPlan& p, std::size_t n) {
      p.bursts.push_back(ms::ds::uniform_key_queries(n, kKeys + 20, rng));
      return ClientOp{false, static_cast<std::uint32_t>(p.bursts.size() - 1)};
    };
    ms::util::Rng shape(kShapeSeed);
    std::vector<std::vector<std::size_t>> sizes(kWriterClients);
    for (auto& s : sizes)
      s = burst_sizes(kBurstsPerClient, kBurstMin, kBurstMax, shape);
    // Set sizes spread geometrically over [kUpdateMin, kUpdateMax]. Every
    // set is followed by its restore, so a pass ends on the initial weights.
    constexpr std::size_t kUpdates =
        (kBurstsPerClient + kBurstsPerUpdate - 1) / kBurstsPerUpdate;
    static_assert(kUpdates % 2 == 0, "updates come in set/restore pairs");
    constexpr std::size_t kSets = kUpdates / 2;
    std::vector<std::size_t> set_sizes(kSets);
    for (std::size_t i = 0; i < kSets; ++i)
      set_sizes[i] = static_cast<std::size_t>(std::llround(
          static_cast<double>(kUpdateMin) *
          std::pow(static_cast<double>(kUpdateMax) / kUpdateMin,
                   static_cast<double>(i) / (kSets - 1))));
    for (std::size_t i = kSets; i > 1; --i)
      std::swap(set_sizes[i - 1], set_sizes[shape.uniform(i)]);

    TenantPlan writer;
    writer.name = "writer";
    writer.engine = engine_;
    writer.quota.max_outstanding = kWriterClients * kBurstMax;
    writer.state = StateOf::kUpdatesSubmitted;
    writer.clients.resize(kWriterClients);
    sets_.clear();
    restores_.clear();
    for (std::size_t b = 0; b < kBurstsPerClient; ++b) {
      for (std::size_t c = 0; c < kWriterClients; ++c) {
        auto& ops = writer.clients[c];
        // Client 0 updates before every kBurstsPerUpdate-th read: a set on
        // even updates, the matching restore on odd ones.
        if (c == 0 && b % kBurstsPerUpdate == 0) {
          const std::size_t u = sets_.size() + restores_.size();
          if (u % 2 == 0)
            sets_.push_back(make_set(set_sizes[sets_.size()],
                                     sets_.size() % 2 == 0, rng));
          else
            restores_.push_back(restore_of(sets_.back()));
          ops.push_back({true, static_cast<std::uint32_t>(u)});
        }
        ops.push_back(burst(writer, sizes[c][b]));
      }
    }

    TenantPlan reader;
    reader.name = "reader";
    reader.engine = engine_;
    reader.quota.max_outstanding = kReaderClients * kBurstMax;
    reader.state = StateOf::kGenerationAtAnswer;
    reader.clients.resize(kReaderClients);
    for (std::size_t c = 0; c < kReaderClients; ++c)
      for (const std::size_t n :
           burst_sizes(kBurstsPerClient, kBurstMin, kBurstMax, shape))
        reader.clients[c].push_back(burst(reader, n));
    reader.fault.seed = seed_ + 0xfa17;
    reader.fault.p_phase = 0.02;

    plans_ = {std::move(writer), std::move(reader)};
    expected_.clear();
  }

  PassResult pass(Tracing* tr) override {
    SpanLog* log = tr != nullptr ? &tr->log : nullptr;
    std::vector<std::uint64_t> stamps = {tree_->graph().generation()};
    std::vector<std::string> update_errors;
    double dirty = 0, apply_ms = 0;
    std::vector<ms::service::UpdateFn> updates;
    for (std::size_t u = 0; u < sets_.size() + restores_.size(); ++u) {
      const auto& ins = u % 2 == 0 ? sets_[u / 2] : restores_[u / 2];
      updates.push_back([&, log, &ins = ins] {
        const Clock::time_point a0 = Clock::now();
        ms::msearch::RefreshRequest req;
        {
          Scope span(log, "datastruct.apply_updates");
          req.delta = tree_->apply_updates(ins, {});
        }
        apply_ms += ms_between(a0, Clock::now());
        if (req.delta.topology_changed)
          update_errors.push_back("a weight update changed the topology");
        dirty += static_cast<double>(req.delta.dirty_vertices.size()) /
                 static_cast<double>(tree_->graph().vertex_count());
        stamps.push_back(req.delta.generation);
        return req;
      });
    }

    LoopResult res = run_closed_loop(plans_, updates, tr);
    for (auto& e : update_errors) res.pass.errors.push_back(std::move(e));
    // The reader has no barrier: its answers reflect the updates applied
    // when its batch ran. Map each generation stamp to that update count.
    for (std::uint64_t& s : res.tenants[1].state) {
      const auto it = std::find(stamps.begin(), stamps.end(), s);
      if (it == stamps.end()) {
        res.pass.errors.push_back("reader answered on an unknown generation");
        s = 0;
      } else {
        s = static_cast<std::uint64_t>(it - stamps.begin());
      }
    }
    fill_expected(res);
    check_answers(res, [&](std::size_t t, std::uint32_t burst,
                           std::uint64_t state)
                      -> const std::vector<QueryOutcome>& {
      return expected_.at({t, burst, weight_state(state)});
    });
    if (tr != nullptr) {
      const double n = static_cast<double>(updates.size());
      res.pass.layer["datastruct.apply_updates_ms"] = apply_ms;
      res.pass.layer["datastruct.dirty_frac"] = n > 0 ? dirty / n : 0.0;
    }
    return std::move(res.pass);
  }

 private:
  using Key = std::tuple<std::size_t, std::uint32_t, std::size_t>;

  /// Weight state after `updates` applied updates: 0 = the initial weights
  /// (an even count: every set was restored), j + 1 = set j in force.
  static std::size_t weight_state(std::uint64_t updates) {
    return updates % 2 == 0 ? 0 : static_cast<std::size_t>(updates / 2 + 1);
  }

  /// New weights for `n` keys: the last n of the key space, or n distinct
  /// keys drawn from all of it.
  static std::vector<ms::ds::WeightedKey> make_set(std::size_t n, bool tail,
                                                   ms::util::Rng& rng) {
    std::vector<std::int64_t> keys(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i)
      keys[i] = static_cast<std::int64_t>(i);
    if (tail) {
      keys.erase(keys.begin(), keys.end() - static_cast<std::ptrdiff_t>(n));
    } else {
      for (std::size_t i = 0; i < n; ++i)
        std::swap(keys[i], keys[i + rng.uniform(kKeys - i)]);
      keys.resize(n);
      std::sort(keys.begin(), keys.end());
    }
    std::vector<ms::ds::WeightedKey> ins;
    for (const auto k : keys) ins.push_back({k, rng.uniform_range(2, 9)});
    return ins;
  }

  static std::vector<ms::ds::WeightedKey> restore_of(
      const std::vector<ms::ds::WeightedKey>& set) {
    std::vector<ms::ds::WeightedKey> out;
    for (const auto& wk : set) out.push_back({wk.key, 1});
    return out;
  }

  /// Oracle answers for every (tenant, burst, weight state) the pass needs
  /// and the cache lacks, replaying each set on the shadow tree.
  void fill_expected(const LoopResult& res) {
    std::map<std::size_t, std::vector<std::pair<std::size_t, std::uint32_t>>>
        need;  // weight state -> (tenant, burst)
    for (std::size_t t = 0; t < res.tenants.size(); ++t) {
      const TenantAnswers& a = res.tenants[t];
      for (std::size_t i = 0; i < a.burst.size(); ++i) {
        const Key key{t, a.burst[i], weight_state(a.state[i])};
        if (expected_.count(key) != 0) continue;
        expected_[key];  // placeholder, filled below
        need[std::get<2>(key)].emplace_back(t, a.burst[i]);
      }
    }
    for (const auto& [state, bursts] : need) {
      if (state > 0) shadow_->apply_updates(sets_[state - 1], {});
      for (const auto& [t, b] : bursts) {
        auto qs = plans_[t].bursts[b];
        ms::msearch::sequential_multisearch(shadow_->graph(),
                                            shadow_->rank_count(), qs);
        expected_[{t, b, state}] = ms::msearch::outcomes(qs);
      }
      if (state > 0) shadow_->apply_updates(restores_[state - 1], {});
    }
  }

  std::uint64_t seed_;
  ms::mesh::CostModel model_;
  std::unique_ptr<ms::ds::KaryTree> tree_;
  std::unique_ptr<ms::ds::KaryTree> shadow_;  ///< replays the updates
  std::unique_ptr<ms::service::EngineRegistry> registry_;
  ms::service::Engine* engine_ = nullptr;
  std::vector<TenantPlan> plans_;
  std::vector<std::vector<ms::ds::WeightedKey>> sets_, restores_;
  std::map<Key, std::vector<QueryOutcome>> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_service_rw(std::uint64_t seed) {
  return std::make_unique<ServiceRw>(seed);
}

}  // namespace perfbench
