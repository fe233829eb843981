// service_mixed: a read-only ServiceScheduler serving three tenants, one per
// application and engine family, with DRR weights 1/1/2:
//
//   points     Kirkpatrick point location      Algorithm 1, geometric plan
//   intervals  interval-tree stabbing          Algorithm 3 (alpha-beta)
//   ranks      rank counting, directed k-ary   Algorithm 2 (alpha)
//
// The structures are small and the dispatches many and small (each client
// keeps one burst of 64-256 queries outstanding), so the wall time goes to
// the service pump, the per-query copy and resolve, and the partitioned
// (constrained-multisearch) engines. There is no reorder sort.
#include <algorithm>
#include <array>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/kirkpatrick.hpp"
#include "multisearch/sequential.hpp"
#include "service_loop.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ms = meshsearch;
using ms::msearch::Query;
using ms::msearch::QueryOutcome;

namespace {

constexpr std::size_t kPoints = 2048;
constexpr ms::geom::Scalar kRadius = 1 << 17;
constexpr std::size_t kIntervals = 4096;
constexpr std::size_t kRankKeys = 8192;
constexpr std::size_t kClients = 6;         ///< per tenant
constexpr std::size_t kBurstsPerClient = 96;
constexpr std::size_t kBurstMin = 64, kBurstMax = 256;

class ServiceMixed final : public Workload {
 public:
  explicit ServiceMixed(std::uint64_t seed) : seed_(seed) {}

  SetupResult setup() override {
    registry_.reset();
    kp_.reset();
    kdag_.reset();
    ivt_.reset();
    ranks_.reset();
    SetupResult r;
    ms::util::Rng rng(kDatasetSeed);

    auto t0 = Clock::now();
    auto pts = ms::geom::random_points_in_disk(kPoints, kRadius - 8, rng);
    std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    kp_ = std::make_unique<ms::geom::Kirkpatrick>(std::move(pts), kRadius);
    kdag_ = std::make_unique<ms::msearch::HierarchicalDag>(
        kp_->hierarchical_dag());
    std::vector<ms::ds::Interval> ivs(kIntervals);
    for (std::size_t i = 0; i < kIntervals; ++i) {
      const std::int64_t lo = rng.uniform_range(0, kIntervalSpan);
      ivs[i] = ms::ds::Interval{lo, lo + rng.uniform_range(0, 200),
                                static_cast<std::int32_t>(i)};
    }
    ivt_ = std::make_unique<ms::ds::IntervalTree>(ivs);
    ranks_ = std::make_unique<ms::ds::KaryTree>(
        ms::ds::iota_keys(kRankKeys), 3, ms::ds::TreeMode::kDirected);
    auto t1 = Clock::now();
    r.layer["datastruct.build_ms"] = ms_between(t0, t1);

    registry_ = std::make_unique<ms::service::EngineRegistry>();
    const auto& kg = kp_->dag();
    t0 = Clock::now();
    engines_[0] = &registry_->add(
        {"points", ms::msearch::EngineKind::kAlg1Geometric},
        ms::service::make_hierarchical_engine(
            *kdag_, ms::msearch::PlanKind::kGeometric, kp_->locate_program(),
            model_, kg.shape_for(kg.vertex_count())));
    t1 = Clock::now();
    r.layer["engine.alg1-geometric.setup_ms"] = ms_between(t0, t1);
    const auto& ig = ivt_->graph();
    const auto [s1, s2] = ivt_->alpha_beta_splittings();
    t0 = Clock::now();
    engines_[1] = &registry_->add(
        {"intervals", ms::msearch::EngineKind::kAlg3AlphaBeta},
        ms::service::make_partitioned_engine(
            ms::msearch::EngineKind::kAlg3AlphaBeta, ig, s1, s2,
            ivt_->stabbing_program(), model_,
            ig.shape_for(ig.vertex_count())));
    t1 = Clock::now();
    r.layer["engine.alg3-alpha-beta.setup_ms"] = ms_between(t0, t1);
    const auto& rg = ranks_->graph();
    t0 = Clock::now();
    engines_[2] = &registry_->add(
        {"ranks", ms::msearch::EngineKind::kAlg2Alpha},
        ms::service::make_partitioned_engine(
            ms::msearch::EngineKind::kAlg2Alpha, rg,
            ranks_->alpha_splitting(), ranks_->alpha_splitting(),
            ranks_->rank_count(), model_, rg.shape_for(rg.vertex_count())));
    t1 = Clock::now();
    r.layer["engine.alg2-alpha.setup_ms"] = ms_between(t0, t1);
    return r;
  }

  void make_inputs() override {
    ms::util::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 17);
    ms::util::Rng shape(kShapeSeed);
    const std::array<const char*, 3> names = {"points", "intervals", "ranks"};
    const std::array<std::uint32_t, 3> weights = {1, 1, 2};
    plans_.clear();
    expected_.assign(3, {});
    for (std::size_t t = 0; t < 3; ++t) {
      TenantPlan p;
      p.name = names[t];
      p.engine = engines_[t];
      p.quota.weight = weights[t];
      p.quota.max_outstanding = kClients * kBurstMax;
      p.clients.resize(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        for (const std::size_t n :
             burst_sizes(kBurstsPerClient, kBurstMin, kBurstMax, shape)) {
          p.clients[c].push_back(
              {false, static_cast<std::uint32_t>(p.bursts.size())});
          p.bursts.push_back(make_burst(t, n, rng));
          expected_[t].push_back(oracle(t, p.bursts.back()));
        }
      }
      plans_.push_back(std::move(p));
    }
  }

  PassResult pass(Tracing* tr) override {
    LoopResult res = run_closed_loop(plans_, {}, tr);
    check_answers(res, [&](std::size_t t, std::uint32_t burst,
                           std::uint64_t) -> const std::vector<QueryOutcome>& {
      return expected_[t][burst];
    });
    return std::move(res.pass);
  }

 private:
  static constexpr std::int64_t kIntervalSpan = 4 * kIntervals;

  std::vector<Query> make_burst(std::size_t tenant, std::size_t n,
                                ms::util::Rng& rng) const {
    auto qs = ms::msearch::make_queries(n);
    for (auto& q : qs) {
      switch (tenant) {
        case 0:
          q.key[0] = rng.uniform_range(-kRadius / 2, kRadius / 2);
          q.key[1] = rng.uniform_range(-kRadius / 2, kRadius / 2);
          break;
        case 1:
          q.key[0] = rng.uniform_range(0, kIntervalSpan);
          break;
        default:
          q.key[0] = rng.uniform_range(0, kRankKeys + 20);
          break;
      }
    }
    return qs;
  }

  std::vector<QueryOutcome> oracle(std::size_t tenant,
                                   std::vector<Query> qs) const {
    switch (tenant) {
      case 0:
        ms::msearch::sequential_multisearch(kp_->dag(), kp_->locate_program(),
                                            qs);
        break;
      case 1:
        ms::msearch::sequential_multisearch(ivt_->graph(),
                                            ivt_->stabbing_program(), qs);
        break;
      default:
        ms::msearch::sequential_multisearch(ranks_->graph(),
                                            ranks_->rank_count(), qs);
        break;
    }
    return ms::msearch::outcomes(qs);
  }

  std::uint64_t seed_;
  ms::mesh::CostModel model_;
  std::unique_ptr<ms::geom::Kirkpatrick> kp_;
  std::unique_ptr<ms::msearch::HierarchicalDag> kdag_;
  std::unique_ptr<ms::ds::IntervalTree> ivt_;
  std::unique_ptr<ms::ds::KaryTree> ranks_;
  std::unique_ptr<ms::service::EngineRegistry> registry_;
  std::array<ms::service::Engine*, 3> engines_{};
  std::vector<TenantPlan> plans_;
  std::vector<std::vector<std::vector<QueryOutcome>>> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mixed(std::uint64_t seed) {
  return std::make_unique<ServiceMixed>(seed);
}

}  // namespace perfbench
