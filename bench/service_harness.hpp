// Shared harness of the multi-tenant service benches (E10, E12): the four
// warm-engine cases both sweep, their burst-stream factories, the one-batch
// calibration, and the open-loop Poisson burst load.
//
// The load is OPEN-LOOP: each tenant's bursts arrive on a Poisson process
// over the service's virtual clock regardless of how far behind the service
// is, so queue wait is an honest function of (offered load / service rate).
// Every seed is fixed here, so a bench built on this harness is a
// deterministic function of its sweep parameters.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/query.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace meshsearch::bench {

/// A burst-stream factory: `make(count, seed)` returns `count` queries for
/// the engine's structure, deterministically derived from `seed`.
using StreamFn =
    std::function<std::vector<msearch::Query>(std::size_t, std::uint64_t)>;

struct EngineCase {
  service::EngineKey key;
  service::Engine* engine = nullptr;
  StreamFn make;
  double steps_per_batch = 0;  ///< calibrated: one full-capacity warm batch
};

struct ArrivalEvent {
  double at_steps = 0;
  std::size_t tenant = 0;
};

/// Steps one full-capacity batch charges on this warm engine — the unit
/// deadlines and the load multiplier are expressed against (service rate =
/// capacity / steps_per_batch queries per step).
inline double calibrate_batch_steps(EngineCase& ec) {
  service::ServiceScheduler sched;
  service::TenantQuota quota;
  quota.max_outstanding = ec.engine->capacity();
  auto& t = sched.add_tenant("calibrate", *ec.engine, quota);
  t.submit(ec.make(ec.engine->capacity(), /*seed=*/9));
  sched.run_until_idle();
  return sched.now_steps();
}

/// Queries per open-loop burst: half a mesh batch.
inline std::size_t burst_size(const EngineCase& ec) {
  return std::max<std::size_t>(1, ec.engine->capacity() / 2);
}

/// `tenants` tenants each offering `bursts` Poisson-spaced bursts of
/// burst_size queries, at aggregate offered load = `load` x the engine's
/// service rate; merged into one event list ordered by (arrival step,
/// tenant).
inline std::vector<ArrivalEvent> poisson_bursts(const EngineCase& ec,
                                                std::size_t tenants,
                                                std::size_t bursts,
                                                double load,
                                                std::uint64_t seed) {
  // Aggregate offered rate = tenants * burst / mean_gap queries/step;
  // setting it to load * (cap / steps_per_batch) gives the per-tenant gap.
  const double mean_gap =
      static_cast<double>(tenants) * static_cast<double>(burst_size(ec)) *
      ec.steps_per_batch /
      (static_cast<double>(ec.engine->capacity()) * load);
  std::vector<ArrivalEvent> events;
  for (std::size_t t = 0; t < tenants; ++t) {
    util::Rng rng(seed * 131 + t);
    double at = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      // Exponential inter-arrival; 1-u keeps the argument strictly positive.
      at += -std::log(1.0 - rng.uniform_real()) * mean_gap;
      events.push_back({at, t});
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.at_steps != b.at_steps) return a.at_steps < b.at_steps;
    return a.tenant < b.tenant;
  });
  return events;
}

/// One open-loop sweep point on `sched`: registers `tenants` uniform
/// tenants ("tenant0", ...) under `slo`, each with room for every query it
/// will offer, then drives the poisson_bursts events and drains. Before
/// each arrival the service pumps until its clock catches up (an idle gap
/// is skipped), then the tenant submits a fresh burst. A burst refused by
/// backpressure is dropped — what a backing-off client does; the refusal
/// is counted in the tenant's report.
inline void run_open_loop(service::ServiceScheduler& sched,
                          const EngineCase& ec, std::size_t tenants,
                          std::size_t bursts, double load,
                          const service::SloPolicy& slo, std::uint64_t seed) {
  const std::size_t burst = burst_size(ec);
  const auto events = poisson_bursts(ec, tenants, bursts, load, seed);
  service::TenantQuota quota;
  quota.max_outstanding = bursts * burst + ec.engine->capacity();
  std::vector<service::TenantSession*> sessions;
  for (std::size_t t = 0; t < tenants; ++t)
    sessions.push_back(&sched.add_tenant("tenant" + std::to_string(t),
                                         *ec.engine, quota, slo));
  std::uint64_t qseed = seed * 977;
  for (const auto& ev : events) {
    while (!sched.idle() && sched.now_steps() < ev.at_steps) sched.pump();
    if (sched.now_steps() < ev.at_steps) sched.advance_clock_to(ev.at_steps);
    try {
      sessions[ev.tenant]->submit(ec.make(burst, ++qseed));
    } catch (const BackpressureError&) {
      // Dropped whole; the tenant's report counts the rejection.
    }
  }
  sched.run_until_idle();
}

/// Algorithm-1 bursts: uniform 40-bit search keys.
inline std::vector<msearch::Query> alg1_queries(std::size_t mq,
                                                std::uint64_t seed) {
  auto qs = msearch::make_queries(mq);
  util::Rng qrng(seed);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  return qs;
}

/// "<prefix>_<dataset>_<kind>": an engine case's CSV name.
inline std::string case_csv_name(const std::string& prefix,
                                 const EngineCase& ec) {
  std::string csv = prefix + "_" + service::engine_key_name(ec.key);
  std::replace(csv.begin(), csv.end(), '/', '_');
  return csv;
}

/// One registry of warm engines for a whole sweep — setup is paid here,
/// once per structure, so every sweep point is warm-only work. Four cases,
/// in order: Algorithm 1 in both plans over one hierarchical DAG
/// ("hier"), Algorithm 2 over a directed 3-ary tree ("tree2") and
/// Algorithm 3 over an undirected binary tree ("tree3").
class ServiceEngines {
 public:
  ServiceEngines(std::size_t dag_n, std::size_t tree2_n, std::size_t tree3_n)
      : g_(hier_graph(dag_n)),
        dag_(g_, 2.0),
        tree2_(ds::iota_keys(tree2_n), 3, ds::TreeMode::kDirected),
        tree3_(ds::iota_keys(tree3_n), 2, ds::TreeMode::kUndirected) {
    using msearch::EngineKind;
    const auto shape = g_.shape_for(g_.vertex_count());
    const mesh::CostModel m;
    const auto shape2 = tree2_.graph().shape_for(tree2_.graph().vertex_count());
    const auto shape3 = tree3_.graph().shape_for(tree3_.graph().vertex_count());
    const auto [s1, s2] = tree3_.alpha_beta_splittings();
    add({"hier", EngineKind::kAlg1Paper}, alg1_queries,
        service::make_hierarchical_engine(dag_, msearch::PlanKind::kPaper,
                                          ds::HashWalk{0}, m, shape));
    add({"hier", EngineKind::kAlg1Geometric}, alg1_queries,
        service::make_hierarchical_engine(dag_, msearch::PlanKind::kGeometric,
                                          ds::HashWalk{0}, m, shape));
    add({"tree2", EngineKind::kAlg2Alpha},
        [tree2_n](std::size_t mq, std::uint64_t seed) {
          util::Rng qrng(seed);
          return ds::uniform_key_queries(mq, tree2_n + 20, qrng);
        },
        service::make_partitioned_engine(
            EngineKind::kAlg2Alpha, tree2_.graph(), tree2_.alpha_splitting(),
            tree2_.alpha_splitting(), tree2_.rank_count(), m, shape2));
    add({"tree3", EngineKind::kAlg3AlphaBeta},
        [tree3_n](std::size_t mq, std::uint64_t seed) {
          auto qs = msearch::make_queries(mq);
          util::Rng qrng(seed);
          for (auto& q : qs) {
            const auto a =
                qrng.uniform_range(-3, static_cast<std::int64_t>(tree3_n) + 3);
            q.key[0] = a;
            q.key[1] = a + qrng.uniform_range(0, 30);
          }
          return qs;
        },
        service::make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                         tree3_.graph(), s1, s2,
                                         tree3_.euler_scan(), m, shape3));
  }
  ServiceEngines(const ServiceEngines&) = delete;
  ServiceEngines& operator=(const ServiceEngines&) = delete;

  std::vector<EngineCase>& cases() { return cases_; }

 private:
  static msearch::DistributedGraph hier_graph(std::size_t n) {
    util::Rng rng(41);
    return ds::build_hierarchical_dag(n, 2.0, 3, rng);
  }
  void add(service::EngineKey key, StreamFn make,
           std::unique_ptr<service::Engine> engine) {
    EngineCase ec;
    ec.engine = &registry_.add(key, std::move(engine));
    ec.key = std::move(key);
    ec.make = std::move(make);
    cases_.push_back(std::move(ec));
  }

  msearch::DistributedGraph g_;
  msearch::HierarchicalDag dag_;  ///< points into g_
  ds::KaryTree tree2_;
  ds::KaryTree tree3_;
  service::EngineRegistry registry_;
  std::vector<EngineCase> cases_;
};

}  // namespace meshsearch::bench
