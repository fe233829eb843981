// E10 — multi-tenant service SLOs: open-loop load on warm engines.
//
// Claim (service/scheduler.hpp): a registry of warm engines plus a
// deficit-round-robin ServiceScheduler serves many tenants from one mesh
// with per-tenant latency that degrades gracefully as offered load crosses
// saturation. The load generator is OPEN-LOOP: each tenant's bursts arrive
// on a Poisson process over the service's virtual clock regardless of how
// far behind the service is — arrivals are never throttled by completions,
// so queue wait is an honest function of (offered load / service rate).
//
// Sweep: offered-load multiplier x tenant count x scheduling policy, for
// all four engine kinds. Per point we report p50/p95/p99 completion
// latency, p95 queue wait (both in simulated mesh steps, merged across
// tenants) and saturation throughput (completed queries per 1000 steps).
// Everything in the tables is a deterministic function of the arrival
// trace and the pump sequence — the virtual clock never reads wall time —
// so the bench gate pins these values exactly. Expectations:
//
//   * load 0.5: queue wait is a small multiple of one batch's steps and
//     throughput tracks the offered rate.
//   * load 2.0: throughput plateaus at the engine's service rate (that IS
//     the saturation measurement) and latency grows with backlog depth.
//   * drr vs exhaustive: identical totals — with uniform tenants the
//     policies differ in interleaving, not in work.
//
// `--trace <prefix>` additionally dumps one showcase point (Algorithm 1
// paper plan, two tenants) with the recorder wired, whose attribution
// table ends with the tenant.* metric families from export_metrics().
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/query.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "service_harness.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using namespace meshsearch::msearch;
using namespace meshsearch::service;
using bench::EngineCase;

namespace {

struct PointResult {
  std::size_t tenants = 0;
  double load = 0;
  SchedulePolicy policy = SchedulePolicy::kDeficitRoundRobin;
  double p50 = 0, p95 = 0, p99 = 0;  ///< latency, simulated steps
  double qwait_p95 = 0;              ///< queue wait, simulated steps
  double throughput = 0;             ///< completed queries per 1000 steps
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
};

/// One sweep point: `tenants` uniform tenants each submitting `bursts`
/// Poisson-spaced bursts of capacity/2 queries, aggregate offered load =
/// `load` x the engine's service rate. Open loop: the event list is fixed
/// up front; the service pumps between arrivals and drains afterwards.
PointResult run_point(EngineCase& ec, std::size_t tenants, double load,
                      SchedulePolicy policy, std::size_t bursts,
                      std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.policy = policy;
  ServiceScheduler sched(cfg);
  bench::run_open_loop(sched, ec, tenants, bursts, load, SloPolicy{}, seed);

  PointResult pt;
  pt.tenants = tenants;
  pt.load = load;
  pt.policy = policy;
  util::LogHistogram latency, qwait;
  for (const auto& rep : sched.reports()) {
    latency.merge(rep.latency_steps);
    qwait.merge(rep.queue_wait_steps);
    pt.submitted += static_cast<std::int64_t>(rep.submitted);
    pt.completed += static_cast<std::int64_t>(rep.completed);
    if (rep.failed_queries != 0 || rep.rejected_queries != 0)
      std::cout << "VIOLATION: fault-free open loop lost queries (tenant "
                << rep.tenant << ")\n";
  }
  pt.p50 = latency.p50();
  pt.p95 = latency.p95();
  pt.p99 = latency.p99();
  pt.qwait_p95 = qwait.p95();
  pt.throughput = 1000.0 * static_cast<double>(pt.completed) /
                  std::max(1.0, sched.now_steps());
  return pt;
}

void report(const EngineCase& ec, const std::vector<PointResult>& pts) {
  const std::string name = engine_key_name(ec.key);
  util::Table t({"tenants", "load", "policy", "lat p50", "lat p95",
                 "lat p99", "qwait p95", "q/kstep", "completed"});
  for (const auto& pt : pts)
    t.add_row({static_cast<std::int64_t>(pt.tenants), pt.load,
               std::string(schedule_policy_name(pt.policy)), pt.p50, pt.p95,
               pt.p99, pt.qwait_p95, pt.throughput, pt.completed});
  bench::section("E10: " + name + " (steps/batch = " +
                 std::to_string(ec.steps_per_batch) + ")");
  bench::emit(t, bench::case_csv_name("e10", ec));
  for (const auto& pt : pts)
    if (pt.completed != pt.submitted)
      std::cout << "VIOLATION: " << name << " left queries unresolved at "
                << pt.tenants << " tenants, load " << pt.load << "\n";
}

/// Showcase trace: two tenants on one warm Algorithm-1 engine with the
/// recorder wired, so emit_trace's attribution table ends with the
/// tenant.<name>.* metric families and the service.* totals.
void showcase(const bench::TraceOptions& topt) {
  if (!topt.enabled) return;
  util::Rng rng(7);
  const auto g = ds::build_hierarchical_dag(1 << 10, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  bench::TracedModel tm(topt);
  auto engine = make_hierarchical_engine(dag, PlanKind::kPaper,
                                         ds::HashWalk{0}, tm.model, shape);
  ServiceScheduler sched(ServiceConfig{}, &tm.rec);
  const TenantQuota quota{.max_outstanding = engine->capacity()};
  auto& a = sched.add_tenant("acme", *engine, quota);
  auto& b = sched.add_tenant("bolt", *engine, quota);
  a.submit(bench::alg1_queries(engine->capacity(), 81));
  b.submit(bench::alg1_queries(engine->capacity(), 82));
  sched.run_until_idle();
  sched.export_metrics();
  bench::emit_trace(tm.rec, topt, "e10_showcase_two_tenants");
  if (bench::BenchReport* report = bench::BenchReport::active())
    report->add_wall_from(tm.rec);
}

}  // namespace

int main(int argc, char** argv) {
  const auto topt = bench::parse_trace_flag(argc, argv);
  bench::BenchReport breport("e10_service", argc, argv);
  // --smoke: smaller structures and fewer bursts for the CI bench gate —
  // still all four engines, both policies, and 2 and 4 tenants.
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  if (smoke) breport.set_config("smoke", "1");
  const std::size_t dag_n = smoke ? (1 << 10) : (1 << 12);
  const std::size_t tree2_n = smoke ? (1 << 8) : (1 << 10);
  const std::size_t tree3_n = smoke ? (1 << 8) : (1 << 9);
  const std::size_t bursts = smoke ? 8 : 24;
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.5, 2.0}
            : std::vector<double>{0.5, 0.9, 2.0};
  const std::vector<std::size_t> tenant_counts{2, 4};
  breport.set_config("bursts", std::to_string(bursts));

  bench::ServiceEngines engines(dag_n, tree2_n, tree3_n);
  std::uint64_t point_seed = 100;
  for (auto& ec : engines.cases()) {
    ec.steps_per_batch = bench::calibrate_batch_steps(ec);
    std::vector<PointResult> pts;
    for (const std::size_t tenants : tenant_counts)
      for (const double load : loads)
        for (const auto policy : {SchedulePolicy::kDeficitRoundRobin,
                                  SchedulePolicy::kExhaustive}) {
          const auto wall = bench::time_point("e10.sweep_point");
          pts.push_back(
              run_point(ec, tenants, load, policy, bursts, ++point_seed));
        }
    report(ec, pts);
  }

  showcase(topt);
  return 0;
}
