// stream_locality: one StreamScheduler::run per pass over a warm
// Algorithm-1 paper-plan engine on a hierarchical DAG of about 2^18
// vertices. The stream holds several mesh capacities of uniform keys under
// BatchOrder::kLocalityReorder.
//
// The working set is far past per-core L2 and no service code runs: the
// wall time goes to plan_batches' reorder sort, the per-batch gather and
// scatter of Query records, and the Algorithm-1 visit loop.
#include "datastruct/workloads.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ms = meshsearch;
using ms::msearch::Query;

namespace {

/// Levels of 1, 2, 4, ... vertices: 2^18 - 1 in all, on a 512 x 512 mesh.
constexpr std::size_t kDagVertices = (std::size_t{1} << 18) - 1;
constexpr std::size_t kCapacities = 4;  ///< stream length in mesh capacities

class StreamLocality final : public Workload {
 public:
  explicit StreamLocality(std::uint64_t seed) : seed_(seed) {}

  SetupResult setup() override {
    engine_.reset();
    dag_.reset();
    g_.reset();
    SetupResult r;
    const std::size_t rss0 = rss_bytes();
    const auto t0 = Clock::now();
    ms::util::Rng rng(kDatasetSeed);
    g_ = std::make_unique<ms::msearch::DistributedGraph>(
        ms::ds::build_hierarchical_dag(kDagVertices, 2.0, 3, rng));
    dag_ = std::make_unique<ms::msearch::HierarchicalDag>(*g_, 2.0);
    const auto t1 = Clock::now();
    const std::size_t rss1 = rss_bytes();
    engine_ = std::make_unique<ms::msearch::PreparedSearch<ms::ds::HashWalk>>(
        *dag_, ms::msearch::PlanKind::kPaper, ms::ds::HashWalk{0}, model_,
        g_->shape_for(g_->vertex_count()));
    const auto t2 = Clock::now();
    r.layer["datastruct.build_ms"] = ms_between(t0, t1);
    r.layer["engine.alg1-paper.setup_ms"] = ms_between(t1, t2);
    r.layer["datastruct.bytes_per_vertex"] =
        rss1 > rss0 ? static_cast<double>(rss1 - rss0) /
                          static_cast<double>(g_->vertex_count())
                    : 0.0;
    return r;
  }

  void make_inputs() override {
    ms::util::Rng rng(seed_ * 0x9e3779b97f4a7c15ull + 11);
    stream_ = ms::msearch::make_queries(kCapacities * engine_->capacity());
    for (auto& q : stream_)
      q.key[0] = static_cast<std::int64_t>(rng.uniform(1ull << 40));
    auto oracle = stream_;
    ms::msearch::sequential_multisearch(*g_, ms::ds::HashWalk{0}, oracle);
    expected_ = ms::msearch::outcomes(oracle);
  }

  PassResult pass(Tracing* tr) override {
    PassResult r;
    std::vector<Query> qs = stream_;
    const ms::msearch::BatchPolicy policy{
        .order = ms::msearch::BatchOrder::kLocalityReorder};
    ms::msearch::StreamScheduler sched(*engine_, policy);
    model_.trace = tr != nullptr ? &tr->rec : nullptr;

    const Clock::time_point t0 = Clock::now();
    const ms::msearch::StreamResult res = sched.run(qs);
    const Clock::time_point t1 = Clock::now();
    model_.trace = nullptr;

    r.wall_ms = ms_between(t0, t1);
    r.offered = qs.size();
    r.failed = res.failed_queries.size();
    r.answered = r.offered - r.failed;
    // Set-up is charged at prepare time and attributed to the warm-up
    // pass's first batch; a pass charges inject + run.
    r.charged_steps = (res.inject + res.run).steps;
    // Every query is handed in at the run() call and answered when its
    // batch ends. The library times each batch from the end of planning;
    // counting back from the run's end puts planning into every query's
    // latency, as a caller sees it.
    if (!res.batches.empty()) {
      const auto done_us = [](const ms::msearch::BatchReport& b) {
        return b.queue_wait_us + b.wall_us;
      };
      const double last_us = done_us(res.batches.back());
      for (const auto& b : res.batches) {
        if (b.degraded) continue;
        const double lat = r.wall_ms - (last_us - done_us(b)) / 1000.0;
        r.latency_ms.emplace_back(lat, b.size);
      }
    }

    const auto got = ms::msearch::outcomes(qs);
    const std::string diff = ms::msearch::diff_outcomes(expected_, got);
    if (!diff.empty())
      r.errors.push_back("answer differs from the oracle: " + diff);
    r.answer_digest = digest(got);

    if (tr != nullptr) {
      SpanLog& log = tr->log;
      Span root;
      root.name = "pass";
      root.begin_us = log.us_since_epoch(t0);
      root.end_us = log.us_since_epoch(t1);
      const std::int32_t root_idx = log.add(std::move(root));
      const std::size_t first = log.spans().size();
      import_recorder_spans(log, tr->rec, tr->rec_epoch_us, root_idx);
      // run() plans the whole stream before it opens its "stream" span;
      // that gap is the in-run planning.
      for (std::size_t i = first; i < log.spans().size(); ++i) {
        const Span& s = log.spans()[i];
        if (s.name != "stream" || s.parent != root_idx) continue;
        Span plan;
        plan.name = "stream.plan";
        plan.begin_us = log.us_since_epoch(t0);
        plan.end_us = s.begin_us;
        plan.parent = root_idx;
        log.add(std::move(plan));
        break;
      }
      const auto total = log.total_ms();
      const auto self = log.self_ms();
      auto& L = r.layer;
      const auto get = [](const std::map<std::string, double>& m,
                          const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
      };
      L["stream.run_ms"] = r.wall_ms;
      L["stream.gather_scatter_ms"] = get(self, "stream.batch");
      L["stream.batches"] = static_cast<double>(res.batches.size());
      double visits = 0;
      for (const auto& b : res.batches) visits += static_cast<double>(b.visits);
      const double engine_ms =
          get(total, "stream.batch") - get(self, "stream.batch");
      L["engine.alg1-paper.run_ms"] = engine_ms;
      L["engine.alg1-paper.visits"] = visits;
      L["engine.alg1-paper.ns_per_visit"] =
          visits > 0 ? engine_ms * 1e6 / visits : 0.0;
      // plan_batches alone, on the same stream, outside the timed region.
      const Clock::time_point p0 = Clock::now();
      const auto plan = ms::msearch::plan_batches(stream_, policy,
                                                  engine_->capacity());
      L["stream.plan_ms"] = ms_between(p0, Clock::now());
      if (plan.size() != res.batches.size())
        r.errors.push_back("plan_batches gave a different batch count");
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  ms::mesh::CostModel model_;  ///< the engine charges through it
  std::unique_ptr<ms::msearch::DistributedGraph> g_;
  std::unique_ptr<ms::msearch::HierarchicalDag> dag_;
  std::unique_ptr<ms::msearch::PreparedSearch<ms::ds::HashWalk>> engine_;
  std::vector<Query> stream_;
  std::vector<ms::msearch::QueryOutcome> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_locality(std::uint64_t seed) {
  return std::make_unique<StreamLocality>(seed);
}

}  // namespace perfbench
