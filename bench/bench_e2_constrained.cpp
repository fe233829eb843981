// E2 — Lemma 3: Constrained-Multisearch(Psi, delta) runs in O(sqrt n)
// regardless of how queries are distributed over the pieces.
//
// Workload: a directed k-ary tree; queries are advanced to the tail pieces
// and a single Constrained-Multisearch call is measured. Three query
// distributions stress the Gamma-copy machinery: uniform (balanced),
// Zipf(1.1) (skewed), and point (every query in one piece). We also sweep
// the splitting depth to vary delta (piece-size exponent).
#include <cmath>

#include "bench_common.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/constrained.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;

namespace {

enum class Load { kUniform, kZipf, kPoint };

const char* load_name(Load l) {
  switch (l) {
    case Load::kUniform: return "uniform";
    case Load::kZipf: return "zipf(1.1)";
    default: return "point";
  }
}

struct RunResult {
  ConstrainedStats stats;
  double p;
};

RunResult run_one(std::size_t nkeys, Load load, std::int32_t cut_depth,
                  const bench::TraceOptions& topt = {},
                  const std::string& point = "") {
  KaryTree tree(ds::iota_keys(nkeys), 2, ds::TreeMode::kDirected);
  const auto psi = cut_depth < 0 ? tree.alpha_splitting()
                                 : tree.alpha_splitting_at(cut_depth);
  util::Rng rng(nkeys * 31 + static_cast<std::size_t>(load));
  std::vector<Query> qs;
  switch (load) {
    case Load::kUniform:
      qs = ds::uniform_key_queries(nkeys, nkeys, rng);
      break;
    case Load::kZipf:
      qs = ds::zipf_key_queries(nkeys, nkeys, 1.1, rng);
      break;
    case Load::kPoint:
      qs = make_queries(nkeys);
      for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(nkeys / 2);
      break;
  }
  reset_queries(qs);
  const auto prog = tree.rank_count();
  // Advance all queries into the tail pieces: cut_depth+1 global steps.
  const auto depth = cut_depth < 0
                         ? std::max<std::int32_t>(1, (tree.height() + 1) / 2)
                         : cut_depth;
  for (std::int32_t i = 0; i <= depth; ++i)
    global_multistep(tree.graph(), prog, qs);
  bench::TracedModel tm(topt);
  const auto shape = tree.graph().shape_for(qs.size());
  const auto st = constrained_multisearch(tree.graph(), psi, max_piece_size(psi),
                                          prog, qs, tm.model, shape);
  if (!point.empty()) bench::emit_trace(tm.rec, topt, point);
  return {st, static_cast<double>(shape.size())};
}

}  // namespace

int main(int argc, char** argv) {
  const auto topt = bench::parse_trace_flag(argc, argv);
  bench::BenchReport breport("e2_constrained", argc, argv);
  // Part 1: n sweep per load shape.
  for (const Load load : {Load::kUniform, Load::kZipf, Load::kPoint}) {
    bench::section(std::string("E2: Lemma 3, n sweep, load = ") +
                   load_name(load));
    util::Table t({"n(mesh)", "marked", "copies", "rounds", "advanced",
                   "steps", "steps/sqrt(n)"});
    std::vector<double> ns, steps;
    for (const auto nkeys : bench::pow2_sweep(10, 19)) {
      const auto r = run_one(nkeys, load, -1, topt,
                             std::string("e2_") + load_name(load) + "_n" +
                                 std::to_string(nkeys));
      t.add_row({static_cast<std::int64_t>(r.p),
                 static_cast<std::int64_t>(r.stats.marked),
                 static_cast<std::int64_t>(r.stats.copies),
                 static_cast<std::int64_t>(r.stats.rounds),
                 static_cast<std::int64_t>(r.stats.advanced),
                 r.stats.cost.steps, r.stats.cost.steps / std::sqrt(r.p)});
      ns.push_back(r.p);
      steps.push_back(r.stats.cost.steps);
    }
    bench::emit(t, std::string("e2_") + load_name(load));
    bench::report_fit("E2 constrained multisearch (claim O(sqrt n))", ns,
                      steps, 0.5);
  }

  // Part 2: delta sweep at fixed n (cut depth controls piece sizes).
  bench::section("E2: delta sweep at n = 2^18 (uniform load)");
  util::Table t({"cut depth", "delta", "copies", "rounds", "steps",
                 "steps/sqrt(n)"});
  const std::size_t nkeys = std::size_t{1} << 18;
  KaryTree probe(ds::iota_keys(nkeys), 2, ds::TreeMode::kDirected);
  for (std::int32_t d = 4; d < probe.height(); d += 3) {
    const auto r = run_one(nkeys, Load::kUniform, d, topt,
                           "e2_delta_d" + std::to_string(d));
    KaryTree tree(ds::iota_keys(nkeys), 2, ds::TreeMode::kDirected);
    const auto psi = tree.alpha_splitting_at(d);
    t.add_row({static_cast<std::int64_t>(d), psi.delta,
               static_cast<std::int64_t>(r.stats.copies),
               static_cast<std::int64_t>(r.stats.rounds), r.stats.cost.steps,
               r.stats.cost.steps / std::sqrt(r.p)});
  }
  bench::emit(t, "e2_delta");
  return 0;
}
