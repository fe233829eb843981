// Multisearch for partitionable graphs — paper §4.5 (Algorithm 2, directed
// alpha-partitionable) and §4.6 (Algorithm 3, undirected
// alpha-beta-partitionable).
//
// One log-phase is:
//   1. every query visits the first/next node of its path   (global RAR)
//   2. Constrained-Multisearch(Psi_A, .)                    (Lemma 3)
//   3. every query visits the next node                     (global RAR)
//   4. Constrained-Multisearch(Psi_B, .)                    (Lemma 3)
// For Algorithm 2, Psi_A == Psi_B == G(S) = {H_1..H_k1, T_1..T_k2}.
// For Algorithm 3, Psi_A = G(S_1) and Psi_B = G(S_2).
// The driver iterates log-phases until every search path has terminated,
// ceil(r / log n) times for longest path r (Theorems 5 and 7).
#pragma once

#include <string>
#include <vector>

#include "multisearch/constrained.hpp"
#include "multisearch/recovery.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"

namespace meshsearch::msearch {

struct PartitionedRunResult {
  mesh::Cost cost;
  std::size_t log_phases = 0;
  std::size_t constrained_calls = 0;
  std::size_t total_visits = 0;
  std::int32_t longest_path = 0;  ///< r: max steps over queries at the end
};

/// One global multistep: every live query visits the next node in its path
/// (one full-mesh RAR, host-parallel over query chunks). Returns the number
/// of queries that advanced.
template <SearchProgram P>
std::size_t global_multistep(const DistributedGraph& g, const P& prog,
                             std::vector<Query>& queries) {
  return advance_all(g, prog, queries);
}

namespace detail {
/// Algorithms 2/3 over a structure its caller has checked: the graph
/// validated and within `shape`, both splittings validated against it, the
/// batch within capacity. `max_a` and `max_b` are the largest pieces of
/// `psi_a` and `psi_b` (validate_splitting_input returns them), passed into
/// every Lemma-3 call. multisearch_partitioned calls it after its front
/// door; a warm engine (stream.hpp PreparedSearch) calls it on every batch
/// with the splittings and sizes it checked at prepare. Paranoid mode audits
/// every run here, warm ones included; `engine` names the run in its errors.
template <SearchProgram P>
PartitionedRunResult run_partitioned(
    const DistributedGraph& g, const Splitting& psi_a, std::size_t max_a,
    const Splitting& psi_b, std::size_t max_b, const P& prog,
    std::vector<Query>& queries, const mesh::CostModel& m,
    mesh::MeshShape shape, const char* engine, bool duplicate_copies = true) {
  PartitionedRunResult res;
  const double p = static_cast<double>(shape.size());
  reset_queries(queries);
  // Paranoid mode: snapshot the post-reset input for the shadow oracle.
  const bool paranoid = paranoid_enabled();
  std::vector<Query> shadow;
  if (paranoid) shadow = queries;
  TRACE_SPAN(m.trace, "partitioned multisearch");
  // One step of a log-phase, checkpointing `queries` via recovered_phase: a
  // failed attempt re-runs (and re-charges) the step, then state rolls
  // back, so the visit count kept is the final successful attempt's. A
  // global multistep (one full-mesh RAR) when `psi` is null, else one whole
  // Constrained-Multisearch call (its steps 1-6) over `psi`.
  const auto step = [&](const char* span, const char* phase,
                        const Splitting* psi, std::size_t max_piece) {
    trace::SpanScope s(m.trace, span);
    std::size_t advanced = 0;
    res.cost += recovered_phase(m, p, phase, queries, [&] {
      if (psi == nullptr) {
        advanced = global_multistep(g, prog, queries);
        return m.rar(p);
      }
      const auto st = constrained_multisearch(g, *psi, max_piece, prog,
                                              queries, m, shape,
                                              duplicate_copies);
      advanced = st.advanced;
      return st.cost;
    });
    res.total_visits += advanced;
  };
  while (!all_done(queries)) {
    trace::SpanScope phase_span(
        m.trace, "log-phase " + std::to_string(res.log_phases));
    step("phase.step1: global multistep", "phase.step1", nullptr, 0);
    step("phase.step2: constrained(Psi_A)", "phase.step2", &psi_a, max_a);
    step("phase.step3: global multistep", "phase.step3", nullptr, 0);
    step("phase.step4: constrained(Psi_B)", "phase.step4", &psi_b, max_b);
    res.constrained_calls += 2;
    ++res.log_phases;
    // Termination check: a reduction over query flags.
    res.cost += m.reduce(p);
  }
  res.longest_path = max_steps(queries);
  if (paranoid) paranoid_audit(g, prog, std::move(shadow), queries, engine);
  return res;
}
}  // namespace detail

/// Algorithms 2 and 3 (below) share this entry. Checks the graph, both
/// splittings, the fit and the batch size on every call.
template <SearchProgram P>
PartitionedRunResult multisearch_partitioned(
    const DistributedGraph& g, const Splitting& psi_a, const Splitting& psi_b,
    const P& prog, std::vector<Query>& queries, const mesh::CostModel& m,
    mesh::MeshShape shape, bool duplicate_copies = true) {
  // Front door: reject malformed input before any phase is charged.
  constexpr const char* kEngine = "partitioned";
  validate_graph(g, kEngine);
  const std::size_t max_a = validate_splitting_input(g, psi_a, kEngine);
  const std::size_t max_b = validate_splitting_input(g, psi_b, kEngine);
  validate_graph_fits(g, shape, kEngine);
  validate_batch_size(queries.size(), shape.size(), kEngine);
  return detail::run_partitioned(g, psi_a, max_a, psi_b, max_b, prog, queries,
                                 m, shape, kEngine, duplicate_copies);
}

/// Algorithm 2: alpha-partitionable directed graphs (Theorem 5).
template <SearchProgram P>
PartitionedRunResult multisearch_alpha(const DistributedGraph& g,
                                       const Splitting& gs, const P& prog,
                                       std::vector<Query>& queries,
                                       const mesh::CostModel& m,
                                       mesh::MeshShape shape,
                                       bool duplicate_copies = true) {
  return multisearch_partitioned(g, gs, gs, prog, queries, m, shape,
                                 duplicate_copies);
}

/// Algorithm 3: alpha-beta-partitionable undirected graphs (Theorem 7).
template <SearchProgram P>
PartitionedRunResult multisearch_alpha_beta(const DistributedGraph& g,
                                            const Splitting& gs1,
                                            const Splitting& gs2, const P& prog,
                                            std::vector<Query>& queries,
                                            const mesh::CostModel& m,
                                            mesh::MeshShape shape,
                                            bool duplicate_copies = true) {
  return multisearch_partitioned(g, gs1, gs2, prog, queries, m, shape,
                                 duplicate_copies);
}

}  // namespace meshsearch::msearch
