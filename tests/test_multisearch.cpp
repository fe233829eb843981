// Multisearch core tests: splittings, constrained multisearch (Lemma 3
// semantics), Algorithms 2/3 (Theorems 5/7) against the sequential oracle,
// and Algorithm 1 (Theorem 2) on hierarchical DAGs.
#include <gtest/gtest.h>

#include <cmath>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "util/stats.hpp"
#include "multisearch/constrained.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/setup.hpp"
#include "multisearch/synchronous.hpp"
#include "multisearch/validate.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// graph & query plumbing
// ---------------------------------------------------------------------------

TEST(Graph, BuildAndValidate) {
  DistributedGraph g(4);
  g.edit().add_edge(0, 1);
  g.edit().add_undirected_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.size(), 4u + 3u);
  EXPECT_EQ(g.max_degree(), 1u);  // 0->1, 1->2, 2->1: one out-edge each
  validate_graph(g, "test");
}

TEST(Graph, RejectsSelfLoopAndRange) {
  DistributedGraph g(2);
  EXPECT_THROW(g.edit().add_edge(0, 0), std::logic_error);
  EXPECT_THROW(g.edit().add_edge(0, 5), std::logic_error);
}

TEST(Graph, ShapeForCoversVerticesAndQueries) {
  DistributedGraph g(100);
  EXPECT_GE(g.shape_for(50).size(), 100u);
  EXPECT_GE(g.shape_for(300).size(), 300u);
}

TEST(Queries, OutcomeDiffReportsFirstMismatch) {
  auto a = make_queries(2);
  auto b = make_queries(2);
  a[1].acc0 = 5;
  const auto d = diff_outcomes(outcomes(a), outcomes(b));
  EXPECT_NE(d.find("query 1"), std::string::npos);
  EXPECT_EQ(diff_outcomes(outcomes(a), outcomes(a)), "");
}

// ---------------------------------------------------------------------------
// splittings
// ---------------------------------------------------------------------------

TEST(Splitting, KaryAlphaSplittingIsValid) {
  KaryTree tree(ds::iota_keys(200), 2, TreeMode::kDirected);
  const auto s = tree.alpha_splitting();
  validate_alpha_splitting(tree.graph(), s);
  // Piece sizes near sqrt(n): delta around 1/2 for a binary tree.
  EXPECT_GT(s.delta, 0.3);
  EXPECT_LT(s.delta, 0.8);
}

TEST(Splitting, KaryAlphaBetaBordersFarApart) {
  KaryTree tree(ds::iota_keys(512), 2, TreeMode::kUndirected);
  const auto [s1, s2] = tree.alpha_beta_splittings();
  validate_splitting_input(tree.graph(), s1, "splitting");
  validate_splitting_input(tree.graph(), s2, "splitting");
  const auto dist = border_distance(tree.graph(), s1, s2, 64);
  EXPECT_GE(dist, 1u);  // Theta(h/6) for the Figure-3 construction
}

TEST(Splitting, BorderVerticesAreEndpointsOfCrossEdges) {
  KaryTree tree(ds::iota_keys(64), 2, TreeMode::kUndirected);
  const auto [s1, s2] = tree.alpha_beta_splittings();
  for (const Vid v : border_vertices(tree.graph(), s1)) {
    const auto& rec = tree.graph().vert(v);
    bool crosses = false;
    for (std::uint8_t d = 0; d < rec.degree; ++d)
      crosses |= s1.piece[static_cast<std::size_t>(rec.nbr[d])] !=
                 s1.piece[static_cast<std::size_t>(v)];
    EXPECT_TRUE(crosses);
  }
}

TEST(Splitting, NormalizeRespectsCapAndKind) {
  Splitting s;
  s.piece = {0, 0, 1, 2, 3, 3, 4, 5};
  s.kind = {PieceKind::kHead, PieceKind::kTail, PieceKind::kTail,
            PieceKind::kHead, PieceKind::kTail, PieceKind::kTail};
  s.delta = 0.5;
  const auto norm = normalize_splitting(s, 3);
  // Every group <= 3 vertices and single-kind.
  const auto sizes = piece_sizes(norm);
  for (std::size_t pc = 0; pc < sizes.size(); ++pc) EXPECT_LE(sizes[pc], 3u);
  for (std::size_t v = 0; v < s.piece.size(); ++v) {
    const auto orig_kind = s.kind[static_cast<std::size_t>(s.piece[v])];
    const auto new_kind = norm.kind[static_cast<std::size_t>(norm.piece[v])];
    EXPECT_EQ(static_cast<int>(orig_kind), static_cast<int>(new_kind));
  }
  // Fewer groups than pieces (merging happened).
  EXPECT_LT(norm.num_pieces(), s.num_pieces());
}

TEST(Splitting, CombIsAlphaPartitionable) {
  const auto comb = ds::build_comb(16, 32);
  validate_alpha_splitting(comb.graph, comb.splitting);
}

// ---------------------------------------------------------------------------
// sequential + synchronous baselines agree
// ---------------------------------------------------------------------------

TEST(Baselines, PredecessorSearchOracle) {
  const auto keys = ds::iota_keys(100);
  KaryTree tree(keys, 3, TreeMode::kDirected);
  util::Rng rng(1);
  auto qs = ds::uniform_key_queries(64, 130, rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.predecessor_search(), qseq);
  // Manual check of predecessor semantics against the key set.
  for (const auto& q : qseq) {
    const std::int64_t x = q.key[0];
    const std::int64_t expect =
        x >= 99 ? 99 : (x < 0 ? std::numeric_limits<std::int64_t>::min() : x);
    EXPECT_EQ(q.acc0, expect) << "x=" << x;
  }
  // Synchronous baseline must agree with sequential.
  auto qsync = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qsync.size());
  reset_queries(qsync);
  synchronous_multisearch(tree.graph(), tree.predecessor_search(), qsync, m,
                          shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qsync)), "");
}

TEST(Baselines, SynchronousCostIsRTimesSqrtN) {
  const auto comb = ds::build_comb(8, 64);
  auto qs = make_queries(32);
  util::Rng rng(2);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
    q.key[1] = 40;  // tooth steps
  }
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  reset_queries(qs);
  const auto res =
      synchronous_multisearch(comb.graph, ds::CombWalk{comb.root}, qs, m, shape);
  const std::int32_t r = max_steps(qs);
  EXPECT_EQ(res.multisteps, static_cast<std::size_t>(r));
  const double per_step = m.rar(static_cast<double>(shape.size())).steps +
                          m.broadcast(static_cast<double>(shape.size())).steps;
  EXPECT_NEAR(res.cost.steps, r * per_step, 1e-9);
}

// ---------------------------------------------------------------------------
// constrained multisearch (Lemma 3)
// ---------------------------------------------------------------------------

TEST(Constrained, AdvancesWithinPieceOnly) {
  // Comb: teeth are pieces. A query inside a tooth advances along it but
  // never exits through the splitter (there are no exit edges anyway);
  // a query at a spine node whose next hop is a tooth must NOT take it.
  const auto comb = ds::build_comb(4, 100);
  auto qs = make_queries(4);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(q.qid);
    q.key[1] = 100;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  // Advance every query to its spine leaf (the last spine node): height+1
  // steps from the root.
  for (std::int32_t i = 0; i <= comb.spine_height; ++i)
    global_multistep(comb.graph, prog, qs);
  for (const auto& q : qs)
    ASSERT_EQ(comb.graph.vert(q.current).key[6], std::int64_t{1});
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  auto before = qs;
  const auto st =
      constrained_multisearch(comb.graph, comb.splitting,
                              max_piece_size(comb.splitting), prog, qs, m, shape);
  // All queries sit in the spine (head) piece; their next hop crosses into a
  // tooth, so nobody may advance.
  EXPECT_EQ(st.advanced, 0u);
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_EQ(qs[i].current, before[i].current);
  // Now take one global step into the teeth and run constrained again: every
  // query advances up to log2(n) steps, all inside its tooth.
  global_multistep(comb.graph, prog, qs);
  const auto st2 =
      constrained_multisearch(comb.graph, comb.splitting,
                              max_piece_size(comb.splitting), prog, qs, m, shape);
  const auto max_rounds = static_cast<std::size_t>(
      std::floor(std::log2(static_cast<double>(shape.size()))));
  EXPECT_GT(st2.advanced, 0u);
  EXPECT_LE(st2.rounds, max_rounds);
  for (const auto& q : qs)
    EXPECT_EQ(comb.splitting.piece[static_cast<std::size_t>(q.current)],
              comb.splitting.piece[static_cast<std::size_t>(q.current)]);
}

TEST(Constrained, StepBudgetIsLog2N) {
  const auto comb = ds::build_comb(2, 4000);  // teeth longer than log2 n
  auto qs = make_queries(2);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(q.qid);
    q.key[1] = 4000;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  for (std::int32_t i = 0; i <= comb.spine_height + 1; ++i)
    global_multistep(comb.graph, prog, qs);
  const auto steps_before = qs[0].steps;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  const auto st =
      constrained_multisearch(comb.graph, comb.splitting,
                              max_piece_size(comb.splitting), prog, qs, m, shape);
  const auto budget = static_cast<std::int32_t>(
      std::floor(std::log2(static_cast<double>(shape.size()))));
  EXPECT_LE(qs[0].steps - steps_before, budget);
  EXPECT_EQ(st.rounds, static_cast<std::size_t>(budget));
}

TEST(Constrained, EmptyMarkSetExitsEarly) {
  const auto comb = ds::build_comb(4, 8);
  auto qs = make_queries(4);
  reset_queries(qs);
  for (auto& q : qs) q.done = true;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  const auto st = constrained_multisearch(
      comb.graph, comb.splitting, max_piece_size(comb.splitting),
      ds::CombWalk{comb.root}, qs, m, shape);
  EXPECT_EQ(st.marked, 0u);
  EXPECT_EQ(st.copies, 0u);
  // Exit after steps 1-3 only.
  const double p = static_cast<double>(shape.size());
  EXPECT_NEAR(st.cost.steps,
              m.rar(p).steps + m.raw(p).steps + m.scan(p).steps +
                  m.reduce(p).steps,
              1e-9);
}

TEST(Constrained, CopiesMatchGammaFormula) {
  // Point congestion: all queries in one tooth => gamma = ceil(q / cap).
  const auto comb = ds::build_comb(4, 64);
  const std::size_t m_queries = 256;
  auto qs = make_queries(m_queries);
  for (auto& q : qs) {
    q.key[0] = 7;  // same key => same tooth
    q.key[1] = 64;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  for (std::int32_t i = 0; i <= comb.spine_height + 1; ++i)
    global_multistep(comb.graph, prog, qs);
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  auto psi = comb.splitting;
  const auto st = constrained_multisearch(comb.graph, psi, max_piece_size(psi),
                                          prog, qs, m, shape);
  const std::size_t cap = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(
          std::pow(static_cast<double>(shape.size()), psi.delta))),
      max_piece_size(psi));
  EXPECT_EQ(st.copies, (m_queries + cap - 1) / cap);
}

// ---------------------------------------------------------------------------
// Algorithm 2 (alpha-partitionable, Theorem 5)
// ---------------------------------------------------------------------------

class Alg2Test : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(Alg2Test, MatchesSequentialOracle) {
  const auto [k, nkeys] = GetParam();
  KaryTree tree(ds::iota_keys(static_cast<std::size_t>(nkeys)), k,
                TreeMode::kDirected);
  util::Rng rng(99);
  auto qs = ds::uniform_key_queries(static_cast<std::size_t>(nkeys),
                                    static_cast<std::uint64_t>(nkeys) + 20,
                                    rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.rank_count(), qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto res = multisearch_alpha(tree.graph(), tree.alpha_splitting(),
                                     tree.rank_count(), qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
  // Rank semantics: acc0 = x+1 clamped to [0, nkeys].
  for (const auto& q : qalg) {
    const auto expect = std::clamp<std::int64_t>(q.key[0] + 1, 0, nkeys);
    EXPECT_EQ(q.acc0, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg2Test,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u),
                       ::testing::Values(1, 2, 7, 64, 100, 1000)));

TEST(Alg2, CombLongPathsNeedFewLogPhases) {
  const auto comb = ds::build_comb(16, 512);
  const std::size_t m_q = 128;
  auto qs = make_queries(m_q);
  util::Rng rng(5);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 20));
    q.key[1] = 500;
  }
  auto qseq = qs;
  const ds::CombWalk prog{comb.root};
  sequential_multisearch(comb.graph, prog, qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qalg.size());
  const auto res = multisearch_alpha(comb.graph, comb.splitting, prog, qalg, m,
                                     shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  // r ~ 500+5; each log-phase advances >= ~log2(n) ~ 13 steps inside a
  // tooth; expect ceil(r / logn)-ish phases, far fewer than r.
  const double n = static_cast<double>(shape.size());
  const double logn = std::log2(n);
  const double r = static_cast<double>(res.longest_path);
  EXPECT_LE(static_cast<double>(res.log_phases), 2.0 * r / logn + 3.0);
}

TEST(Alg2, DuplicationOffStillCorrect) {
  KaryTree tree(ds::iota_keys(256), 2, TreeMode::kDirected);
  util::Rng rng(6);
  auto qs = ds::zipf_key_queries(256, 256, 1.1, rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.rank_count(), qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto res =
      multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                        qalg, m, shape, /*duplicate_copies=*/false);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  // And it must cost at least as much as the duplicated version.
  auto qalg2 = qs;
  const auto res2 =
      multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                        qalg2, m, shape, /*duplicate_copies=*/true);
  EXPECT_GE(res.cost.steps, res2.cost.steps - 1e-9);
}

class RandomPartitionableTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomPartitionableTest, Algorithm2MatchesOracle) {
  const auto [k1, k2, piece] = GetParam();
  util::Rng rng(500 + static_cast<std::uint64_t>(k1 * 100 + k2 * 10 + piece));
  const auto inst = ds::build_random_partitionable(
      static_cast<std::size_t>(k1), static_cast<std::size_t>(k2),
      static_cast<std::size_t>(piece), 3, rng);
  validate_alpha_splitting(inst.graph, inst.splitting);
  const ds::PartitionableWalk prog{&inst};
  auto qs = make_queries(inst.graph.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  sequential_multisearch(inst.graph, prog, qseq);
  // Every search must end in a sink; case-3 queries cross exactly one
  // splitter edge (head piece -> tail piece) on the way.
  for (const auto& q : qseq) {
    ASSERT_GE(q.result, 0);
    EXPECT_EQ(inst.graph.vert(q.result).degree, 0u);
  }
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = inst.graph.shape_for(qalg.size());
  const auto res = multisearch_alpha(inst.graph, inst.splitting, prog, qalg,
                                     m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomPartitionableTest,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(1, 5, 16),
                       ::testing::Values(2, 17, 90)));

TEST(RandomPartitionable, NormalizedSplittingStillWorks) {
  util::Rng rng(501);
  const auto inst = ds::build_random_partitionable(6, 20, 31, 3, rng);
  const ds::PartitionableWalk prog{&inst};
  auto qs = make_queries(512);
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  sequential_multisearch(inst.graph, prog, qseq);
  // Group pieces to ~2x piece size (the §4.5 normalization) and re-run.
  const auto norm = normalize_splitting(inst.splitting, 62);
  validate_alpha_splitting(inst.graph, norm);
  EXPECT_LT(norm.num_pieces(), inst.splitting.num_pieces());
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = inst.graph.shape_for(qs.size());
  multisearch_alpha(inst.graph, norm, prog, qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
}

// ---------------------------------------------------------------------------
// Algorithm 3 (alpha-beta-partitionable, Theorem 7)
// ---------------------------------------------------------------------------

class Alg3Test : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(Alg3Test, EulerScanMatchesOracle) {
  const auto [k, nkeys] = GetParam();
  KaryTree tree(ds::iota_keys(static_cast<std::size_t>(nkeys)), k,
                TreeMode::kUndirected);
  util::Rng rng(7);
  auto qs = make_queries(static_cast<std::size_t>(std::max(8, nkeys / 2)));
  for (auto& q : qs) {
    const auto a = rng.uniform_range(-3, nkeys + 3);
    const auto b = a + rng.uniform_range(0, 30);
    q.key[0] = a;
    q.key[1] = b;
  }
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.euler_scan(), qseq);
  // Oracle semantics check: acc0 counts keys in [a, b] intersect [0, nkeys).
  for (const auto& q : qseq) {
    const std::int64_t lo = std::max<std::int64_t>(q.key[0], 0);
    const std::int64_t hi = std::min<std::int64_t>(q.key[1], nkeys - 1);
    EXPECT_EQ(q.acc0, std::max<std::int64_t>(0, hi - lo + 1))
        << "range [" << q.key[0] << "," << q.key[1] << "]";
  }
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto [s1, s2] = tree.alpha_beta_splittings();
  const auto res =
      multisearch_alpha_beta(tree.graph(), s1, s2, tree.euler_scan(), qalg, m,
                             shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg3Test,
    ::testing::Combine(::testing::Values(2u, 3u, 4u),
                       ::testing::Values(2, 9, 64, 257, 1000)));

// ---------------------------------------------------------------------------
// Algorithm 1 (hierarchical DAGs, Theorem 2)
// ---------------------------------------------------------------------------

TEST(Hierarchical, DagValidation) {
  util::Rng rng(8);
  const auto g = ds::build_hierarchical_dag(1000, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  EXPECT_GE(dag.height(), 8);
  EXPECT_EQ(dag.level_size(0), 1u);
  std::size_t total = 0;
  for (std::int32_t i = 0; i <= dag.height(); ++i) total += dag.level_size(i);
  EXPECT_EQ(total, g.vertex_count());
  EXPECT_EQ(dag.band_vertex_count(0, dag.height()), g.vertex_count());
}

TEST(Hierarchical, RejectsSkipLevelEdges) {
  DistributedGraph g(3);
  g.edit().vert(0).level = 0;
  g.edit().vert(1).level = 1;
  g.edit().vert(2).level = 2;
  g.edit().add_edge(0, 2);  // skips level 1
  EXPECT_THROW(HierarchicalDag(g, 2.0), std::logic_error);
}

TEST(Hierarchical, PlanCoversAllLevels) {
  util::Rng rng(9);
  for (const std::size_t n : {100u, 5000u, 100000u}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan = make_hierarchical_plan(dag, shape);
    // Bands are contiguous from level 0 and end where B* begins.
    std::int32_t expect_lo = 0;
    for (const auto& b : plan.bands) {
      EXPECT_EQ(b.lo, expect_lo);
      EXPECT_GE(b.hi, b.lo);
      expect_lo = b.hi + 1;
      // A copy of the band fits in its submesh.
      EXPECT_LE(b.vertices, b.submesh_elems);
      EXPECT_GE(b.split, b.lo);
      EXPECT_LE(b.split, b.hi + 1);
    }
    EXPECT_EQ(plan.bstar_lo, expect_lo);
    // B* is O(1) levels: it spans 2*l_T where c <= l_T < mu^c when bands
    // exist; with no bands the whole DAG qualifies only because h < mu^c.
    const double mu_c = std::pow(dag.mu(), plan.c);
    if (plan.bands.empty())
      EXPECT_LT(static_cast<double>(dag.height()), mu_c);
    else
      EXPECT_LE(static_cast<double>(dag.height() - plan.bstar_lo + 1),
                2.0 * mu_c + 3.0);
  }
}

class HierTest : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(HierTest, MatchesSequentialOracle) {
  const auto [n, mu] = GetParam();
  util::Rng rng(10);
  const auto g = ds::build_hierarchical_dag(n, mu, 3, rng);
  const HierarchicalDag dag(g, mu);
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(11);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  auto qseq = qs;
  const ds::HashWalk prog{0};
  sequential_multisearch(g, prog, qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = g.shape_for(qalg.size());
  const auto res = hierarchical_multisearch(dag, prog, qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_EQ(res.total_visits,
            static_cast<std::size_t>(g.vertex_count()) *
                static_cast<std::size_t>(dag.height() + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HierTest,
    ::testing::Combine(::testing::Values(std::size_t{50}, std::size_t{1000},
                                         std::size_t{20000}),
                       ::testing::Values(1.5, 2.0, 4.0)));

TEST(Setup, LevelIndicesMatchConstruction) {
  util::Rng rng(18);
  for (const auto mu : {1.7, 2.0, 3.0}) {
    const auto g = ds::build_hierarchical_dag(20000, mu, 2, rng);
    const mesh::CostModel m;
    const auto shape = g.shape_for(g.vertex_count());
    const auto res = compute_level_indices(g, m, shape);
    for (std::size_t v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(res.level[v], g.vert(static_cast<Vid>(v)).level) << v;
    const HierarchicalDag dag(g, mu);
    EXPECT_EQ(res.rounds, static_cast<std::size_t>(dag.height()) + 1);
    EXPECT_GT(res.cost.steps, 0.0);
  }
}

TEST(Setup, LevelIndexCostIsSqrtN) {
  util::Rng rng(19);
  std::vector<double> ns, costs;
  for (const std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const mesh::CostModel m;
    const auto shape = g.shape_for(g.vertex_count());
    const auto res = compute_level_indices(g, m, shape);
    ns.push_back(static_cast<double>(shape.size()));
    costs.push_back(res.cost.steps);
  }
  // The shrinking-subsquare telescoping keeps the peel at O(sqrt n) even
  // though it runs h+1 rounds.
  const auto fit = util::fit_power(ns, costs);
  EXPECT_NEAR(fit.exponent, 0.5, 0.1);
}

TEST(Setup, DistributeInitialIsConstantOps) {
  util::Rng rng(20);
  const auto g = ds::build_hierarchical_dag(5000, 2.0, 2, rng);
  const mesh::CostModel m;
  const auto shape = g.shape_for(g.vertex_count());
  const auto cost = distribute_initial(g, g.vertex_count(), m, shape);
  const double p = static_cast<double>(shape.size());
  EXPECT_GT(cost.steps, m.sort(p).steps);
  EXPECT_LT(cost.steps, 30.0 * std::sqrt(p));  // a constant number of ops
}

TEST(Setup, LevelPeelRejectsStalledGraphs) {
  // A 2-cycle cannot be peeled.
  DistributedGraph g(2);
  g.edit().add_edge(0, 1);
  g.edit().add_edge(1, 0);
  const mesh::CostModel m;
  EXPECT_THROW(compute_level_indices(g, m, g.shape_for(2)), std::logic_error);
}

TEST(Hierarchical, BandLabelsSatisfyTheorem2Storage) {
  util::Rng rng(17);
  // mu=2, n large enough for at least one paper band plus the geometric
  // plan's several bands.
  const auto g = ds::build_hierarchical_dag(1 << 18, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  // The paper's log* plan satisfies the O(1)-memory storage argument.
  {
    const auto plan = make_hierarchical_plan(dag, shape, PlanKind::kPaper);
    ASSERT_FALSE(plan.bands.empty());
    const auto labels = band_labels(plan, shape);
    verify_label_capacity(plan, shape, labels);
    for (const auto l : labels) {
      EXPECT_GE(l, -1);
      EXPECT_LT(l, static_cast<std::int32_t>(plan.bands.size()));
    }
    std::vector<std::size_t> count(plan.bands.size(), 0);
    for (const auto l : labels)
      if (l >= 0) ++count[static_cast<std::size_t>(l)];
    for (const auto c : count) EXPECT_GT(c, 0u);
  }
  // The geometric plan provably CANNOT: every one of its ~log n bands wants
  // a quarter of the mesh, so the coarse bands retain only (3/4)^k of their
  // submesh — this is exactly the O(log n)-memory trade-off DESIGN.md §5.9
  // documents (its copies are staged transiently instead).
  {
    const auto plan =
        make_hierarchical_plan(dag, shape, PlanKind::kGeometric);
    ASSERT_GT(plan.bands.size(), 4u);
    const auto labels = band_labels(plan, shape);
    EXPECT_THROW(verify_label_capacity(plan, shape, labels),
                 std::logic_error);
  }
}

TEST(Hierarchical, GeometricPlanInvariants) {
  util::Rng rng(14);
  for (const std::size_t n : {200u, 5000u, 200000u}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan =
        make_hierarchical_plan(dag, shape, PlanKind::kGeometric);
    std::int32_t expect_lo = 0;
    std::uint32_t prev_grid = 2 * shape.side();
    std::size_t prefix = 0;
    for (const auto& b : plan.bands) {
      EXPECT_EQ(b.lo, expect_lo);
      expect_lo = b.hi + 1;
      // Grids shrink monotonically; the whole prefix fits the submesh.
      EXPECT_LT(b.grid, prev_grid);
      prev_grid = b.grid;
      prefix += b.vertices;
      EXPECT_LE(prefix, b.submesh_elems);
      EXPECT_EQ(b.split, b.lo);  // no inner split in the geometric plan
    }
    EXPECT_EQ(plan.bstar_lo, expect_lo);
    EXPECT_LE(plan.bstar_lo, dag.height());
  }
}

TEST(Hierarchical, GeometricPlanMatchesOracle) {
  util::Rng rng(15);
  const auto g = ds::build_hierarchical_dag(30000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  const ds::HashWalk prog{0};
  sequential_multisearch(g, prog, qseq);
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  const auto res = hierarchical_multisearch(dag, prog, qs, m, shape,
                                            PlanKind::kGeometric);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qs)), "");
  // The geometric plan should not be more expensive than the paper plan
  // here (mu = 2 at this size has at most one band).
  auto qs2 = qs;
  const auto paper = hierarchical_multisearch(dag, prog, qs2, m, shape,
                                              PlanKind::kPaper);
  EXPECT_LE(res.cost.steps, paper.cost.steps * 1.5);
}

TEST(Hierarchical, MeasuredSweepsBoundedByLevelWork) {
  util::Rng rng(16);
  const auto g = ds::build_hierarchical_dag(5000, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);  // plain DAG: 1 visit per level
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(99));
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  const auto res =
      hierarchical_multisearch(dag, ds::HashWalk{0}, qs, m, shape);
  ASSERT_EQ(res.level_sweeps.size(),
            static_cast<std::size_t>(dag.height()) + 1);
  for (const auto s : res.level_sweeps) EXPECT_EQ(s, 1);
}

TEST(Hierarchical, CostScalesAsSqrtN) {
  util::Rng rng(12);
  std::vector<double> ns, costs;
  for (const std::size_t n : {1u << 10, 1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan = make_hierarchical_plan(dag, shape);
    const mesh::CostModel m;
    const auto res = hierarchical_cost(dag, plan, shape, m);
    ns.push_back(static_cast<double>(shape.size()));
    costs.push_back(res.cost.steps);
  }
  const auto fit = util::fit_power(ns, costs);
  EXPECT_NEAR(fit.exponent, 0.5, 0.1);
}

TEST(Hierarchical, CheaperThanSynchronousBaseline) {
  util::Rng rng(13);
  const auto g = ds::build_hierarchical_dag(1 << 16, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  auto qa = qs;
  const auto hier = hierarchical_multisearch(dag, ds::HashWalk{0}, qa, m, shape);
  auto qb = qs;
  reset_queries(qb);
  const auto sync =
      synchronous_multisearch(g, ds::HashWalk{0}, qb, m, shape);
  EXPECT_LT(hier.cost.steps, sync.cost.steps);
}

}  // namespace
