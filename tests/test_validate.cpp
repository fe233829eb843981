// Front-door validation (multisearch/validate.hpp), the typed error
// taxonomy (util/error.hpp), and paranoid mode. Contract: malformed input
// given to any public entry point throws InvalidInputError / CapacityError
// BEFORE any phase is charged — never a deep MS_CHECK — and degenerate but
// legal input (empty batch, single-vertex DAG, 1x1 mesh, duplicate interval
// endpoints) is handled, not rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/segment_tree.hpp"
#include "datastruct/twothree_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/hull3d.hpp"
#include "geometry/kirkpatrick.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "multisearch/synchronous.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;

// ---------------------------------------------------------------------------
// Error taxonomy basics.
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, WhatCarriesStructuredContext) {
  ErrorContext ctx;
  ctx.engine = "alg1-paper";
  ctx.phase = "phase.step2";
  ctx.site = "somewhere";
  ctx.band = 3;
  ctx.seed = 42;
  ctx.occurrence = 7;
  ctx.has_seed = true;
  const Error e("it broke", ctx);
  const std::string w = e.what();
  EXPECT_NE(w.find("it broke"), std::string::npos);
  EXPECT_NE(w.find("engine=alg1-paper"), std::string::npos);
  EXPECT_NE(w.find("phase=phase.step2"), std::string::npos);
  EXPECT_NE(w.find("band=3"), std::string::npos);
  EXPECT_NE(w.find("seed=42"), std::string::npos);
  EXPECT_NE(w.find("occurrence=7"), std::string::npos);
  EXPECT_EQ(e.message(), "it broke");
  EXPECT_EQ(e.context().band, 3);
}

TEST(ErrorTaxonomy, SubclassesAreCatchableAsErrorAndLogicError) {
  // The compatibility contract: everything slots under std::logic_error.
  EXPECT_THROW(invalid_input("x", "here"), InvalidInputError);
  EXPECT_THROW(invalid_input("x", "here"), Error);
  EXPECT_THROW(invalid_input("x", "here"), std::logic_error);
  EXPECT_THROW(capacity_error("x", "here"), CapacityError);
  EXPECT_THROW(capacity_error("x", "here"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Graph / splitting / shape validators.
// ---------------------------------------------------------------------------

TEST(Validate, DuplicateEdgeRejected) {
  DistributedGraph g(3);
  g.edit().add_edge(0, 1);
  g.edit().add_edge(0, 1);  // parallel edge: legal to build, invalid to run
  g.edit().add_edge(1, 2);
  EXPECT_THROW(validate_graph(g, "test"), InvalidInputError);
}

TEST(Validate, CleanGraphPasses) {
  DistributedGraph g(3);
  g.edit().add_edge(0, 1);
  g.edit().add_edge(1, 2);
  EXPECT_NO_THROW(validate_graph(g, "test"));
}

TEST(Validate, SplittingSizeMismatchRejected) {
  DistributedGraph g(4);
  Splitting s;
  s.piece = {0, 0, 1};  // one short
  s.kind = {PieceKind::kHead, PieceKind::kTail};
  EXPECT_THROW(validate_splitting_input(g, s, "test"), InvalidInputError);
}

TEST(Validate, GraphLargerThanMeshIsCapacityError) {
  DistributedGraph g(5);
  EXPECT_THROW(validate_graph_fits(g, mesh::MeshShape(2), "test"),
               CapacityError);
  EXPECT_NO_THROW(validate_graph_fits(g, mesh::MeshShape(4), "test"));
}

TEST(Validate, OversizedBatchIsCapacityError) {
  EXPECT_THROW(validate_batch_size(17, 16, "test"), CapacityError);
  EXPECT_NO_THROW(validate_batch_size(16, 16, "test"));
  EXPECT_NO_THROW(validate_batch_size(0, 16, "test"));
}

TEST(Validate, StreamPositionsFitInUint32) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(validate_stream_positions(0, kMax, "test"));
  EXPECT_NO_THROW(validate_stream_positions(kMax - 5, 5, "test"));
  EXPECT_NO_THROW(validate_stream_positions(kMax, 0, "test"));
  EXPECT_THROW(validate_stream_positions(0, kMax + 1, "test"), CapacityError);
  EXPECT_THROW(validate_stream_positions(kMax - 5, 6, "test"), CapacityError);
  EXPECT_THROW(validate_stream_positions(kMax, 1, "test"), CapacityError);
  // No wrap in the check itself when either operand is already huge.
  EXPECT_THROW(validate_stream_positions(
                   1, std::numeric_limits<std::size_t>::max(), "test"),
               CapacityError);
  EXPECT_THROW(validate_stream_positions(
                   std::numeric_limits<std::size_t>::max(), 0, "test"),
               CapacityError);
}

TEST(Validate, HierarchicalLevelGapRejected) {
  // 0 -> 2 skips a level; also leaves level 1 empty.
  DistributedGraph g(3);
  g.edit().vert(0).level = 0;
  g.edit().vert(1).level = 0;
  g.edit().vert(2).level = 2;
  g.edit().add_edge(0, 2);
  EXPECT_THROW(HierarchicalDag(g, 2.0), InvalidInputError);
}

TEST(Validate, HierarchicalMuAtMostOneRejected) {
  DistributedGraph g(2);
  g.edit().vert(0).level = 0;
  g.edit().vert(1).level = 1;
  g.edit().add_edge(0, 1);
  EXPECT_THROW(HierarchicalDag(g, 1.0), InvalidInputError);
  EXPECT_NO_THROW(HierarchicalDag(g, 2.0));
}

// ---------------------------------------------------------------------------
// Data-structure builders.
// ---------------------------------------------------------------------------

TEST(Validate, KaryTreeBadFanOutRejected) {
  EXPECT_THROW(ds::KaryTree(ds::iota_keys(8), 7, ds::TreeMode::kDirected),
               InvalidInputError);
  EXPECT_THROW(ds::KaryTree(ds::iota_keys(8), 1, ds::TreeMode::kDirected),
               InvalidInputError);
}

TEST(Validate, KaryTreeUnsortedKeysRejected) {
  auto keys = ds::iota_keys(8);
  std::swap(keys[2], keys[5]);
  EXPECT_THROW(ds::KaryTree(std::move(keys), 2, ds::TreeMode::kDirected),
               InvalidInputError);
}

TEST(Validate, IntervalTreeInvertedIntervalRejected) {
  EXPECT_THROW(ds::IntervalTree({{10, 4, 0}}), InvalidInputError);
  EXPECT_THROW(ds::IntervalTree({}), InvalidInputError);
}

TEST(Validate, IntervalTreeDuplicateEndpointsHandled) {
  // Duplicate and degenerate endpoints are legal — distinct-endpoint
  // compaction inside the builder must absorb them, not trip a check.
  EXPECT_NO_THROW(ds::IntervalTree({{5, 5, 0}, {5, 5, 1}, {5, 9, 2}, {9, 9, 3}}));
}

TEST(Validate, SegmentTreeBuilderUsesTheFrontDoor) {
  // Same taxonomy as the other builders: InvalidInputError before any
  // construction work, never a deep MS_CHECK.
  EXPECT_THROW(ds::SegmentTree({}), InvalidInputError);
  EXPECT_THROW(ds::SegmentTree({{1, 5, 0}, {10, 4, 1}}), InvalidInputError);
  try {
    ds::SegmentTree({{1, 5, 0}, {10, 4, 1}});
    FAIL() << "inverted interval accepted";
  } catch (const InvalidInputError& e) {
    EXPECT_EQ(e.context().site, "segment-tree");
    EXPECT_NE(std::string(e.what()).find("lo > hi"), std::string::npos);
  }
  EXPECT_NO_THROW(ds::SegmentTree({{5, 5, 0}, {1, 9, 1}}));
}

TEST(Validate, TwoThreeTreeBuilderUsesTheFrontDoor) {
  EXPECT_THROW(ds::TwoThreeTree({}), InvalidInputError);
  EXPECT_THROW(ds::TwoThreeTree({3, 1, 2}), InvalidInputError);   // unsorted
  EXPECT_THROW(ds::TwoThreeTree({1, 2, 2, 3}), InvalidInputError);  // dup
  try {
    ds::TwoThreeTree({1, 2, 2, 3});
    FAIL() << "duplicate key accepted";
  } catch (const InvalidInputError& e) {
    EXPECT_EQ(e.context().site, "twothree-tree");
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos);
  }
  EXPECT_NO_THROW(ds::TwoThreeTree({1, 2, 3, 10}));
}

// ---------------------------------------------------------------------------
// Geometry builders.
// ---------------------------------------------------------------------------

TEST(Validate, CollinearPointSetRejected) {
  std::vector<geom::Point2> pts;
  for (int i = 0; i < 8; ++i)
    pts.push_back({i, 2 * i});  // all on y = 2x
  EXPECT_THROW(validate_point_set_2d(pts, "test"), InvalidInputError);
  pts.push_back({1, 100});  // one witness off the line
  EXPECT_NO_THROW(validate_point_set_2d(pts, "test"));
}

TEST(Validate, DuplicatePointsRejected) {
  const std::vector<geom::Point2> pts = {{0, 0}, {5, 1}, {2, 7}, {5, 1}};
  EXPECT_THROW(validate_points_distinct(pts, "test"), InvalidInputError);
  EXPECT_THROW(geom::Kirkpatrick(pts, 1 << 12), InvalidInputError);
}

TEST(Validate, Hull3DegenerateInputsRejected) {
  util::Rng rng(7);
  EXPECT_THROW(geom::convex_hull3({{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}, rng),
               InvalidInputError);  // too few
  // All collinear.
  std::vector<geom::Point3> line;
  for (int i = 0; i < 6; ++i) line.push_back({i, i, i});
  EXPECT_THROW(geom::convex_hull3(line, rng), InvalidInputError);
  // All coplanar (z = 0).
  std::vector<geom::Point3> plane = {{0, 0, 0}, {4, 0, 0}, {0, 4, 0},
                                     {4, 4, 0}, {1, 2, 0}};
  EXPECT_THROW(geom::convex_hull3(plane, rng), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Degenerate-but-legal inputs at the engine entry points.
// ---------------------------------------------------------------------------

struct TinyDag {
  DistributedGraph g;
  explicit TinyDag(std::size_t verts = 1) : g(verts) {
    for (std::size_t i = 0; i < verts; ++i)
      g.edit().vert(static_cast<Vid>(i)).level = static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i + 1 < verts; ++i)
      g.edit().add_edge(static_cast<Vid>(i), static_cast<Vid>(i + 1));
  }
};

TEST(Validate, EmptyQuerySetIsHandled) {
  const TinyDag t(4);
  const HierarchicalDag dag(t.g, 2.0);
  std::vector<Query> queries;  // empty batch: valid, nothing to do
  mesh::CostModel m;
  const auto shape = t.g.shape_for(0);
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

TEST(Validate, SingleVertexDagRuns) {
  const TinyDag t(1);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(2);
  mesh::CostModel m;
  const auto shape = t.g.shape_for(queries.size());
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
  for (const auto& q : queries) EXPECT_TRUE(q.done);
}

TEST(Validate, OneByOneMeshRuns) {
  const TinyDag t(1);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(1);
  mesh::CostModel m;
  const mesh::MeshShape shape(1);
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

TEST(Validate, EngineRejectsOversizedBatchBeforeRunning) {
  const TinyDag t(2);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(10);
  mesh::CostModel m;
  const mesh::MeshShape shape(2);  // 4 processors < 10 queries
  EXPECT_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape),
      CapacityError);
}

TEST(Validate, SynchronousEngineValidatesToo) {
  const TinyDag t(2);
  auto queries = make_queries(10);
  mesh::CostModel m;
  EXPECT_THROW(synchronous_multisearch(t.g, ds::HashWalk{0}, queries, m,
                                       mesh::MeshShape(2)),
               CapacityError);
}

TEST(Validate, PreparedSearchRejectsWrongKind) {
  ds::KaryTree tree(ds::iota_keys(64), 2, ds::TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  mesh::CostModel m;
  EXPECT_THROW(PreparedSearch(EngineKind::kAlg1Paper, tree.graph(),
                              tree.alpha_splitting(), tree.alpha_splitting(),
                              tree.rank_count(), m, shape),
               InvalidInputError);
}

// ---------------------------------------------------------------------------
// Malformed structures at every front door: a seeded generator. Each case
// breaks one thing — a neighbour out of range, a self loop, a duplicate
// edge, a degree above kMaxDegree, an id that is not its address, a graph
// larger than the mesh, or a splitting of the wrong size, with an uncovered
// vertex or with an out-of-range piece — and hands it to every door that
// takes it: the one-shot engines, both PreparedSearch constructors, and a
// full and an incremental refresh of engines prepared on the intact
// structure. Each door throws the typed error before it charges anything;
// a refused refresh leaves its engine stale, with its prepared generation
// and setup cost as they were. Splittings reach a warm engine only through
// a full refresh (the incremental path keeps the ones it checked).
// ---------------------------------------------------------------------------

enum class Breakage {
  kNbrRange, kSelfLoop, kDupEdge, kDegree, kIdAddress, kTooLarge,
  kSplitSize, kSplitUncovered, kSplitPiece,
};
constexpr int kBreakages = 9;

const char* breakage_name(Breakage b) {
  static const char* const names[kBreakages] = {
      "neighbour out of range", "self loop", "duplicate edge",
      "degree above kMaxDegree", "id != address", "graph larger than mesh",
      "splitting size", "uncovered vertex", "out-of-range piece"};
  return names[static_cast<int>(b)];
}

/// A vertex of `g` with at least one out-edge.
Vid vertex_with_edges(const DistributedGraph& g, util::Rng& rng) {
  while (true) {
    const auto v = static_cast<Vid>(rng.uniform(g.vertex_count()));
    if (g.vert(v).degree > 0) return v;
  }
}

/// Apply a graph breakage to `g` (kTooLarge assigns `larger` over it).
void break_graph(DistributedGraph& g, Breakage b,
                 const DistributedGraph& larger, util::Rng& rng) {
  if (b == Breakage::kTooLarge) {
    g = larger;
    return;
  }
  const Vid v = vertex_with_edges(g, rng);
  const auto edit = g.edit();
  VertexRecord& rec = edit.vert(v);
  const std::size_t d = rng.uniform(rec.degree);
  const auto n = static_cast<Vid>(g.vertex_count());
  switch (b) {
    case Breakage::kNbrRange:
      rec.nbr[d] = rng.uniform(2) == 0
                       ? n + static_cast<Vid>(rng.uniform(1000))
                       : -2 - static_cast<Vid>(rng.uniform(1000));
      break;
    case Breakage::kSelfLoop: rec.nbr[d] = v; break;
    case Breakage::kDupEdge: edit.add_edge(v, rec.nbr[d]); break;
    case Breakage::kDegree:
      rec.degree = static_cast<std::uint8_t>(kMaxDegree + 1 + rng.uniform(64));
      break;
    case Breakage::kIdAddress:
      rec.id = (v + 1 + static_cast<Vid>(rng.uniform(
                            static_cast<std::uint64_t>(n - 1)))) % n;
      break;
    default: FAIL() << "not a graph breakage";
  }
}

/// A copy of `s` with one splitting breakage applied.
Splitting break_splitting(Splitting s, Breakage b, util::Rng& rng) {
  const std::size_t v = rng.uniform(s.piece.size());
  switch (b) {
    case Breakage::kSplitSize:
      s.piece.resize(rng.uniform(2) == 0 ? v : s.piece.size() + 1 + v);
      break;
    case Breakage::kSplitUncovered: s.piece[v] = -1; break;
    case Breakage::kSplitPiece:
      s.piece[v] = static_cast<std::int32_t>(s.num_pieces() + rng.uniform(50));
      break;
    default: ADD_FAILURE() << "not a splitting breakage";
  }
  return s;
}

/// `f` throws E and charges nothing into `rec`.
template <class E, class F>
void expect_rejected_uncharged(const trace::TraceRecorder& rec, F&& f,
                               const char* door) {
  const double before = rec.total_steps();
  EXPECT_THROW(f(), E) << door;
  EXPECT_EQ(rec.total_steps(), before) << door << " charged a rejected input";
}

template <class E>
void check_graph_doors(Breakage b, const DistributedGraph& intact_dag,
                       const ds::KaryTree& tree, util::Rng& rng) {
  util::Rng big_rng(3);
  const DistributedGraph larger_dag =
      ds::build_hierarchical_dag(4 * intact_dag.vertex_count(), 2.0, 2,
                                 big_rng);
  const ds::KaryTree larger_tree(ds::iota_keys(300), 3,
                                 ds::TreeMode::kDirected);
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;

  DistributedGraph g1 = intact_dag;
  const HierarchicalDag dag(g1, 2.0);
  const auto shape1 = g1.shape_for(g1.vertex_count());
  DistributedGraph g2 = tree.graph();
  const Splitting psi = tree.alpha_splitting();
  const auto shape2 = g2.shape_for(g2.vertex_count());
  PreparedSearch warm1(dag, PlanKind::kPaper, ds::HashWalk{0}, m, shape1);
  PreparedSearch warm2(EngineKind::kAlg2Alpha, g2, psi, psi,
                       tree.rank_count(), m, shape2);
  const Vid dirty1 = vertex_with_edges(g1, rng);
  const Vid dirty2 = vertex_with_edges(g2, rng);

  break_graph(g1, b, larger_dag, rng);
  break_graph(g2, b, larger_tree.graph(), rng);
  ASSERT_TRUE(warm1.stale());
  ASSERT_TRUE(warm2.stale());
  // A larger graph comes with its own splitting, so that only its size is
  // wrong.
  const Splitting psi2 =
      b == Breakage::kTooLarge ? larger_tree.alpha_splitting() : psi;

  auto qs1 = make_queries(16);
  auto qs2 = make_queries(16);
  expect_rejected_uncharged<E>(rec, [&] {
    hierarchical_multisearch(dag, ds::HashWalk{0}, qs1, m, shape1);
  }, "alg1-paper one-shot");
  expect_rejected_uncharged<E>(rec, [&] {
    hierarchical_multisearch(dag, ds::HashWalk{0}, qs1, m, shape1,
                             PlanKind::kGeometric);
  }, "alg1-geometric one-shot");
  expect_rejected_uncharged<E>(rec, [&] {
    multisearch_alpha(g2, psi2, tree.rank_count(), qs2, m, shape2);
  }, "alg2 one-shot");
  expect_rejected_uncharged<E>(rec, [&] {
    multisearch_alpha_beta(g2, psi2, psi2, tree.rank_count(), qs2, m, shape2);
  }, "alg3 one-shot");
  expect_rejected_uncharged<E>(rec, [&] {
    PreparedSearch(dag, PlanKind::kGeometric, ds::HashWalk{0}, m, shape1);
  }, "alg1 PreparedSearch");
  expect_rejected_uncharged<E>(rec, [&] {
    PreparedSearch(EngineKind::kAlg3AlphaBeta, g2, psi2, psi2,
                   tree.rank_count(), m, shape2);
  }, "alg2/3 PreparedSearch");

  RefreshRequest full;
  full.force_full = true;
  RefreshRequest inc1, inc2;
  inc1.delta.dirty_vertices = {dirty1};
  inc2.delta.dirty_vertices = {dirty2};
  const mesh::Cost setup1 = warm1.setup_cost(), setup2 = warm2.setup_cost();
  expect_rejected_uncharged<E>(rec, [&] { warm1.refresh(full); },
                               "alg1 full refresh");
  expect_rejected_uncharged<E>(rec, [&] { warm1.refresh(inc1); },
                               "alg1 incremental refresh");
  expect_rejected_uncharged<E>(rec, [&] { warm2.refresh(full); },
                               "alg2 full refresh");
  expect_rejected_uncharged<E>(rec, [&] { warm2.refresh(inc2); },
                               "alg2 incremental refresh");
  EXPECT_TRUE(warm1.stale());
  EXPECT_EQ(warm1.prepared_generation(), 0u);
  EXPECT_EQ(warm1.setup_cost(), setup1);
  EXPECT_TRUE(warm2.stale());
  EXPECT_EQ(warm2.prepared_generation(), 0u);
  EXPECT_EQ(warm2.setup_cost(), setup2);
  EXPECT_EQ(warm1.refreshes() + warm2.refreshes(), 0u);
  EXPECT_THROW(warm1.run_batch(qs1), StaleEngineError);
  EXPECT_THROW(warm2.run_batch(qs2), StaleEngineError);
}

void check_splitting_doors(Breakage b, const ds::KaryTree& tree,
                           util::Rng& rng) {
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  const DistributedGraph& g = tree.graph();
  const auto shape = g.shape_for(g.vertex_count());
  const Splitting psi = tree.alpha_splitting();
  const Splitting bad = break_splitting(psi, b, rng);
  PreparedSearch warm(EngineKind::kAlg3AlphaBeta, g, psi, psi,
                      tree.rank_count(), m, shape);
  auto qs = ds::uniform_key_queries(32, 200, rng);

  expect_rejected_uncharged<InvalidInputError>(rec, [&] {
    multisearch_partitioned(g, bad, psi, tree.rank_count(), qs, m, shape);
  }, "one-shot, bad Psi_A");
  expect_rejected_uncharged<InvalidInputError>(rec, [&] {
    multisearch_partitioned(g, psi, bad, tree.rank_count(), qs, m, shape);
  }, "one-shot, bad Psi_B");
  expect_rejected_uncharged<InvalidInputError>(rec, [&] {
    PreparedSearch(EngineKind::kAlg2Alpha, g, bad, bad, tree.rank_count(), m,
                   shape);
  }, "alg2 PreparedSearch");
  expect_rejected_uncharged<InvalidInputError>(rec, [&] {
    PreparedSearch(EngineKind::kAlg3AlphaBeta, g, psi, bad, tree.rank_count(),
                   m, shape);
  }, "alg3 PreparedSearch");
  RefreshRequest req;
  req.force_full = true;
  req.has_splittings = true;
  req.psi_a = psi;
  req.psi_b = bad;
  const mesh::Cost setup = warm.setup_cost();
  expect_rejected_uncharged<InvalidInputError>(
      rec, [&] { warm.refresh(req); }, "full refresh with a bad splitting");
  EXPECT_EQ(warm.setup_cost(), setup);
  EXPECT_EQ(warm.prepared_generation(), 0u);
  EXPECT_EQ(warm.refreshes(), 0u);
  // The refused splitting was not adopted: the engine still serves the
  // checked ones, matching the oracle.
  auto expect = qs;
  sequential_multisearch(g, tree.rank_count(), expect);
  warm.run_batch(qs);
  EXPECT_EQ(diff_outcomes(outcomes(qs), outcomes(expect)), "");
}

TEST(ValidateMalformed, EveryFrontDoorRejectsUnchargedAndLeavesEnginesAsTheyWere) {
  constexpr int kCases = 6 * kBreakages;  // fixed budget: six of each
  util::Rng rng(2026);
  util::Rng dag_rng(17);
  const DistributedGraph dag = ds::build_hierarchical_dag(200, 2.0, 2, dag_rng);
  const ds::KaryTree tree(ds::iota_keys(60), 3, ds::TreeMode::kDirected);
  for (int c = 0; c < kCases; ++c) {
    const auto b = static_cast<Breakage>(c % kBreakages);
    SCOPED_TRACE(std::string("case ") + std::to_string(c) + ": " +
                 breakage_name(b));
    if (b == Breakage::kTooLarge)
      check_graph_doors<CapacityError>(b, dag, tree, rng);
    else if (b < Breakage::kTooLarge)
      check_graph_doors<InvalidInputError>(b, dag, tree, rng);
    else
      check_splitting_doors(b, tree, rng);
  }
}

TEST(ValidateMalformed, HierarchicalDagBuilderRejectsBrokenGraphs) {
  // The DAG builder reads neighbour levels, so a broken adjacency must be
  // refused there too — typed, never an out-of-range read.
  util::Rng rng(7);
  for (const auto b : {Breakage::kNbrRange, Breakage::kSelfLoop,
                       Breakage::kDegree}) {
    util::Rng dag_rng(17);
    DistributedGraph g = ds::build_hierarchical_dag(200, 2.0, 2, dag_rng);
    break_graph(g, b, g, rng);
    EXPECT_THROW(HierarchicalDag(g, 2.0), InvalidInputError)
        << breakage_name(b);
  }
}

// ---------------------------------------------------------------------------
// Far query points: the 2-D predicates widen before they subtract, so a
// probe anywhere in int64 is located exactly — nothing clips query keys.
// ---------------------------------------------------------------------------

TEST(Validate, KirkpatrickFarProbesAnswerOutsideColdAndWarm) {
  std::vector<geom::Point2> pts;
  util::Rng rng(23);
  for (int i = 0; i < 30; ++i)
    pts.push_back({rng.uniform_range(-900, 900), rng.uniform_range(-900, 900)});
  std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const geom::Kirkpatrick kp(pts, 2048);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  auto qs = make_queries(2);
  qs[0].key = {kMax, 0, 0};
  qs[1].key = {kMin, kMax, 0};

  auto cold = qs;
  sequential_multisearch(kp.dag(), kp.locate_program(), cold);
  const HierarchicalDag dag = kp.hierarchical_dag();
  const mesh::CostModel m;
  PreparedSearch warm(dag, PlanKind::kGeometric, kp.locate_program(), m,
                      kp.dag().shape_for(kp.dag().vertex_count()));
  warm.run_batch(qs);
  for (const auto* batch : {&cold, &qs})
    for (const auto& q : *batch)
      EXPECT_EQ(q.result, geom::Kirkpatrick::kOutside);
}

// ---------------------------------------------------------------------------
// Paranoid mode.
// ---------------------------------------------------------------------------

struct ParanoidGuard {
  explicit ParanoidGuard(int mode) { set_paranoid_override(mode); }
  ~ParanoidGuard() { set_paranoid_override(-1); }
};

TEST(Paranoid, OverrideControlsTheSwitch) {
  {
    const ParanoidGuard on(1);
    EXPECT_TRUE(paranoid_enabled());
  }
  {
    const ParanoidGuard off(0);
    EXPECT_FALSE(paranoid_enabled());
  }
}

TEST(Paranoid, CleanEngineRunPassesTheAudit) {
  const ParanoidGuard on(1);
  util::Rng rng(91);
  const auto g = ds::build_hierarchical_dag(600, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto queries = make_queries(64);
  util::Rng qrng(92);
  for (auto& q : queries)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  mesh::CostModel m;
  const auto shape = g.shape_for(queries.size());
  // A correct engine must sail through the shadow-oracle audit.
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

TEST(Paranoid, AuditDivergenceThrowsIntegrityError) {
  EXPECT_THROW(msearch::detail::paranoid_mismatch("test-engine", 3, 1, 2),
               IntegrityError);
  EXPECT_NO_THROW(
      msearch::detail::paranoid_checksum_mismatch_check("test-engine", 5, 5));
  EXPECT_THROW(
      msearch::detail::paranoid_checksum_mismatch_check("test-engine", 5, 6),
      IntegrityError);
}

TEST(Paranoid, OutcomeChecksumIsOrderIndependentAndSensitive) {
  auto qs = make_queries(8);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i].acc0 = static_cast<std::int64_t>(i * 31);
    qs[i].result = static_cast<std::int32_t>(i);
  }
  const auto sum = outcome_checksum(qs);
  std::swap(qs[1], qs[6]);  // order must not matter
  EXPECT_EQ(outcome_checksum(qs), sum);
  qs[0].acc0 ^= 1;  // any payload bit must
  EXPECT_NE(outcome_checksum(qs), sum);
}

}  // namespace
