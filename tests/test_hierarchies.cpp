// Tests for the §5 geometry hierarchies: Kirkpatrick point location and the
// Dobkin–Kirkpatrick extreme-vertex hierarchies (3-d and polygon), both as
// standalone structures and driven through Algorithm 1 multisearch.
#include <gtest/gtest.h>

#include <algorithm>

#include "geometry/dk_hierarchy.hpp"
#include "geometry/dk_polygon.hpp"
#include "geometry/hull2d.hpp"
#include "geometry/kirkpatrick.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/validate.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::geom;
using msearch::make_queries;

std::vector<Point2> dedup_points(std::vector<Point2> pts) {
  std::sort(pts.begin(), pts.end(), [](const Point2& a, const Point2& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  return pts;
}

// ---------------------------------------------------------------------------
// Kirkpatrick
// ---------------------------------------------------------------------------

class KirkpatrickTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KirkpatrickTest, LocatesRandomProbes) {
  util::Rng rng(100 + GetParam());
  const auto pts = dedup_points(random_points_in_disk(GetParam(), 2000, rng));
  Kirkpatrick kp(pts, 2048);
  msearch::validate_graph(kp.dag(), "test");
  EXPECT_GE(kp.hierarchy_levels(), 2u);
  const auto prog = kp.locate_program();
  auto qs = make_queries(300);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-6000, 6000);
    q.key[1] = rng.uniform_range(-5000, 6000);
  }
  msearch::sequential_multisearch(kp.dag(), prog, qs);
  const auto bt = kp.bounding_corners();
  for (const auto& q : qs) {
    const Point2 p{q.key[0], q.key[1]};
    if (point_in_triangle(p, bt[0], bt[1], bt[2])) {
      EXPECT_TRUE(kp.answer_contains_point(q))
          << "p=(" << p.x << "," << p.y << ") result=" << q.result;
    } else {
      EXPECT_EQ(q.result, Kirkpatrick::kOutside);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KirkpatrickTest,
                         ::testing::Values(1u, 5u, 40u, 200u, 1000u));

TEST(Kirkpatrick, QueryPathLengthIsLogarithmic) {
  util::Rng rng(42);
  const auto pts = dedup_points(random_points_in_disk(2000, 20000, rng));
  Kirkpatrick kp(pts, 32768);
  auto qs = make_queries(200);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-20000, 20000);
    q.key[1] = rng.uniform_range(-20000, 20000);
  }
  msearch::sequential_multisearch(kp.dag(), kp.locate_program(), qs);
  const auto r = msearch::max_steps(qs);
  // r <= level_work * (#levels + 1); both are O(log n) with small constants.
  EXPECT_LE(r, kp.level_work() *
                   static_cast<std::int32_t>(kp.hierarchy_levels() + 1));
  const auto bt = kp.bounding_corners();
  for (const auto& q : qs) {
    const Point2 p{q.key[0], q.key[1]};
    if (point_in_triangle(p, bt[0], bt[1], bt[2]))
      EXPECT_TRUE(kp.answer_contains_point(q));
    else
      EXPECT_EQ(q.result, Kirkpatrick::kOutside);
  }
}

TEST(Kirkpatrick, LevelsShrinkGeometrically) {
  util::Rng rng(43);
  const auto pts = dedup_points(random_points_in_disk(3000, 50000, rng));
  Kirkpatrick kp(pts, 65536);
  // log-ish number of hierarchy levels.
  EXPECT_LE(kp.hierarchy_levels(), 60u);
  EXPECT_GT(kp.mu(), 1.05);
}

TEST(Kirkpatrick, PointLocationViaAlgorithm1) {
  util::Rng rng(44);
  const auto pts = dedup_points(random_points_in_disk(600, 4000, rng));
  Kirkpatrick kp(pts, 4096);
  const auto dag = kp.hierarchical_dag();
  auto qs = make_queries(600);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-4000, 4000);
    q.key[1] = rng.uniform_range(-3000, 4000);
  }
  auto qseq = qs;
  msearch::sequential_multisearch(kp.dag(), kp.locate_program(), qseq);
  const mesh::CostModel m;
  const auto shape = kp.dag().shape_for(qs.size());
  const auto res =
      msearch::hierarchical_multisearch(dag, kp.locate_program(), qs, m, shape);
  EXPECT_EQ(msearch::diff_outcomes(msearch::outcomes(qseq),
                                   msearch::outcomes(qs)),
            "");
  EXPECT_GT(res.cost.steps, 0.0);
}

// ---------------------------------------------------------------------------
// DK polygon hierarchy
// ---------------------------------------------------------------------------

class DKPolyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DKPolyTest, ExtremeMatchesBruteForce) {
  util::Rng rng(200 + GetParam());
  const auto poly = random_convex_polygon(GetParam(), 500000, rng);
  DKPolygon dk(poly);
  msearch::validate_graph(dk.extreme_dag().dag, "test");
  auto qs = make_queries(200);
  for (auto& q : qs) {
    do {
      q.key[0] = rng.uniform_range(-1000, 1000);
      q.key[1] = rng.uniform_range(-1000, 1000);
    } while (q.key[0] == 0 && q.key[1] == 0);
    q.key[2] = 0;
  }
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qs);
  for (const auto& q : qs) {
    EXPECT_EQ(q.acc0, dk.extreme_dot_brute(Point2{q.key[0], q.key[1]}))
        << "d=(" << q.key[0] << "," << q.key[1] << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DKPolyTest,
                         ::testing::Values(4u, 9u, 33u, 128u, 1000u));

TEST(DKPolygon, PathLengthLogarithmic) {
  util::Rng rng(45);
  const auto poly = random_convex_polygon(2000, 800000, rng);
  DKPolygon dk(poly);
  auto qs = make_queries(100);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-999, 1000);
    q.key[1] = 1 + rng.uniform_range(0, 999);
  }
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qs);
  EXPECT_LE(msearch::max_steps(qs),
            dk.extreme_dag().level_work *
                static_cast<std::int32_t>(dk.hierarchy_levels() + 2));
}

TEST(DKPolygon, LineIntersectionBatch) {
  util::Rng rng(46);
  const auto poly = random_convex_polygon(300, 100000, rng);
  DKPolygon dk(poly);
  std::vector<DKPolygon::Line> lines(150);
  for (auto& l : lines) {
    do {
      l.a = rng.uniform_range(-50, 50);
      l.b = rng.uniform_range(-50, 50);
    } while (l.a == 0 && l.b == 0);
    l.c = rng.uniform_range(-8000000, 8000000);
  }
  auto qs = dk.make_line_queries(lines);
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qs);
  const auto got = DKPolygon::combine_line_answers(lines, qs);
  int hits = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(got[i], dk.line_intersects_brute(lines[i])) << "line " << i;
    hits += got[i];
  }
  // The workload must exercise both outcomes.
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, static_cast<int>(lines.size()));
}

class DKTangentTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DKTangentTest, TangentsFromExternalPoints) {
  util::Rng rng(400 + GetParam());
  const Scalar radius = 100000;
  const auto poly = random_convex_polygon(GetParam(), radius, rng);
  DKPolygon dk(poly);
  auto qs = make_queries(300);
  for (auto& q : qs) {
    // Sample points well outside the polygon's circumscribing circle.
    Point2 p;
    do {
      p.x = rng.uniform_range(-4 * radius, 4 * radius);
      p.y = rng.uniform_range(-4 * radius, 4 * radius);
    } while (!dk.point_outside(p) ||
             p.x * p.x + p.y * p.y <= radius * radius);
    q.key[0] = p.x;
    q.key[1] = p.y;
    q.key[2] = (q.qid % 2 == 0) ? 1 : -1;  // alternate left/right tangents
  }
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.tangent_program(),
                                  qs);
  for (const auto& q : qs) {
    const int side = q.key[2] >= 0 ? 1 : -1;
    EXPECT_TRUE(dk.is_tangent_vertex(Point2{q.key[0], q.key[1]}, q.result,
                                     side))
        << "p=(" << q.key[0] << "," << q.key[1] << ") side=" << side
        << " result=" << q.result;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DKTangentTest,
                         ::testing::Values(5u, 16u, 100u, 700u));

TEST(DKPolygon, TangentViaAlgorithm1MatchesSequential) {
  util::Rng rng(401);
  const Scalar radius = 200000;
  const auto poly = random_convex_polygon(500, radius, rng);
  DKPolygon dk(poly);
  auto qs = make_queries(400);
  for (auto& q : qs) {
    Point2 p;
    do {
      p.x = rng.uniform_range(-4 * radius, 4 * radius);
      p.y = rng.uniform_range(-4 * radius, 4 * radius);
    } while (p.x * p.x + p.y * p.y <= 4 * radius * radius);
    q.key[0] = p.x;
    q.key[1] = p.y;
    q.key[2] = 1;
  }
  auto qseq = qs;
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.tangent_program(),
                                  qseq);
  const mesh::CostModel m;
  const auto dag = dk.extreme_dag().hierarchical_dag();
  const auto shape = dk.extreme_dag().dag.shape_for(qs.size());
  msearch::hierarchical_multisearch(dag, dk.tangent_program(), qs, m, shape,
                                    msearch::PlanKind::kGeometric);
  EXPECT_EQ(msearch::diff_outcomes(msearch::outcomes(qseq),
                                   msearch::outcomes(qs)),
            "");
}

TEST(DKPolygon, Algorithm1MatchesSequential) {
  util::Rng rng(47);
  const auto poly = random_convex_polygon(800, 400000, rng);
  DKPolygon dk(poly);
  auto qs = make_queries(500);
  for (auto& q : qs) {
    do {
      q.key[0] = rng.uniform_range(-1000, 1000);
      q.key[1] = rng.uniform_range(-1000, 1000);
    } while (q.key[0] == 0 && q.key[1] == 0);
  }
  auto qseq = qs;
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qseq);
  const mesh::CostModel m;
  const auto dag = dk.extreme_dag().hierarchical_dag();
  const auto shape = dk.extreme_dag().dag.shape_for(qs.size());
  msearch::hierarchical_multisearch(dag, dk.extreme_program(), qs, m, shape);
  EXPECT_EQ(msearch::diff_outcomes(msearch::outcomes(qseq),
                                   msearch::outcomes(qs)),
            "");
}

// ---------------------------------------------------------------------------
// DK 3-d hierarchy
// ---------------------------------------------------------------------------

class DK3Test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DK3Test, TangentPlaneValuesMatchBruteForce) {
  util::Rng rng(300 + GetParam());
  const auto pts = random_points_on_sphere(GetParam(), 100000, rng);
  DKHierarchy3 dk(pts, rng);
  msearch::validate_graph(dk.extreme_dag().dag, "test");
  auto qs = make_queries(150);
  for (auto& q : qs) {
    do {
      q.key[0] = rng.uniform_range(-1000, 1000);
      q.key[1] = rng.uniform_range(-1000, 1000);
      q.key[2] = rng.uniform_range(-1000, 1000);
    } while (q.key[0] == 0 && q.key[1] == 0 && q.key[2] == 0);
  }
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qs);
  for (const auto& q : qs) {
    const Point3 d{q.key[0], q.key[1], q.key[2]};
    const auto brute =
        dot3(d, pts[static_cast<std::size_t>(extreme_point_brute(pts, d))]);
    EXPECT_EQ(q.acc0, brute) << "d=(" << d.x << "," << d.y << "," << d.z << ")";
    // The reported vertex achieves the max (a supporting plane witness).
    EXPECT_EQ(dot3(d, pts[static_cast<std::size_t>(q.result)]), brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DK3Test,
                         ::testing::Values(16u, 60u, 250u, 1200u));

TEST(DK3, BallInteriorPointsNeverWin) {
  util::Rng rng(48);
  auto pts = random_points_on_sphere(300, 50000, rng);
  pts.push_back(Point3{0, 0, 0});  // deep interior point
  DKHierarchy3 dk(pts, rng);
  auto qs = make_queries(50);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-100, 100);
    q.key[1] = rng.uniform_range(-100, 100);
    q.key[2] = 1 + rng.uniform_range(0, 100);
  }
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qs);
  for (const auto& q : qs)
    EXPECT_NE(q.result, static_cast<std::int32_t>(pts.size() - 1));
}

TEST(DK3, HierarchyShrinks) {
  util::Rng rng(49);
  const auto pts = random_points_on_sphere(2000, 200000, rng);
  DKHierarchy3 dk(pts, rng);
  EXPECT_GE(dk.hierarchy_levels(), 3u);
  EXPECT_LE(dk.hierarchy_levels(), 80u);
  EXPECT_GT(dk.extreme_dag().mu, 1.0);
  // Ring walks are constant-bounded.
  EXPECT_LE(dk.extreme_dag().level_work, 2 * 16);
}

TEST(DK3, Algorithm1MatchesSequential) {
  util::Rng rng(50);
  const auto pts = random_points_on_sphere(500, 80000, rng);
  DKHierarchy3 dk(pts, rng);
  auto qs = make_queries(400);
  for (auto& q : qs) {
    do {
      q.key[0] = rng.uniform_range(-500, 500);
      q.key[1] = rng.uniform_range(-500, 500);
      q.key[2] = rng.uniform_range(-500, 500);
    } while (q.key[0] == 0 && q.key[1] == 0 && q.key[2] == 0);
  }
  auto qseq = qs;
  msearch::sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(),
                                  qseq);
  const mesh::CostModel m;
  const auto dag = dk.extreme_dag().hierarchical_dag();
  const auto shape = dk.extreme_dag().dag.shape_for(qs.size());
  msearch::hierarchical_multisearch(dag, dk.extreme_program(), qs, m, shape);
  EXPECT_EQ(msearch::diff_outcomes(msearch::outcomes(qseq),
                                   msearch::outcomes(qs)),
            "");
}

}  // namespace
