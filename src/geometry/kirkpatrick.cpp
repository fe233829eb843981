#include "geometry/kirkpatrick.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::geom {

namespace {

/// Ear-clip a simple ccw polygon (vertex ids into verts) into ccw triangles.
std::vector<std::array<std::int32_t, 3>> ear_clip(
    std::vector<std::int32_t> poly, const std::vector<Point2>& verts) {
  std::vector<std::array<std::int32_t, 3>> out;
  auto pt = [&](std::int32_t id) { return verts[static_cast<std::size_t>(id)]; };
  while (poly.size() > 3) {
    bool clipped = false;
    for (std::size_t i = 0; i < poly.size(); ++i) {
      const std::size_t n = poly.size();
      const std::int32_t a = poly[(i + n - 1) % n], b = poly[i],
                         c = poly[(i + 1) % n];
      if (orient2d(pt(a), pt(b), pt(c)) <= 0) continue;  // reflex/flat
      bool blocked = false;
      for (std::size_t j = 0; j < n && !blocked; ++j) {
        const std::int32_t w = poly[j];
        if (w == a || w == b || w == c) continue;
        blocked = point_in_triangle(pt(w), pt(a), pt(b), pt(c));
      }
      if (blocked) continue;
      out.push_back({a, b, c});
      poly.erase(poly.begin() + static_cast<std::ptrdiff_t>(i));
      clipped = true;
      break;
    }
    MS_CHECK_MSG(clipped, "ear clipping stalled on a star polygon");
  }
  MS_CHECK(poly.size() == 3);
  MS_CHECK(orient2d(pt(poly[0]), pt(poly[1]), pt(poly[2])) > 0);
  out.push_back({poly[0], poly[1], poly[2]});
  return out;
}

}  // namespace

Kirkpatrick::Kirkpatrick(std::vector<Point2> points, Scalar radius,
                         unsigned max_degree)
    : points_(std::move(points)), radius_(radius), max_degree_(max_degree) {
  if (max_degree_ < 4)
    msearch::invalid_input("Kirkpatrick needs max_degree >= 4", "kirkpatrick");
  if (points_.empty())
    msearch::invalid_input("Kirkpatrick needs at least one point",
                           "kirkpatrick");
  msearch::validate_points_in_bounds(points_, "kirkpatrick");
  msearch::validate_points_distinct(points_, "kirkpatrick");
  rebuild_hierarchy();
}

void Kirkpatrick::rebuild_hierarchy() {
  const Triangulation tin(points_, radius_);
  verts_ = tin.vertices();
  levels_.clear();

  Level finest;
  for (const auto id : tin.alive_ids()) {
    const auto& t = tin.history()[static_cast<std::size_t>(id)];
    finest.tri.push_back(t.v);
  }
  finest.children.assign(finest.tri.size(), {});
  levels_.push_back(std::move(finest));

  std::vector<std::uint8_t> removed(verts_.size(), 0);
  while (levels_.back().tri.size() > 1) {
    levels_.push_back(coarsen(levels_.back(), removed, max_degree_));
  }
  build_dag();
}

msearch::StructureDelta Kirkpatrick::apply_updates(
    const std::vector<Point2>& inserts, const std::vector<Point2>& deletes) {
  constexpr const char* kSite = "kirkpatrick.apply_updates";
  auto same = [](const Point2& a, const Point2& b) {
    return a.x == b.x && a.y == b.y;
  };
  // Validate the whole batch before mutating anything.
  std::vector<std::uint8_t> doomed(points_.size(), 0);
  for (std::size_t i = 0; i < deletes.size(); ++i) {
    bool found = false;
    for (std::size_t j = 0; j < points_.size() && !found; ++j) {
      if (!same(deletes[i], points_[j])) continue;
      if (doomed[j])
        msearch::invalid_input(
            "duplicate delete of point " + std::to_string(i), kSite);
      doomed[j] = 1;
      found = true;
    }
    if (!found)
      msearch::invalid_input(
          "delete " + std::to_string(i) + " names an absent point", kSite);
  }
  msearch::validate_points_in_bounds(inserts, kSite);
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    for (std::size_t j = 0; j < points_.size(); ++j)
      if (!doomed[j] && same(inserts[i], points_[j]))
        msearch::invalid_input(
            "insert " + std::to_string(i) + " duplicates a live point",
            kSite);
    for (std::size_t i2 = 0; i2 < i; ++i2)
      if (same(inserts[i], inserts[i2]))
        msearch::invalid_input(
            "duplicate insert of point " + std::to_string(i), kSite);
  }
  // Inserts land in the slots the deletes freed (leftovers append): the
  // point ORDER is preserved, so the deterministic re-triangulation makes
  // delete + re-insert of the same point an exact fixed point of the
  // hierarchy — the payload-only diff below then reports an empty dirty
  // set instead of a spurious topology change.
  std::vector<Point2> next;
  next.reserve(points_.size() + inserts.size());
  std::size_t ins = 0;
  for (std::size_t j = 0; j < points_.size(); ++j) {
    if (!doomed[j])
      next.push_back(points_[j]);
    else if (ins < inserts.size())
      next.push_back(inserts[ins++]);
  }
  for (; ins < inserts.size(); ++ins) next.push_back(inserts[ins]);
  if (next.empty())
    msearch::invalid_input("update batch would empty the point set", kSite);

  // Re-triangulate the whole hierarchy from the new point set and diff the
  // resulting slot DAG against the old one.
  const std::vector<msearch::VertexRecord> before = dag_.verts();
  points_ = std::move(next);
  rebuild_hierarchy();

  msearch::StructureDelta delta;
  delta.inserts = inserts.size();
  delta.deletes = deletes.size();
  bool same_shape = dag_.vertex_count() == before.size();
  for (std::size_t v = 0; same_shape && v < before.size(); ++v) {
    const auto& a = before[v];
    const auto& b = dag_.vert(static_cast<msearch::Vid>(v));
    same_shape = a.level == b.level && a.degree == b.degree && a.nbr == b.nbr;
  }
  if (same_shape) {
    for (std::size_t v = 0; v < before.size(); ++v)
      if (dag_.vert(static_cast<msearch::Vid>(v)).key != before[v].key)
        delta.dirty_vertices.push_back(static_cast<msearch::Vid>(v));
  } else {
    delta.topology_changed = true;
  }
  dag_.bump_generation();
  delta.generation = dag_.generation();
  return delta;
}

Kirkpatrick::Level Kirkpatrick::coarsen(const Level& fine,
                                        std::vector<std::uint8_t>& removed_flag,
                                        unsigned max_degree) {
  // Incidence lists over the current vertex set.
  std::vector<std::vector<std::int32_t>> inc(verts_.size());
  for (std::size_t j = 0; j < fine.tri.size(); ++j)
    for (const auto v : fine.tri[j])
      inc[static_cast<std::size_t>(v)].push_back(static_cast<std::int32_t>(j));

  // Independent set of interior (non-bounding) vertices, degree-capped;
  // escalate the cap if a round selects nothing (tiny levels).
  std::vector<std::int32_t> selected;
  std::vector<std::uint8_t> blocked(verts_.size(), 0);
  unsigned cap = max_degree;
  while (selected.empty()) {
    for (std::size_t v = 3; v < verts_.size(); ++v) {
      if (inc[v].empty() || blocked[v] || removed_flag[v]) continue;
      if (inc[v].size() > cap) continue;
      selected.push_back(static_cast<std::int32_t>(v));
      for (const auto t : inc[v])
        for (const auto w : fine.tri[static_cast<std::size_t>(t)])
          blocked[static_cast<std::size_t>(w)] = 1;
    }
    if (selected.empty()) {
      bool any_interior = false;
      for (std::size_t v = 3; v < verts_.size() && !any_interior; ++v)
        any_interior = !inc[v].empty() && !removed_flag[v];
      MS_CHECK_MSG(any_interior, "coarsen called on the bounding triangle");
      cap += 4;
      MS_CHECK_MSG(cap <= 64, "could not find a removable vertex");
    }
  }

  Level coarse;
  std::vector<std::uint8_t> in_star(fine.tri.size(), 0);
  for (const auto v : selected) {
    removed_flag[static_cast<std::size_t>(v)] = 1;
    for (const auto t : inc[static_cast<std::size_t>(v)])
      in_star[static_cast<std::size_t>(t)] = 1;
  }
  // Unchanged triangles survive with a single child link.
  for (std::size_t j = 0; j < fine.tri.size(); ++j) {
    if (in_star[j]) continue;
    coarse.tri.push_back(fine.tri[j]);
    coarse.children.push_back({static_cast<std::int32_t>(j)});
  }
  // Retriangulate each removed vertex's star-shaped hole.
  for (const auto v : selected) {
    const auto& star = inc[static_cast<std::size_t>(v)];
    // Hole boundary: the edge opposite v in each star triangle, oriented ccw.
    std::map<std::int32_t, std::int32_t> succ;
    for (const auto t : star) {
      const auto& tv = fine.tri[static_cast<std::size_t>(t)];
      std::size_t k = 0;
      while (tv[k] != v) ++k;
      succ[tv[(k + 1) % 3]] = tv[(k + 2) % 3];
    }
    std::vector<std::int32_t> poly;
    poly.push_back(succ.begin()->first);
    while (poly.size() < succ.size())
      poly.push_back(succ[poly.back()]);
    MS_CHECK_MSG(succ[poly.back()] == poly.front(),
                 "star boundary is not a single cycle");
    const auto new_tris = ear_clip(std::move(poly), verts_);
    for (const auto& nt : new_tris) {
      std::vector<std::int32_t> kids;
      const std::array<Point2, 3> tn{
          verts_[static_cast<std::size_t>(nt[0])],
          verts_[static_cast<std::size_t>(nt[1])],
          verts_[static_cast<std::size_t>(nt[2])]};
      for (const auto t : star) {
        const auto& tv = fine.tri[static_cast<std::size_t>(t)];
        const std::array<Point2, 3> to{
            verts_[static_cast<std::size_t>(tv[0])],
            verts_[static_cast<std::size_t>(tv[1])],
            verts_[static_cast<std::size_t>(tv[2])]};
        if (triangles_overlap(tn, to)) kids.push_back(t);
      }
      MS_CHECK_MSG(!kids.empty(), "hole triangle overlaps no star triangle");
      coarse.tri.push_back(nt);
      coarse.children.push_back(std::move(kids));
    }
  }
  return coarse;
}

void Kirkpatrick::build_dag() {
  const std::size_t S = levels_.size() - 1;  // coarsest level index
  MS_CHECK(levels_[S].tri.size() == 1);

  // Pass 1: assign slot vids. Root = 0; then transitions s = S..1, slots in
  // (parent, child-position) order. head[s][parent] = first slot vid of the
  // parent's chain in transition s (children live at level s-1).
  std::size_t total = 1;
  std::vector<std::vector<std::int32_t>> head(S + 1);
  for (std::size_t s = S; s >= 1; --s) {
    head[s].assign(levels_[s].tri.size(), -1);
    for (std::size_t j = 0; j < levels_[s].tri.size(); ++j) {
      head[s][j] = static_cast<std::int32_t>(total);
      total += levels_[s].children[j].size();
    }
  }
  const std::uint64_t gen = dag_.generation();
  dag_ = msearch::DistributedGraph(total);
  dag_.set_generation(gen);
  const auto edit = dag_.edit();

  // Root slot: the bounding triangle, descending into its chain.
  {
    auto& rec = edit.vert(0);
    rec.level = 0;
    const auto& tv = levels_[S].tri[0];
    for (int k = 0; k < 3; ++k) {
      rec.key[2 * k] = verts_[static_cast<std::size_t>(tv[static_cast<std::size_t>(k)])].x;
      rec.key[2 * k + 1] = verts_[static_cast<std::size_t>(tv[static_cast<std::size_t>(k)])].y;
    }
    rec.key[6] = 2;  // descend only
    rec.key[7] = 0;
  }
  edit.add_edge(0, head[S][0]);

  std::int32_t max_chain = 1;
  for (std::size_t s = S; s >= 1; --s) {
    const std::int32_t dag_level = static_cast<std::int32_t>(S - s + 1);
    for (std::size_t j = 0; j < levels_[s].tri.size(); ++j) {
      const auto& kids = levels_[s].children[j];
      max_chain = std::max(max_chain, static_cast<std::int32_t>(kids.size()));
      for (std::size_t k = 0; k < kids.size(); ++k) {
        const auto vid = head[s][j] + static_cast<std::int32_t>(k);
        auto& rec = edit.vert(vid);
        rec.level = dag_level;
        const auto child = kids[k];
        const auto& tv = levels_[s - 1].tri[static_cast<std::size_t>(child)];
        for (int c = 0; c < 3; ++c) {
          const auto& p =
              verts_[static_cast<std::size_t>(tv[static_cast<std::size_t>(c)])];
          rec.key[2 * c] = p.x;
          rec.key[2 * c + 1] = p.y;
        }
        rec.key[7] = child;
        std::int64_t flags = 0;
        if (k + 1 < kids.size()) {
          flags |= 1;  // chain next
          edit.add_edge(vid, vid + 1);
        }
        if (s >= 2) {
          flags |= 2;  // descend
          edit.add_edge(vid, head[s - 1][static_cast<std::size_t>(child)]);
        }
        rec.key[6] = flags;
      }
    }
  }
  msearch::validate_graph(dag_, "kirkpatrick");

  level_work_ = 2 * max_chain;
  // Measured growth ratio of DAG level sizes (DAG levels run 0..S).
  std::vector<std::size_t> level_size(S + 1, 0);
  for (const auto& v : dag_.verts())
    ++level_size[static_cast<std::size_t>(v.level)];
  mu_ = std::pow(static_cast<double>(level_size[S]) /
                     static_cast<double>(level_size[0]),
                 1.0 / static_cast<double>(S));
  mu_ = std::max(mu_, 1.05);
}

std::array<Point2, 3> Kirkpatrick::finest_corners(std::int32_t id) const {
  const auto& tv = levels_.front().tri[static_cast<std::size_t>(id)];
  return {verts_[static_cast<std::size_t>(tv[0])],
          verts_[static_cast<std::size_t>(tv[1])],
          verts_[static_cast<std::size_t>(tv[2])]};
}

msearch::Vid Kirkpatrick::PointLocate::next(const msearch::VertexRecord& v,
                                            msearch::Query& q) const {
  const Point2 p{q.key[0], q.key[1]};
  const Point2 a{v.key[0], v.key[1]}, b{v.key[2], v.key[3]},
      c{v.key[4], v.key[5]};
  if (point_in_triangle(p, a, b, c)) {
    if (v.key[6] & 2) return v.nbr[(v.key[6] & 1) ? 1 : 0];  // descend
    q.result = static_cast<std::int32_t>(v.key[7]);
    q.acc0 = v.key[7];
    return msearch::kNoVertex;
  }
  if (v.level == 0) {  // outside the bounding triangle entirely
    q.result = kOutside;
    return msearch::kNoVertex;
  }
  MS_CHECK_MSG(v.key[6] & 1, "point location fell off a chain");
  return v.nbr[0];
}

bool Kirkpatrick::answer_contains_point(const msearch::Query& q) const {
  if (q.result < 0 ||
      static_cast<std::size_t>(q.result) >= levels_.front().tri.size())
    return false;
  const auto t = finest_corners(q.result);
  return point_in_triangle(Point2{q.key[0], q.key[1]}, t[0], t[1], t[2]);
}

}  // namespace meshsearch::geom
