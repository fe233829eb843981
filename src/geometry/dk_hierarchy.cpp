#include "geometry/dk_hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::geom {

ExtremeDag build_extreme_dag(const HierarchyLevels& h) {
  const std::size_t L = h.layer.size();
  MS_CHECK(L >= 1);
  MS_CHECK(h.cand.size() == L);  // cand[0] unused
  MS_CHECK(!h.layer[0].empty());

  // Pass 1: vid assignment. Root = 0; level 1 = ring over layer[0]; level
  // l+1 = rings of every u in layer[l-1] using cand[l]. head[l][i] = vid of
  // the ring head for the i-th vertex of layer[l-1]'s candidates at layer l;
  // head0 = head of the root ring.
  std::size_t total = 1;
  const std::int32_t head0 = 1;
  total += h.layer[0].size();
  std::vector<std::vector<std::int32_t>> head(L);
  for (std::size_t l = 1; l < L; ++l) {
    head[l].assign(h.layer[l - 1].size(), -1);
    for (std::size_t i = 0; i < h.layer[l - 1].size(); ++i) {
      MS_CHECK(!h.cand[l][i].empty());
      MS_CHECK_MSG(h.cand[l][i][0] == h.layer[l - 1][i],
                   "first candidate must be the vertex itself");
      head[l][i] = static_cast<std::int32_t>(total);
      total += h.cand[l][i].size();
    }
  }

  ExtremeDag out;
  out.dag = msearch::DistributedGraph(total);
  const auto edit = out.dag.edit();
  // Index of each vertex within its layer, for descend targets.
  std::vector<std::unordered_map<std::int32_t, std::int32_t>> pos(L);
  for (std::size_t l = 0; l < L; ++l)
    for (std::size_t i = 0; i < h.layer[l].size(); ++i)
      pos[l][h.layer[l][i]] = static_cast<std::int32_t>(i);

  std::int32_t max_ring = 1;
  auto fill_slot = [&](std::int32_t vid, std::int32_t level,
                       std::int32_t cand_id, std::int32_t ring_len,
                       std::int32_t ring_next, std::int32_t descend) {
    auto& rec = edit.vert(vid);
    rec.level = level;
    const auto& p = h.pts[static_cast<std::size_t>(cand_id)];
    rec.key[0] = p.x;
    rec.key[1] = p.y;
    rec.key[2] = p.z;
    rec.key[3] = ring_len;
    rec.key[4] = cand_id;
    rec.key[6] = descend >= 0 ? 1 : 0;
    if (ring_next >= 0) edit.add_edge(vid, ring_next);
    if (descend >= 0) edit.add_edge(vid, descend);
  };

  // Descend target of a slot whose candidate z lives in layer l: the ring
  // head of z at layer l+1 (none at the finest layer).
  auto descend_of = [&](std::size_t l, std::int32_t z) -> std::int32_t {
    if (l + 1 >= L) return -1;
    return head[l + 1][static_cast<std::size_t>(pos[l].at(z))];
  };

  // Root slot: candidate = first coarsest vertex, ring of length 1,
  // descending into the root ring.
  fill_slot(0, 0, h.layer[0][0], 1, -1, head0);

  // Root ring over layer[0].
  {
    const auto k = static_cast<std::int32_t>(h.layer[0].size());
    max_ring = std::max(max_ring, k);
    for (std::int32_t i = 0; i < k; ++i) {
      const auto z = h.layer[0][static_cast<std::size_t>(i)];
      fill_slot(head0 + i, 1, z, k, k > 1 ? head0 + (i + 1) % k : -1,
                descend_of(0, z));
    }
  }

  for (std::size_t l = 1; l < L; ++l) {
    for (std::size_t i = 0; i < h.layer[l - 1].size(); ++i) {
      const auto& ring = h.cand[l][i];
      const auto k = static_cast<std::int32_t>(ring.size());
      max_ring = std::max(max_ring, k);
      for (std::int32_t r = 0; r < k; ++r) {
        const auto z = ring[static_cast<std::size_t>(r)];
        fill_slot(head[l][i] + r, static_cast<std::int32_t>(l) + 1, z, k,
                  k > 1 ? head[l][i] + (r + 1) % k : -1, descend_of(l, z));
      }
    }
  }
  msearch::validate_graph(out.dag, "dk-hierarchy");
  out.level_work = 2 * max_ring;
  out.root = 0;

  std::vector<std::size_t> level_size(L + 1, 0);
  for (const auto& v : out.dag.verts())
    ++level_size[static_cast<std::size_t>(v.level)];
  out.mu = std::pow(static_cast<double>(level_size[L]) /
                        static_cast<double>(level_size[0]),
                    1.0 / static_cast<double>(L));
  out.mu = std::max(out.mu, 1.05);
  return out;
}

msearch::Vid ExtremeQuery::next(const msearch::VertexRecord& v,
                                msearch::Query& q) const {
  const Point3 d{q.key[0], q.key[1], q.key[2]};
  const Point3 p{v.key[0], v.key[1], v.key[2]};
  const std::int64_t dot = dot3(d, p);
  const auto ring_len = static_cast<std::int32_t>(v.key[3]);
  const bool ring_edge = v.key[3] > 1;  // rings of length 1 have no nbr[0]
  const msearch::Vid ring_next = ring_edge ? v.nbr[0] : msearch::kNoVertex;
  const msearch::Vid descend =
      v.key[6] ? v.nbr[ring_edge ? 1 : 0] : msearch::kNoVertex;

  if (q.state == 0 || dot > q.acc0) {  // first slot of a ring, or new best
    q.acc0 = dot;
    q.result = static_cast<std::int32_t>(v.key[4]);
  }
  ++q.state;
  if (q.state < ring_len) return ring_next;  // keep scanning the ring
  // Full lap done: move to (or stay at) the best slot, then descend.
  if (static_cast<std::int32_t>(v.key[4]) == q.result) {
    q.state = 0;
    return descend;  // kNoVertex at the finest layer: done
  }
  MS_CHECK_MSG(q.state < 2 * ring_len + 2, "extreme ring walk diverged");
  return ring_next;
}

DKHierarchy3::DKHierarchy3(std::vector<Point3> pts, util::Rng& rng,
                           unsigned max_degree)
    : pts_(std::move(pts)) {
  if (max_degree < 6)
    msearch::invalid_input("DK hierarchy needs max_degree >= 6",
                           "dk-hierarchy");
  // Fine-to-coarse hull sequence.
  std::vector<std::vector<std::int32_t>> fine_layers;       // P_0, P_1, ...
  std::vector<std::vector<std::vector<std::int32_t>>> fine_cands;
  std::vector<Point3> cur_pts = pts_;
  std::vector<std::int32_t> cur_ids(pts_.size());
  for (std::size_t i = 0; i < pts_.size(); ++i)
    cur_ids[i] = static_cast<std::int32_t>(i);

  Hull3 hull = convex_hull3(cur_pts, rng);
  // Map hull vertex indices (into cur_pts) to original ids.
  auto to_orig = [&](const std::vector<std::int32_t>& ids,
                     const std::vector<std::int32_t>& idx) {
    std::vector<std::int32_t> out;
    out.reserve(idx.size());
    for (const auto i : idx) out.push_back(ids[static_cast<std::size_t>(i)]);
    return out;
  };
  hull_verts_ = to_orig(cur_ids, hull.vertices);

  for (;;) {
    const auto adj = hull_adjacency(hull, cur_pts.size());
    std::vector<std::int32_t> layer = to_orig(cur_ids, hull.vertices);
    fine_layers.push_back(layer);
    if (hull.vertices.size() <= 8) break;

    // Independent set of low-degree hull vertices (greedy).
    std::vector<std::uint8_t> blocked(cur_pts.size(), 0), removed(cur_pts.size(), 0);
    std::size_t removed_count = 0;
    unsigned cap = max_degree;
    while (removed_count == 0) {
      for (const auto v : hull.vertices) {
        const auto sv = static_cast<std::size_t>(v);
        if (blocked[sv] || adj[sv].size() > cap) continue;
        removed[sv] = 1;
        ++removed_count;
        blocked[sv] = 1;
        for (const auto w : adj[sv]) blocked[static_cast<std::size_t>(w)] = 1;
        if (hull.vertices.size() - removed_count <= 4) break;
      }
      cap += 4;
      MS_CHECK_MSG(cap <= 128, "no removable hull vertex found");
    }

    // Candidates for each survivor u: {u} + removed neighbours in this hull.
    std::vector<std::vector<std::int32_t>> cands;
    std::vector<std::int32_t> survivors_local;
    for (const auto v : hull.vertices)
      if (!removed[static_cast<std::size_t>(v)]) survivors_local.push_back(v);
    for (const auto u : survivors_local) {
      std::vector<std::int32_t> c{cur_ids[static_cast<std::size_t>(u)]};
      for (const auto w : adj[static_cast<std::size_t>(u)])
        if (removed[static_cast<std::size_t>(w)])
          c.push_back(cur_ids[static_cast<std::size_t>(w)]);
      cands.push_back(std::move(c));
    }
    fine_cands.push_back(std::move(cands));

    // Recurse on the survivors.
    std::vector<Point3> next_pts;
    std::vector<std::int32_t> next_ids;
    for (const auto u : survivors_local) {
      next_pts.push_back(cur_pts[static_cast<std::size_t>(u)]);
      next_ids.push_back(cur_ids[static_cast<std::size_t>(u)]);
    }
    cur_pts = std::move(next_pts);
    cur_ids = std::move(next_ids);
    hull = convex_hull3(cur_pts, rng);
    // Survivors must all stay hull vertices (removal only shrinks the hull).
    MS_CHECK_MSG(hull.vertices.size() == cur_pts.size(),
                 "a surviving vertex fell inside the coarser hull");
  }

  // Assemble coarse-to-fine HierarchyLevels. fine_layers = [P_0 .. P_K]
  // (P_K coarsest); fine_cands[k] maps P_{k+1}-survivors to P_k candidates.
  HierarchyLevels h;
  h.pts = pts_;
  const std::size_t K = fine_layers.size() - 1;
  num_levels_ = fine_layers.size();
  h.layer.resize(K + 1);
  h.cand.resize(K + 1);
  for (std::size_t k = 0; k <= K; ++k) h.layer[k] = fine_layers[K - k];
  for (std::size_t l = 1; l <= K; ++l) {
    // layer[l-1] = P_{K-l+1} survivors; candidates into layer[l] = P_{K-l}.
    h.cand[l] = fine_cands[K - l];
    // fine_cands was built in survivor order; layer[l-1] order must match.
    MS_CHECK(h.cand[l].size() == h.layer[l - 1].size());
    for (std::size_t i = 0; i < h.cand[l].size(); ++i)
      MS_CHECK(h.cand[l][i][0] == h.layer[l - 1][i]);
  }
  dag_ = build_extreme_dag(h);
}

}  // namespace meshsearch::geom
