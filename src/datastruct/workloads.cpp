#include "datastruct/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "multisearch/query.hpp"
#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::ds {

DistributedGraph build_hierarchical_dag(std::size_t n_target, double mu,
                                        unsigned fanout, util::Rng& rng) {
  MS_CHECK(mu > 1.0);
  MS_CHECK(fanout >= 1);
  MS_CHECK(n_target >= 1);
  // Level sizes round(mu^i) until the total reaches n_target.
  std::vector<std::size_t> level_size{1};
  std::size_t total = 1;
  double width = 1.0;
  while (total < n_target) {
    width *= mu;
    const std::size_t w = std::max<std::size_t>(
        level_size.back() + 1, static_cast<std::size_t>(std::llround(width)));
    level_size.push_back(w);
    total += w;
  }
  DistributedGraph g(total);
  const auto edit = g.edit();
  // Level offsets; vids are level-contiguous.
  std::vector<std::size_t> offset(level_size.size() + 1, 0);
  for (std::size_t i = 0; i < level_size.size(); ++i)
    offset[i + 1] = offset[i] + level_size[i];
  for (std::size_t i = 0; i < level_size.size(); ++i)
    for (std::size_t j = 0; j < level_size[i]; ++j)
      edit.vert(static_cast<Vid>(offset[i] + j)).level =
          static_cast<std::int32_t>(i);
  // Edges: each vertex at level i gets `fanout` distinct-ish targets at
  // level i+1; additionally target j takes an edge from source j % |L_i| so
  // that every vertex is reachable.
  for (std::size_t i = 0; i + 1 < level_size.size(); ++i) {
    const std::size_t wi = level_size[i], wn = level_size[i + 1];
    for (std::size_t j = 0; j < wn; ++j) {
      const Vid src = static_cast<Vid>(offset[i] + (j % wi));
      const Vid dst = static_cast<Vid>(offset[i + 1] + j);
      if (!g.has_edge(src, dst)) edit.add_edge(src, dst);
    }
    for (std::size_t j = 0; j < wi; ++j) {
      const Vid src = static_cast<Vid>(offset[i] + j);
      for (unsigned f = 0; f < fanout; ++f) {
        if (g.vert(src).degree >= msearch::kMaxDegree) break;
        const Vid dst =
            static_cast<Vid>(offset[i + 1] + rng.uniform(wn));
        if (!g.has_edge(src, dst)) edit.add_edge(src, dst);
      }
    }
  }
  msearch::validate_graph(g, "hierarchical-dag");
  return g;
}

CombGraph build_comb(std::size_t teeth, std::size_t tooth_len) {
  MS_CHECK(teeth >= 1 && tooth_len >= 1);
  // Spine: complete binary tree with `teeth` leaves (teeth rounded up to a
  // power of two by the caller's choice; we require it here).
  MS_CHECK_MSG((teeth & (teeth - 1)) == 0, "teeth must be a power of two");
  const std::size_t spine_nodes = 2 * teeth - 1;
  CombGraph comb;
  comb.teeth = teeth;
  comb.tooth_len = tooth_len;
  comb.spine_height = static_cast<std::int32_t>(mesh::floor_log2(teeth));
  comb.graph = DistributedGraph(spine_nodes + teeth * tooth_len);
  auto& g = comb.graph;
  const auto edit = g.edit();
  // Spine in heap order; payload key[6] = node type (0 spine internal,
  // 1 spine leaf, 2 tooth), level = depth.
  for (std::size_t t = 0; t < spine_nodes; ++t) {
    auto& rec = edit.vert(static_cast<Vid>(t));
    rec.level = static_cast<std::int32_t>(mesh::floor_log2(t + 1));
    rec.key[6] = t < teeth - 1 ? 0 : 1;
  }
  for (std::size_t t = 0; t + 1 < teeth; ++t) {
    edit.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 1));
    edit.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 2));
  }
  // Teeth: tooth i occupies vids [spine_nodes + i*len, ... + len).
  for (std::size_t i = 0; i < teeth; ++i) {
    const Vid leaf = static_cast<Vid>(teeth - 1 + i);
    Vid prev = leaf;
    for (std::size_t j = 0; j < tooth_len; ++j) {
      const Vid cur = static_cast<Vid>(spine_nodes + i * tooth_len + j);
      auto& rec = edit.vert(cur);
      rec.key[6] = 2;
      rec.level = comb.spine_height + 1 + static_cast<std::int32_t>(j);
      edit.add_edge(prev, cur);
      prev = cur;
    }
  }
  msearch::validate_graph(g, "comb");
  // Alpha-splitting: spine = piece 0 (head), tooth i (including nothing of
  // the spine) = piece 1+i (tail).
  auto& s = comb.splitting;
  s.piece.assign(g.vertex_count(), 0);
  for (std::size_t i = 0; i < teeth; ++i)
    for (std::size_t j = 0; j < tooth_len; ++j)
      s.piece[spine_nodes + i * tooth_len + j] = 1 + static_cast<std::int32_t>(i);
  s.kind.assign(1 + teeth, msearch::PieceKind::kTail);
  s.kind[0] = msearch::PieceKind::kHead;
  s.delta = std::log(static_cast<double>(std::max<std::size_t>(
                2, std::max(spine_nodes, tooth_len)))) /
            std::log(static_cast<double>(std::max<std::size_t>(
                2, g.vertex_count())));
  return comb;
}

Vid CombWalk::next(const VertexRecord& v, Query& q) const {
  if (v.key[6] == 0) {  // spine internal: hash the key to pick a side
    const std::uint64_t h = util::mix64(
        static_cast<std::uint64_t>(q.key[0]) ^
        (static_cast<std::uint64_t>(v.id) * 0x2545f4914f6cdd1dull));
    return v.nbr[h & 1u];
  }
  // Spine leaf or tooth vertex: walk the tooth while budget remains.
  if (static_cast<std::int64_t>(q.state) >= q.key[1] || v.degree == 0) {
    q.result = v.id;
    return kNoVertex;
  }
  ++q.state;  // one tooth step consumed
  return v.nbr[0];
}

RandomPartitionable build_random_partitionable(std::size_t k1, std::size_t k2,
                                               std::size_t piece_size,
                                               unsigned fanout,
                                               util::Rng& rng) {
  MS_CHECK(k1 >= 1 && k2 >= 1 && piece_size >= 2);
  MS_CHECK(fanout >= 1 && fanout + 2 <= msearch::kMaxDegree);
  RandomPartitionable out;
  const std::size_t total = (k1 + k2) * piece_size;
  out.graph = DistributedGraph(total);
  const auto edit = out.graph.edit();
  auto& s = out.splitting;
  s.piece.assign(total, -1);
  s.kind.assign(k1 + k2, msearch::PieceKind::kTail);
  for (std::size_t pc = 0; pc < k1; ++pc)
    s.kind[pc] = msearch::PieceKind::kHead;

  // Piece pc occupies vids [pc*piece_size, (pc+1)*piece_size); vertices are
  // topologically ordered within a piece so forward edges keep it acyclic.
  auto base = [&](std::size_t pc) { return pc * piece_size; };
  for (std::size_t pc = 0; pc < k1 + k2; ++pc) {
    for (std::size_t j = 0; j < piece_size; ++j) {
      const Vid v = static_cast<Vid>(base(pc) + j);
      s.piece[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(pc);
      const std::size_t forward = piece_size - 1 - j;
      const unsigned edges =
          static_cast<unsigned>(std::min<std::size_t>(fanout, forward));
      for (unsigned f = 0; f < edges; ++f) {
        const Vid w =
            static_cast<Vid>(base(pc) + j + 1 + rng.uniform(forward));
        if (!out.graph.has_edge(v, w)) edit.add_edge(v, w);
      }
    }
  }
  // Splitter edges: from random head vertices to random tail entry points.
  for (std::size_t pc = 0; pc < k1; ++pc) {
    const std::size_t cross = 1 + rng.uniform(piece_size / 2);
    for (std::size_t c = 0; c < cross; ++c) {
      const Vid u = static_cast<Vid>(base(pc) + rng.uniform(piece_size));
      if (static_cast<std::size_t>(out.graph.vert(u).degree) + 1 >
          msearch::kMaxDegree)
        continue;
      const std::size_t tpc = k1 + rng.uniform(k2);
      const Vid w = static_cast<Vid>(base(tpc) + rng.uniform(piece_size / 2));
      if (!out.graph.has_edge(u, w)) edit.add_edge(u, w);
    }
    out.entry.push_back(static_cast<Vid>(base(pc)));
  }
  msearch::validate_graph(out.graph, "random-partitionable");
  const double n = static_cast<double>(total);
  s.delta = std::log(static_cast<double>(piece_size)) /
            std::log(std::max(2.0, n));
  return out;
}

std::vector<Query> uniform_key_queries(std::size_t m, std::uint64_t key_space,
                                       util::Rng& rng) {
  auto qs = msearch::make_queries(m);
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(key_space));
  return qs;
}

std::vector<Query> zipf_key_queries(std::size_t m, std::uint64_t key_space,
                                    double s, util::Rng& rng) {
  auto qs = msearch::make_queries(m);
  util::Zipf zipf(static_cast<std::size_t>(key_space), s);
  // Scramble rank -> key so the hot keys are spread over the key space.
  for (auto& q : qs) {
    const std::size_t rank = zipf(rng);
    q.key[0] = static_cast<std::int64_t>(
        util::mix64(static_cast<std::uint64_t>(rank)) % key_space);
  }
  return qs;
}

}  // namespace meshsearch::ds
