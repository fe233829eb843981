#include "multisearch/splitter.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

#include "multisearch/validate.hpp"

namespace meshsearch::msearch {

std::vector<std::size_t> piece_sizes(const Splitting& s) {
  std::vector<std::size_t> sizes(s.num_pieces(), 0);
  for (const auto pc : s.piece)
    if (pc >= 0) {
      MS_CHECK(static_cast<std::size_t>(pc) < sizes.size());
      ++sizes[static_cast<std::size_t>(pc)];
    }
  return sizes;
}

std::size_t max_piece_size(const Splitting& s) {
  const auto sizes = piece_sizes(s);
  return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

void validate_alpha_splitting(const DistributedGraph& g, const Splitting& s) {
  validate_splitting_input(g, s, "splitting");
  for (std::size_t u = 0; u < g.vertex_count(); ++u) {
    const auto& rec = g.vert(static_cast<Vid>(u));
    const std::int32_t pu = s.piece[u];
    for (std::uint8_t d = 0; d < rec.degree; ++d) {
      const std::int32_t pw = s.piece[static_cast<std::size_t>(rec.nbr[d])];
      if (pu == pw) continue;
      MS_CHECK_MSG(s.kind[static_cast<std::size_t>(pu)] == PieceKind::kHead,
                   "splitter edge does not leave a head piece");
      MS_CHECK_MSG(s.kind[static_cast<std::size_t>(pw)] == PieceKind::kTail,
                   "splitter edge does not enter a tail piece");
    }
  }
}

std::vector<Vid> border_vertices(const DistributedGraph& g,
                                 const Splitting& s) {
  std::vector<std::uint8_t> is_border(g.vertex_count(), 0);
  for (std::size_t u = 0; u < g.vertex_count(); ++u) {
    const auto& rec = g.vert(static_cast<Vid>(u));
    for (std::uint8_t d = 0; d < rec.degree; ++d) {
      const std::size_t w = static_cast<std::size_t>(rec.nbr[d]);
      if (s.piece[u] != s.piece[w]) {
        is_border[u] = 1;
        is_border[w] = 1;
      }
    }
  }
  std::vector<Vid> out;
  for (std::size_t v = 0; v < is_border.size(); ++v)
    if (is_border[v]) out.push_back(static_cast<Vid>(v));
  return out;
}

std::size_t border_distance(const DistributedGraph& g, const Splitting& s1,
                            const Splitting& s2, std::size_t limit) {
  const auto b1 = border_vertices(g, s1);
  const auto b2 = border_vertices(g, s2);
  if (b1.empty() || b2.empty()) return std::numeric_limits<std::size_t>::max();
  std::vector<std::uint8_t> target(g.vertex_count(), 0);
  for (const Vid v : b2) target[static_cast<std::size_t>(v)] = 1;
  // Multi-source BFS from border(S1), treating edges as undirected by
  // following stored adjacency both ways is unnecessary: undirected graphs
  // store both directions already, and alpha-beta splittings only apply to
  // undirected graphs.
  std::vector<std::uint32_t> dist(g.vertex_count(),
                                  std::numeric_limits<std::uint32_t>::max());
  std::deque<Vid> frontier;
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (const Vid v : b1) {
    dist[static_cast<std::size_t>(v)] = 0;
    frontier.push_back(v);
    if (target[static_cast<std::size_t>(v)]) return 0;
  }
  while (!frontier.empty()) {
    const Vid u = frontier.front();
    frontier.pop_front();
    const std::uint32_t du = dist[static_cast<std::size_t>(u)];
    if (du >= limit && best == std::numeric_limits<std::size_t>::max())
      return limit + 1;  // provably > limit
    const auto& rec = g.vert(u);
    for (std::uint8_t d = 0; d < rec.degree; ++d) {
      const std::size_t w = static_cast<std::size_t>(rec.nbr[d]);
      if (dist[w] != std::numeric_limits<std::uint32_t>::max()) continue;
      dist[w] = du + 1;
      if (target[w]) best = std::min<std::size_t>(best, du + 1);
      frontier.push_back(static_cast<Vid>(w));
    }
    if (best <= du) break;  // no shorter path can appear later in BFS
  }
  return best;
}

Splitting normalize_splitting(const Splitting& s, std::size_t cap) {
  MS_CHECK(cap >= 1);
  const auto sizes = piece_sizes(s);
  // Greedy first-fit in piece-id order, one bin stream per kind. On a mesh
  // this is a scan over piece sizes plus a routing — O(sqrt n); the cost is
  // charged by the callers that use it.
  std::vector<std::int32_t> group_of(sizes.size(), -1);
  std::vector<PieceKind> group_kind;
  std::int32_t open_group[3] = {-1, -1, -1};
  std::size_t open_fill[3] = {0, 0, 0};
  for (std::size_t pc = 0; pc < sizes.size(); ++pc) {
    const auto k = static_cast<std::size_t>(s.kind[pc]);
    if (open_group[k] < 0 || open_fill[k] + sizes[pc] > cap) {
      open_group[k] = static_cast<std::int32_t>(group_kind.size());
      group_kind.push_back(s.kind[pc]);
      open_fill[k] = 0;
    }
    group_of[pc] = open_group[k];
    open_fill[k] += sizes[pc];
  }
  Splitting out;
  out.delta = s.delta;
  out.kind = std::move(group_kind);
  out.piece.resize(s.piece.size(), -1);
  for (std::size_t v = 0; v < s.piece.size(); ++v)
    if (s.piece[v] >= 0)
      out.piece[v] = group_of[static_cast<std::size_t>(s.piece[v])];
  return out;
}

}  // namespace meshsearch::msearch
