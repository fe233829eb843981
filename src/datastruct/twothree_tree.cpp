#include "datastruct/twothree_tree.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>

#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::ds {

TwoThreeTree::TwoThreeTree(const std::vector<std::int64_t>& keys) {
  // Front door (PR 5 contract): malformed input is caller error and throws
  // InvalidInputError before any construction work, never an MS_CHECK.
  if (keys.empty()) msearch::invalid_input("empty key set", "twothree-tree");
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (!(keys[i - 1] < keys[i]))
      msearch::invalid_input(
          "keys not sorted unique at index " + std::to_string(i),
          "twothree-tree");

  // Bottom-up construction. A level of w nodes is grouped into parents of
  // 2 or 3 children: greedy 3s, switching to 2s when the remainder is 2 or
  // 4 (so no parent ever gets a single child). First pass counts nodes.
  auto parents_of = [](std::size_t w) {
    std::size_t parents = 0, i = 0;
    while (i < w) {
      const std::size_t rest = w - i;
      i += (rest == 2 || rest == 4) ? 2 : 3;
      ++parents;
    }
    return parents;
  };
  std::size_t total = keys.size();
  for (std::size_t w = keys.size(); w > 1; w = parents_of(w))
    total += parents_of(w);
  g_ = DistributedGraph(total);
  const auto edit = g_.edit();

  // Second pass: materialize nodes level by level, leaves first.
  std::vector<Vid> cur(keys.size());
  std::vector<std::int64_t> cur_min(keys.size());
  Vid next_vid = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Vid v = next_vid++;
    cur[i] = v;
    cur_min[i] = keys[i];
    auto& rec = edit.vert(v);
    rec.key[0] = keys[i];
    rec.key[6] = 0;
  }
  height_ = 0;
  while (cur.size() > 1) {
    ++height_;
    std::vector<Vid> up;
    std::vector<std::int64_t> up_min;
    std::size_t i = 0;
    const std::size_t w = cur.size();
    while (i < w) {
      std::size_t take;
      const std::size_t rest = w - i;
      if (rest == 2 || rest == 4)
        take = 2;
      else
        take = 3;
      const Vid v = next_vid++;
      auto& rec = edit.vert(v);
      rec.key[6] = static_cast<std::int64_t>(take);
      for (std::size_t c = 0; c < take; ++c) {
        edit.add_edge(v, cur[i + c]);
        if (c >= 1) rec.key[c - 1] = cur_min[i + c];
      }
      up.push_back(v);
      up_min.push_back(cur_min[i]);
      i += take;
    }
    cur = std::move(up);
    cur_min = std::move(up_min);
  }
  root_ = cur[0];
  MS_CHECK(static_cast<std::size_t>(next_vid) == total);

  // Depth labels via BFS from the root.
  std::deque<Vid> frontier{root_};
  edit.vert(root_).level = 0;
  while (!frontier.empty()) {
    const Vid u = frontier.front();
    frontier.pop_front();
    const auto& rec = g_.vert(u);
    for (std::uint8_t d = 0; d < rec.degree; ++d) {
      edit.vert(rec.nbr[d]).level = rec.level + 1;
      frontier.push_back(rec.nbr[d]);
    }
  }
  msearch::validate_graph(g_, "twothree-tree");
}

Vid TwoThreeTree::Lookup::next(const VertexRecord& v, Query& q) const {
  const std::int64_t x = q.key[0];
  if (v.key[6] == 0) {
    q.result = v.id;
    q.acc0 = v.key[0] == x ? 1 : 0;
    q.acc1 = v.key[0] <= x ? v.key[0]
                           : std::numeric_limits<std::int64_t>::min();
    return kNoVertex;
  }
  const auto nc = static_cast<unsigned>(v.key[6]);
  unsigned c = 0;
  while (c + 1 < nc && v.key[c] <= x) ++c;
  return v.nbr[c];
}

Splitting TwoThreeTree::alpha_splitting() const {
  Splitting s;
  s.piece.assign(g_.vertex_count(), 0);
  const std::int32_t d = std::max<std::int32_t>(1, (height_ + 1) / 2);
  // BFS labelling: every depth-d vertex roots its own tail piece.
  std::int32_t next_piece = 1;
  std::deque<std::pair<Vid, std::int32_t>> frontier{{root_, 0}};
  while (!frontier.empty()) {
    const auto [u, pc] = frontier.front();
    frontier.pop_front();
    const auto& rec = g_.vert(u);
    std::int32_t here = pc;
    if (rec.level == d && pc == 0) here = next_piece++;
    s.piece[static_cast<std::size_t>(u)] = here;
    for (std::uint8_t c = 0; c < rec.degree; ++c)
      frontier.emplace_back(rec.nbr[c], here);
  }
  s.kind.assign(static_cast<std::size_t>(next_piece),
                msearch::PieceKind::kTail);
  s.kind[0] = msearch::PieceKind::kHead;
  if (height_ == 0) s.kind[0] = msearch::PieceKind::kHead;
  s.delta = std::log(static_cast<double>(
                std::max<std::size_t>(2, msearch::max_piece_size(s)))) /
            std::log(std::max<double>(2.0,
                                      static_cast<double>(g_.vertex_count())));
  return s;
}

}  // namespace meshsearch::ds
