#include "datastruct/segment_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "mesh/snake.hpp"
#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::ds {

namespace {
constexpr std::int64_t kSentinel = std::numeric_limits<std::int64_t>::max();
}

// Elementary pieces over the E distinct endpoints e_0 < ... < e_{E-1}:
//   piece 2i+1 = the point [e_i, e_i], pieces 2i / 2E = the open gaps.
// An interval [l, r] covers pieces [2*idx(l)+1, 2*idx(r)+1]; a stabbing
// point x lies in exactly one piece. Internal nodes store the coordinate
// test that decides the descent (x < e or x <= e), so the query program
// needs nothing but the node record.
SegmentTree::SegmentTree(const std::vector<Interval>& intervals) {
  // Front door (PR 5 contract): malformed input is caller error and throws
  // InvalidInputError before any construction work, never an MS_CHECK.
  if (intervals.empty())
    msearch::invalid_input("empty interval set", "segment-tree");
  coords_.reserve(2 * intervals.size());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const auto& iv = intervals[i];
    if (iv.lo > iv.hi)
      msearch::invalid_input(
          "interval " + std::to_string(i) + " has lo > hi", "segment-tree");
    coords_.push_back(iv.lo);
    coords_.push_back(iv.hi);
  }
  std::sort(coords_.begin(), coords_.end());
  coords_.erase(std::unique(coords_.begin(), coords_.end()), coords_.end());
  const std::size_t pieces = 2 * coords_.size() + 1;
  const std::size_t leaves = mesh::ceil_pow2(pieces);
  const std::size_t total = 2 * leaves - 1;
  const std::size_t leaf_off = leaves - 1;
  height_ = static_cast<std::int32_t>(mesh::floor_log2(leaves));

  g_ = DistributedGraph(total);
  const auto edit = g_.edit();
  for (std::size_t t = 0; t < total; ++t) {
    auto& rec = edit.vert(static_cast<Vid>(t));
    rec.level = static_cast<std::int32_t>(mesh::floor_log2(t + 1));
    rec.key[2] = 0;
    if (t >= leaf_off) {
      rec.key[6] = 0;
      continue;
    }
    rec.key[6] = 2;
    // Boundary piece index: the first leaf of the right subtree.
    std::size_t x = 2 * t + 2;
    while (x < leaf_off) x = 2 * x + 1;
    const std::size_t b = x - leaf_off;
    if (b >= pieces || b == 0) {
      rec.key[0] = kSentinel;  // split inside the padding: everything left
      rec.key[1] = 1;
    } else if (b % 2 == 1) {   // gap | point e_{(b-1)/2}
      rec.key[0] = coords_[(b - 1) / 2];
      rec.key[1] = 0;  // left iff x < e
    } else {                   // point e_{b/2-1} | gap
      rec.key[0] = coords_[b / 2 - 1];
      rec.key[1] = 1;  // left iff x <= e
    }
    edit.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 1));
    edit.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 2));
  }

  // Canonical-set insertion: count++ at every maximal node whose leaf range
  // is covered by the interval's piece range.
  auto idx_of = [&](std::int64_t v) {
    return static_cast<std::size_t>(
        std::lower_bound(coords_.begin(), coords_.end(), v) -
        coords_.begin());
  };
  for (const auto& iv : intervals) {
    const std::size_t a = 2 * idx_of(iv.lo) + 1;
    const std::size_t b = 2 * idx_of(iv.hi) + 1;
    // Iterative cover: walk down from the root with a small explicit stack.
    struct Frame {
      std::size_t t, lo, hi;
    };
    std::vector<Frame> stack{{0, 0, leaves - 1}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.hi < a || f.lo > b) continue;
      if (a <= f.lo && f.hi <= b) {
        ++edit.vert(static_cast<Vid>(f.t)).key[2];
        continue;
      }
      const std::size_t mid = (f.lo + f.hi) / 2;
      stack.push_back({2 * f.t + 1, f.lo, mid});
      stack.push_back({2 * f.t + 2, mid + 1, f.hi});
    }
  }
  msearch::validate_graph(g_, "segment-tree");
}

Vid SegmentTree::StabCount::next(const VertexRecord& v, Query& q) const {
  q.acc0 += v.key[2];
  if (v.key[6] == 0) return kNoVertex;
  const bool left =
      v.key[1] ? q.key[0] <= v.key[0] : q.key[0] < v.key[0];
  return v.nbr[left ? 0 : 1];
}

Splitting SegmentTree::alpha_splitting() const {
  Splitting s;
  const std::int32_t d = std::max<std::int32_t>(1, (height_ + 1) / 2);
  s.piece.assign(g_.vertex_count(), 0);
  const std::size_t cut_off = (std::size_t{1} << d) - 1;
  for (std::size_t t = 0; t < g_.vertex_count(); ++t) {
    std::int32_t depth = static_cast<std::int32_t>(mesh::floor_log2(t + 1));
    if (depth < d) continue;
    std::size_t a = t;
    while (depth > d) {
      a = (a - 1) / 2;
      --depth;
    }
    s.piece[t] = 1 + static_cast<std::int32_t>(a - cut_off);
  }
  s.kind.assign(1 + (std::size_t{1} << d), msearch::PieceKind::kTail);
  s.kind[0] = msearch::PieceKind::kHead;
  s.delta = std::log(static_cast<double>(
                std::max<std::size_t>(2, msearch::max_piece_size(s)))) /
            std::log(std::max<double>(2.0,
                                      static_cast<double>(g_.vertex_count())));
  return s;
}

}  // namespace meshsearch::ds
