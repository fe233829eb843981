// Static 2-3 trees on the mesh.
//
// The paper contrasts its mesh techniques with Paul, Vishkin & Wagener's
// EREW-PRAM parallel dictionaries on 2-3 trees [PVS83] (§1): that solution
// leans on a linear order of the keys, which the mesh algorithms must not
// assume. This module provides the classic 2-3 tree itself as a
// DistributedGraph so that the same batched searches the PRAM work targets
// run through Algorithm 2 here: every internal node has 2 or 3 children,
// all leaves at equal depth, keys in the leaves.
//
// Payload layout: internal nodes key[0..1] = separators (minimum key of
// children 1 and 2), key[6] = child count; leaves key[0] = key,
// key[6] = 0. nbr[0..nc-1] = children, level = depth.
#pragma once

#include <cstdint>
#include <vector>

#include "multisearch/graph.hpp"
#include "multisearch/splitter.hpp"

namespace meshsearch::ds {

using msearch::DistributedGraph;
using msearch::Query;
using msearch::Splitting;
using msearch::VertexRecord;
using msearch::Vid;
using msearch::kNoVertex;

class TwoThreeTree {
 public:
  /// keys must be sorted and unique, at least one.
  explicit TwoThreeTree(const std::vector<std::int64_t>& keys);

  const DistributedGraph& graph() const { return g_; }
  Vid root() const { return root_; }
  std::int32_t height() const { return height_; }

  /// Membership/predecessor search: q.key[0] = x. Result: q.result = leaf,
  /// q.acc0 = 1 if x is in the dictionary else 0, q.acc1 = predecessor key
  /// (INT64_MIN if none).
  struct Lookup {
    Vid root;
    Vid start(Query&) const { return root; }
    Vid next(const VertexRecord& v, Query& q) const;
  };
  Lookup lookup() const { return Lookup{root_}; }

  /// Alpha-splitting at half height (2-3 trees are the Figure 2 class with
  /// fan-out 2..3).
  Splitting alpha_splitting() const;

 private:
  DistributedGraph g_;
  Vid root_ = kNoVertex;
  std::int32_t height_ = 0;
};

}  // namespace meshsearch::ds
