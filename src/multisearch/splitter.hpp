// Delta-splitters and splittings (paper §4.1–§4.3).
//
// A splitter S is a set of edges whose removal breaks G into pieces of size
// O(n^delta); a Splitting records, per vertex, which piece it landed in.
// Pieces of an alpha-splitting of a *directed* graph are typed: every edge
// of S leaves an H ("head-side") piece and enters a T ("tail-side") piece
// (paper §4.2). Alpha-beta splittings of undirected graphs are untyped but
// come in pairs whose borders are Omega(log n) apart (§4.3).
#pragma once

#include <cstdint>
#include <vector>

#include "multisearch/graph.hpp"

namespace meshsearch::msearch {

enum class PieceKind : std::int8_t { kPlain = 0, kHead = 1, kTail = 2 };

struct Splitting {
  std::vector<std::int32_t> piece;  ///< piece id per vertex; -1 = in no piece
  std::vector<PieceKind> kind;      ///< per piece
  double delta = 0.5;               ///< claimed exponent: |G_i| = O(n^delta)

  std::size_t num_pieces() const { return kind.size(); }
};

/// Vertex count of each piece.
std::vector<std::size_t> piece_sizes(const Splitting& s);

/// Largest piece (vertex count).
std::size_t max_piece_size(const Splitting& s);

/// Check the alpha-partitionable property (§4.2): every vertex belongs to a
/// piece, and every cross-piece (splitter) edge goes from a kHead piece to a
/// kTail piece. Throws with a diagnostic on violation.
void validate_alpha_splitting(const DistributedGraph& g, const Splitting& s);

/// Border vertices of a splitting: endpoints of cross-piece edges.
std::vector<Vid> border_vertices(const DistributedGraph& g, const Splitting& s);

/// Shortest undirected graph distance between the borders of s1 and s2
/// (multi-source BFS). Returns a value > limit early once that is certain.
std::size_t border_distance(const DistributedGraph& g, const Splitting& s1,
                            const Splitting& s2, std::size_t limit);

/// Normalize a splitting (§4.1/§4.5): greedily merge pieces of the same
/// kind so that every group has vertex count <= cap while keeping groups as
/// full as possible, giving k = O(n^{1-delta}) groups. A single piece larger
/// than cap keeps its own group (its size is the caller's contract).
Splitting normalize_splitting(const Splitting& s, std::size_t cap);

}  // namespace meshsearch::msearch
