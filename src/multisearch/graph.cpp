#include "multisearch/graph.hpp"

#include <algorithm>
#include <atomic>

namespace meshsearch::msearch {

DistributedGraph::DistributedGraph(std::size_t vertex_count)
    : verts_(vertex_count), edit_stamp_(next_edit_stamp()) {
  for (std::size_t i = 0; i < vertex_count; ++i)
    verts_[i].id = static_cast<Vid>(i);
}

std::size_t DistributedGraph::size() const {
  std::size_t edges = 0;
  for (const auto& v : verts_) edges += v.degree;
  return verts_.size() + edges;
}

std::uint64_t DistributedGraph::next_edit_stamp() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

void DistributedGraph::Editor::add_edge(Vid u, Vid w) const {
  auto& verts = g_->verts_;
  MS_CHECK(u >= 0 && static_cast<std::size_t>(u) < verts.size());
  MS_CHECK(w >= 0 && static_cast<std::size_t>(w) < verts.size());
  MS_CHECK_MSG(u != w, "self loop");
  auto& rec = verts[static_cast<std::size_t>(u)];
  MS_CHECK_MSG(rec.degree < kMaxDegree, "degree bound exceeded");
  rec.nbr[rec.degree++] = w;
}

void DistributedGraph::Editor::add_undirected_edge(Vid u, Vid w) const {
  add_edge(u, w);
  add_edge(w, u);
}

bool DistributedGraph::has_edge(Vid u, Vid w) const {
  const auto& rec = vert(u);
  return std::find(rec.nbr.begin(), rec.nbr.begin() + rec.degree, w) !=
         rec.nbr.begin() + rec.degree;
}

mesh::MeshShape DistributedGraph::shape_for(std::size_t queries) const {
  return mesh::MeshShape::for_elements(std::max(verts_.size(), queries));
}

std::size_t DistributedGraph::max_degree() const {
  std::size_t d = 0;
  for (const auto& v : verts_) d = std::max<std::size_t>(d, v.degree);
  return d;
}

void reset_queries(std::vector<Query>& queries) {
  for (auto& q : queries) {
    q.current = kNoVertex;
    q.next = kNoVertex;
    q.steps = 0;
    q.done = false;
    q.acc0 = 0;
    q.acc1 = 0;
    q.state = 0;
    q.prev = kNoVertex;
    q.result = kNoVertex;
  }
}

bool all_done(const std::vector<Query>& queries) {
  for (const auto& q : queries)
    if (!q.done) return false;
  return true;
}

std::int32_t max_steps(const std::vector<Query>& queries) {
  std::int32_t r = 0;
  for (const auto& q : queries) r = std::max(r, q.steps);
  return r;
}

}  // namespace meshsearch::msearch
