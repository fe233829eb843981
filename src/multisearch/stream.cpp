#include "multisearch/stream.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "mesh/ops_soa.hpp"

namespace meshsearch::msearch {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kAlg1Paper: return "alg1-paper";
    case EngineKind::kAlg1Geometric: return "alg1-geometric";
    case EngineKind::kAlg2Alpha: return "alg2-alpha";
    case EngineKind::kAlg3AlphaBeta: return "alg3-alpha-beta";
  }
  return "unknown";
}

std::vector<std::vector<std::uint32_t>> plan_batches(
    const std::vector<Query>& stream, const BatchPolicy& policy,
    std::size_t capacity) {
  // Caller error, not a library invariant: a zero-processor mesh cannot
  // serve a batch, so reject it at the front door like every other
  // malformed input (used to be an MS_CHECK).
  if (capacity == 0)
    invalid_input("plan_batches requires a mesh with at least one processor",
                  "plan_batches");
  const std::size_t b = policy.batch_size == 0
                            ? capacity
                            : std::min(policy.batch_size, capacity);
  validate_stream_positions(0, stream.size(), "plan_batches");
  std::vector<std::uint32_t> order(stream.size());
  std::iota(order.begin(), order.end(), 0u);
  if (policy.order == BatchOrder::kLocalityReorder) {
    // LSD radix per window (BatchPolicy::order), the window's slice of
    // `order` as the payload. `order` starts ascending, so the stable passes
    // give exactly the lexicographic stable sort. Sorting a contiguous key
    // copy spares the cache miss per comparison into the 80-byte Query
    // records that a comparator sort pays.
    const std::size_t w = 4 * b;
    mesh::ops::soa::SortScratch scratch;
    std::vector<std::uint64_t> keys;
    for (std::size_t lo = 0; lo < order.size(); lo += w) {
      const std::size_t n = std::min(order.size() - lo, w);
      std::uint32_t* window = order.data() + lo;
      // One sequential pass (the window is still in arrival order) finds
      // the words that vary.
      const auto& first = stream[window[0]].key;
      std::array<bool, 3> varies{};
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t word = 0; word < 3; ++word)
          varies[word] |= stream[window[i]].key[word] != first[word];
      keys.resize(n);
      for (std::size_t word = 3; word-- > 0;) {
        if (!varies[word]) continue;
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = mesh::ops::soa::order_key(stream[window[i]].key[word]);
        mesh::ops::soa::radix_sort_u64(keys.data(), window, n, scratch);
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> batches;
  for (std::size_t lo = 0; lo < order.size(); lo += b) {
    const std::size_t hi = std::min(order.size(), lo + b);
    batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(lo),
                         order.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return batches;
}

BatchSource::BatchSource(const std::vector<Query>& stream,
                         const BatchPolicy& policy, std::size_t capacity) {
  for (auto& b : plan_batches(stream, policy, capacity)) enqueue(std::move(b));
}

void BatchSource::enqueue(std::vector<std::uint32_t> indices) {
  if (indices.empty()) return;
  queries_ += indices.size();
  work_.push_back(PendingBatch{std::move(indices), 0});
}

PendingBatch BatchSource::pop() {
  MS_CHECK_MSG(!work_.empty(), "pop on an empty BatchSource");
  PendingBatch out = std::move(work_.front());
  work_.pop_front();
  queries_ -= out.indices.size();
  return out;
}

PendingBatch BatchSource::pop_upto(std::size_t limit) {
  MS_CHECK_MSG(limit >= 1, "pop_upto requires a positive limit");
  MS_CHECK_MSG(!work_.empty(), "pop_upto on an empty BatchSource");
  PendingBatch out;
  out.replans = work_.front().replans;
  while (!work_.empty() && out.indices.size() < limit &&
         work_.front().replans == out.replans) {
    PendingBatch& front = work_.front();
    const std::size_t take =
        std::min(limit - out.indices.size(), front.indices.size());
    out.indices.insert(out.indices.end(), front.indices.begin(),
                       front.indices.begin() + static_cast<std::ptrdiff_t>(take));
    queries_ -= take;
    if (take == front.indices.size()) {
      work_.pop_front();
    } else {
      front.indices.erase(
          front.indices.begin(),
          front.indices.begin() + static_cast<std::ptrdiff_t>(take));
      break;  // limit reached
    }
  }
  return out;
}

std::vector<std::uint32_t> BatchSource::pop_expired(
    const std::function<bool(std::uint32_t)>& expired) {
  MS_CHECK_MSG(static_cast<bool>(expired),
               "pop_expired requires a predicate");
  std::vector<std::uint32_t> out;
  while (!work_.empty()) {
    PendingBatch& front = work_.front();
    std::size_t take = 0;
    while (take < front.indices.size() && expired(front.indices[take]))
      ++take;
    if (take > 0) {
      out.insert(out.end(), front.indices.begin(),
                 front.indices.begin() + static_cast<std::ptrdiff_t>(take));
      queries_ -= take;
    }
    if (take == front.indices.size()) {
      work_.pop_front();  // whole batch expired (or was empty)
      continue;
    }
    if (take > 0)
      front.indices.erase(
          front.indices.begin(),
          front.indices.begin() + static_cast<std::ptrdiff_t>(take));
    break;  // first live position reached: the expired prefix ends here
  }
  return out;
}

void BatchSource::requeue_split(const PendingBatch& failed, std::size_t cap,
                                RequeueSide side) {
  MS_CHECK_MSG(cap >= 1, "requeue_split requires a positive capacity");
  const std::size_t n = failed.indices.size();
  const std::size_t pieces = (n + cap - 1) / cap;
  for (std::size_t p = 0; p < pieces; ++p) {
    // Prepending walks the pieces last-first so piece 0 ends up in front.
    const std::size_t at =
        (side == RequeueSide::kBack ? p : pieces - 1 - p) * cap;
    PendingBatch piece;
    piece.replans = failed.replans + 1;
    piece.indices.assign(
        failed.indices.begin() + static_cast<std::ptrdiff_t>(at),
        failed.indices.begin() +
            static_cast<std::ptrdiff_t>(std::min(at + cap, n)));
    queries_ += piece.indices.size();
    if (side == RequeueSide::kBack)
      work_.push_back(std::move(piece));
    else
      work_.push_front(std::move(piece));
  }
}

double StreamResult::amortized_steps_per_query() const {
  return queries == 0 ? 0.0
                      : total().steps / static_cast<double>(queries);
}

double StreamResult::queries_per_step() const {
  const double t = total().steps;
  return t <= 0.0 ? 0.0 : static_cast<double>(queries) / t;
}

double StreamResult::setup_fraction() const {
  const double t = total().steps;
  return t <= 0.0 ? 0.0 : setup.steps / t;
}

void finalize_stream(StreamResult& res) {
  res.setup = mesh::Cost{};
  res.inject = mesh::Cost{};
  res.run = mesh::Cost{};
  res.slo.batches = res.batches.size();
  res.slo.degraded_batches = 0;
  res.slo.failed_queries = res.failed_queries.size();
  for (const auto& b : res.batches) {
    res.setup += b.setup;
    res.inject += b.inject;
    res.run += b.run;
    if (b.degraded) ++res.slo.degraded_batches;
  }
}

void record_stream_metrics(trace::TraceRecorder* rec,
                           const StreamResult& res) {
  if (rec == nullptr) return;
  rec->metric("stream.batches", static_cast<double>(res.batches.size()));
  rec->metric("stream.queries", static_cast<double>(res.queries));
  rec->metric("stream.queries_per_step", res.queries_per_step());
  rec->metric("stream.amortized_steps_per_query",
              res.amortized_steps_per_query());
  rec->metric("stream.setup_fraction", res.setup_fraction());
  // The deterministic half of the SLO report: error counts are a pure
  // function of (stream, seed, plan) and belong with the pinned metrics.
  // The wall-clock half (latency / queue-wait percentiles) deliberately does
  // NOT land here — metrics are part of the bit-identity contract (DESIGN §5
  // decision 13); percentiles live in StreamResult::slo and in the
  // wall-histogram section of the exporters, both observability-only.
  rec->metric("stream.degraded_batches",
              static_cast<double>(res.slo.degraded_batches));
  rec->metric("stream.replans", static_cast<double>(res.slo.replans));
  rec->metric("stream.failed_queries",
              static_cast<double>(res.slo.failed_queries));
}

}  // namespace meshsearch::msearch
