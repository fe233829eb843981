// Runtime observability: a locked registry of named gauges and log-bucketed
// wall-clock histograms.
//
// The charged-cost trace layer (trace/trace.hpp) records what the paper's
// model PREDICTS; this registry holds what a run reports beside it — the
// named metrics (TraceRecorder::metric) and wall-clock phase and batch
// latencies (TraceRecorder::stat_observe). Every count has one owner in
// code (a TenantSession field, CircuitBreaker::counters(), StreamResult::slo)
// and reaches the registry once, as a gauge. Only gauges, charged costs,
// outcomes and attribution are part of the 1-vs-8-thread bit-identity
// contract (DESIGN.md §5, decision 13): wall-clock histograms are
// observability only and may differ between runs.
//
// Design:
//   * One mutex guards both instrument kinds. Each kind is an
//     insertion-ordered vector found through a name map, so snapshot() is a
//     copy in registration order (deterministic given a deterministic
//     registration sequence). Updates are phase-end granularity: one lock
//     per set/observe.
//   * Percentile math is util::LogHistogram (util/stats.hpp) — the single
//     implementation shared with the bench harness and SLO reports.
//
// Each TraceRecorder owns one registry (TraceRecorder::stats()), and every
// exporter reads it from there.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace meshsearch::stats {

/// Point-in-time view of a registry; entries appear in registration order.
struct GaugeSnapshot {
  std::string name;
  double value = 0;
};
struct HistogramSnapshot {
  std::string name;
  util::LogHistogram hist;
};
struct Snapshot {
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Set (registering on first use) the gauge `name`.
  void set(std::string_view name, double value);
  /// Record one observation into the histogram `name`.
  void observe(std::string_view name, double value);

  /// Copy of every instrument, registration order. Safe to call
  /// concurrently with updates.
  Snapshot snapshot() const;

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameMap =
      std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>;

  mutable std::mutex mu_;  ///< guards data_ and both name maps
  Snapshot data_;
  NameMap gauge_ids_, hist_ids_;
};

}  // namespace meshsearch::stats
