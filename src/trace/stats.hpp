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
//   * A disabled registry does NO work: updates return after one relaxed
//     load, nothing is registered, snapshot() is empty.
//   * Percentile math is util::LogHistogram (util/stats.hpp) — the single
//     implementation shared with the bench harness and SLO reports.
//
// The process-global registry (stats::global()) starts enabled iff the
// MESHSEARCH_STATS environment variable is truthy ("1", "true", "on", ...);
// TraceRecorder mirrors its gauges and histograms there so one env flag
// lights up end-of-run summaries (examples/example_main.hpp) without any
// wiring.
#pragma once

#include <atomic>
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
  explicit StatsRegistry(bool enabled = true) : enabled_(enabled) {}
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Set (registering on first use) the gauge `name`.
  void set(std::string_view name, double value);
  /// Record one observation into the histogram `name`.
  void observe(std::string_view name, double value);

  /// Copy of every instrument, registration order. Safe to call
  /// concurrently with updates.
  Snapshot snapshot() const;

  /// Process-wide registry, initially enabled iff MESHSEARCH_STATS is truthy.
  static StatsRegistry& global();

  /// True when MESHSEARCH_STATS is set to a truthy value (read per call).
  static bool env_enabled();

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameMap =
      std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>;

  std::atomic<bool> enabled_;
  mutable std::mutex mu_;  ///< guards data_ and both name maps
  Snapshot data_;
  NameMap gauge_ids_, hist_ids_;
};

}  // namespace meshsearch::stats
