// Shared pieces of the wall-clock benchmark: the workload interface that
// main.cpp runs, bench-side spans, and the engine decorator that times the
// service's calls into each warm engine.
//
// Every timer here sits in the benchmark, around a call into one layer of
// the library; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multisearch/query.hpp"
#include "service/engine.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One bench-side span. Nested spans form a tree through `parent`; a
/// lifetime span (`async`, e.g. a burst from submit to its last answer)
/// overlaps the tree and is left out of the self-time attribution.
struct Span {
  std::string name;
  double begin_us = 0;       ///< since the log's epoch
  double end_us = 0;
  std::int32_t parent = -1;  ///< enclosing span's index; -1 = a root
  std::int64_t id = -1;      ///< shared by the spans of one burst; -1 = none
  bool async = false;
};

/// In-memory span log of one traced pass, written out when the run ends.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double now_us() const { return us_since_epoch(Clock::now()); }
  double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Open a span nested in the innermost open one; returns its index.
  std::int32_t open(std::string name, std::int64_t id = -1);
  void close(std::int32_t idx);
  /// Append a finished span whose parent is `parent` (library spans
  /// re-parented under a bench span, burst lifetimes).
  std::int32_t add(Span s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Exclusive time per span name, in ms: each nested span's duration minus
  /// the part its children cover. Lifetime spans are skipped.
  std::map<std::string, double> self_ms() const;
  /// Total duration per span name, in ms (nested spans only).
  std::map<std::string, double> total_ms() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null log makes it a no-op, so untraced passes pay one
/// pointer test per boundary.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, std::int64_t id = -1)
      : log_(log), idx_(log != nullptr ? log->open(name, id) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// The sinks of one traced pass: the bench span log and the library's
/// recorder, created back to back so that their clocks share one zero.
struct Tracing {
  SpanLog log;
  double rec_epoch_us;  ///< bench time at which `rec` started its clock
  meshsearch::trace::TraceRecorder rec;
  Tracing() : rec_epoch_us(log.now_us()) {}
};

/// Re-parent the library recorder's spans (depth-nested, begin-ordered)
/// under bench span `parent`. `rec_epoch` is the bench time at which the
/// recorder was constructed, the zero of its wall clock.
void import_recorder_spans(SpanLog& log, const meshsearch::trace::TraceRecorder& rec,
                           double rec_epoch_us, std::int32_t parent);

// ---------------------------------------------------------------------------
// Timed engine decorator
// ---------------------------------------------------------------------------

/// Counts the service's dispatches into one warm engine and, with a span
/// log armed, times each run_batch and refresh as an `engine.<kind>.*`
/// span. Owns nothing: it forwards every call to the registered engine.
class TimedEngine final : public meshsearch::service::Engine {
 public:
  TimedEngine(meshsearch::service::Engine& inner, SpanLog* log);

  meshsearch::msearch::EngineKind kind() const override { return inner_.kind(); }
  std::size_t capacity() const override { return inner_.capacity(); }
  meshsearch::mesh::Cost setup_cost() const override {
    return inner_.setup_cost();
  }
  std::size_t batches_served() const override {
    return inner_.batches_served();
  }
  const std::string& dataset() const override { return inner_.dataset(); }
  void set_dataset(std::string name) override {
    inner_.set_dataset(std::move(name));
  }
  std::uint64_t structure_generation() const override {
    return inner_.structure_generation();
  }
  std::uint64_t prepared_generation() const override {
    return inner_.prepared_generation();
  }
  bool stale() const override { return inner_.stale(); }
  std::size_t refreshes() const override { return inner_.refreshes(); }
  void bind_sinks(meshsearch::trace::TraceRecorder* trace,
                  meshsearch::mesh::FaultPlan* fault) override {
    inner_.bind_sinks(trace, fault);
  }

  meshsearch::msearch::RefreshReport refresh(
      const meshsearch::msearch::RefreshRequest& req) override;
  meshsearch::msearch::BatchReport run_batch(
      std::vector<meshsearch::msearch::Query>& batch) override;

  std::size_t dispatches() const { return dispatches_; }
  std::size_t queries() const { return queries_; }
  std::size_t visits() const { return visits_; }
  const std::string& run_span() const { return run_span_; }
  const std::string& refresh_span() const { return refresh_span_; }

 private:
  meshsearch::service::Engine& inner_;
  SpanLog* log_;
  std::string run_span_;
  std::string refresh_span_;
  std::size_t dispatches_ = 0;
  std::size_t queries_ = 0;
  std::size_t visits_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one pass measured. Deterministic fields (counts, charged steps,
/// answers) must repeat exactly from pass to pass and across thread counts;
/// main.cpp checks them.
struct PassResult {
  double wall_ms = 0;            ///< the timed region
  std::uint64_t offered = 0;     ///< queries offered
  std::uint64_t answered = 0;    ///< queries answered
  std::uint64_t failed = 0;      ///< failed + shed + rejected
  double charged_steps = 0;      ///< inject + run + refresh charged in the pass
  std::uint64_t answer_digest = 0;  ///< hash of every answer, in ticket order
  /// Per-query latency as (ms, queries that saw it): a stream batch
  /// answers all of its queries at once.
  std::vector<std::pair<double, std::uint64_t>> latency_ms;
  std::vector<double> update_latency_ms;  ///< per applied update
  /// Per-layer numbers (traced passes only), named as in BENCHMARK.json.
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  ///< oracle mismatches found after the pass
};

/// Per-layer numbers of one set-up.
struct SetupResult {
  std::map<std::string, double> layer;  ///< datastruct.build_ms, engine.*.setup_ms, ...
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the structures and prepare the warm engines. Called
  /// several times (set-up time is reported as a median); the last call's
  /// engines serve the passes.
  virtual SetupResult setup() = 0;
  /// Generate the pass inputs from the seed and the answers the oracle
  /// expects. Untimed.
  virtual void make_inputs() = 0;
  /// One pass. With `tr` set the pass is traced: bench spans go to its log
  /// and the library's charges and spans to its recorder. Answers are
  /// checked against the oracle after the timed region.
  virtual PassResult pass(Tracing* tr) = 0;
};

/// The structures are fixed data sets, and the traffic has a fixed shape
/// (burst sizes and update sizes, in order), whatever the run's seed; the
/// run's seed drives the content: query keys, updated keys and weights,
/// fault draws. Set-up work then does not vary from seed to seed, and the
/// tail of the service latency, which a handful of bursts caught behind
/// updates decide, varies little.
inline constexpr std::uint64_t kDatasetSeed = 0x5eed;
inline constexpr std::uint64_t kShapeSeed = 0x54a9e;

/// The three workloads; `seed` drives their inputs.
std::unique_ptr<Workload> make_stream_locality(std::uint64_t seed);
std::unique_ptr<Workload> make_service_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_service_rw(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Order-sensitive hash of query outcomes (answers in ticket order).
std::uint64_t digest(const std::vector<meshsearch::msearch::QueryOutcome>& out);

/// Resident set size of this process now, in bytes (0 when unavailable).
std::size_t rss_bytes();

}  // namespace perfbench
