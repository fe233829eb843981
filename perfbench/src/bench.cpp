#include <unistd.h>

#include <cstdio>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ms = meshsearch;

std::int32_t SpanLog::open(std::string name, std::int64_t id) {
  Span s;
  s.name = std::move(name);
  s.begin_us = now_us();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  spans_.push_back(std::move(s));
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_us = now_us();
  // Scopes close in LIFO order; the stack top is always `idx`.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::int32_t SpanLog::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (!s.async && s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.begin_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) continue;
    out[s.name] += (s.end_us - s.begin_us - child_us[i]) / 1000.0;
  }
  return out;
}

std::map<std::string, double> SpanLog::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    if (!s.async) out[s.name] += (s.end_us - s.begin_us) / 1000.0;
  return out;
}

namespace {

/// "stream.batch 17" -> "stream.batch": per-attempt spans share one row.
std::string collapse_serial(const std::string& name) {
  std::size_t end = name.size();
  while (end > 0 && name[end - 1] >= '0' && name[end - 1] <= '9') --end;
  if (end < name.size() && end > 0 && name[end - 1] == ' ')
    return name.substr(0, end - 1);
  return name;
}

}  // namespace

void import_recorder_spans(SpanLog& log, const ms::trace::TraceRecorder& rec,
                           double rec_epoch_us, std::int32_t parent) {
  std::vector<std::int32_t> stack;  // bench index of the open span per depth
  for (const ms::trace::Span& s : rec.spans()) {
    if (!s.closed) continue;
    while (stack.size() > static_cast<std::size_t>(s.depth)) stack.pop_back();
    Span b;
    b.name = collapse_serial(s.name);
    b.begin_us = rec_epoch_us + s.wall_begin_us;
    b.end_us = rec_epoch_us + s.wall_end_us;
    b.parent = stack.empty() ? parent : stack.back();
    stack.push_back(log.add(std::move(b)));
  }
}

TimedEngine::TimedEngine(ms::service::Engine& inner, SpanLog* log)
    : inner_(inner), log_(log) {
  const std::string prefix =
      std::string("engine.") + ms::msearch::engine_kind_name(inner.kind());
  run_span_ = prefix + ".run_batch";
  refresh_span_ = prefix + ".refresh";
}

ms::msearch::RefreshReport TimedEngine::refresh(
    const ms::msearch::RefreshRequest& req) {
  Scope span(log_, refresh_span_);
  return inner_.refresh(req);
}

ms::msearch::BatchReport TimedEngine::run_batch(
    std::vector<ms::msearch::Query>& batch) {
  Scope span(log_, run_span_);
  const ms::msearch::BatchReport rep = inner_.run_batch(batch);
  ++dispatches_;
  queries_ += batch.size();
  visits_ += rep.visits;
  return rep;
}

std::uint64_t digest(const std::vector<ms::msearch::QueryOutcome>& out) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const auto& o : out) {
    for (const std::uint64_t w :
         {static_cast<std::uint64_t>(o.steps), static_cast<std::uint64_t>(o.acc0),
          static_cast<std::uint64_t>(o.acc1),
          static_cast<std::uint64_t>(o.result)})
      h = ms::util::mix64(h ^ w);
  }
  return h;
}

std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(pages_resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench
