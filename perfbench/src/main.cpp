// perfbench: the wall-clock benchmark program. Runs one workload in this
// process and prints its metrics as the last line of stdout, one JSON
// object. run.py builds this program, runs it and re-emits the line.
//
//   perfbench --workload <stream_locality|service_mixed|service_rw>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with every sink off.
// --trace 1 alternates untraced and traced passes (bench spans plus the
// library's TraceRecorder), then runs one traced pass with a thread per
// core, and prints the per-layer metrics and a table of exclusive time per
// span.
//
// Exit status: 0 when every answer matched the oracle and every
// deterministic count repeated; 1 otherwise (the JSON line still prints,
// with "correct": false); 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/parallel_for.hpp"

namespace {

namespace ms = meshsearch;
using perfbench::Clock;
using perfbench::PassResult;
using perfbench::Tracing;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile of weighted samples (value, count), interpolating linearly
/// between the closest ranks of the expanded sample.
double percentile(std::vector<std::pair<double, std::uint64_t>> v, double p) {
  std::uint64_t n = 0;
  for (const auto& s : v) n += s.second;
  if (n == 0) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const auto at = [&](std::uint64_t rank) {
    for (const auto& [value, count] : v) {
      if (rank < count) return value;
      rank -= count;
    }
    return v.back().first;
  };
  const double a = at(lo), b = at(std::min(lo + 1, n - 1));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// The deterministic fingerprint of a pass: everything but wall time.
struct Fingerprint {
  std::uint64_t offered = 0, answered = 0, failed = 0, digest = 0;
  double charged = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PassResult& p) {
  return {p.offered, p.answered, p.failed, p.answer_digest, p.charged_steps};
}

/// Charged steps per primitive recorded by a traced pass.
std::map<std::string, double> mesh_steps(const ms::trace::TraceRecorder& rec) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < ms::trace::kPrimitiveCount; ++i)
    out[ms::trace::primitive_name(static_cast<ms::trace::Primitive>(i))] = 0;
  for (const auto& [key, stat] : rec.counters())
    out[ms::trace::primitive_name(key.prim)] += stat.steps;
  return out;
}

void write_spans(const std::string& path, const perfbench::SpanLog& log) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  f << "{\"spans\": [\n";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "{\"i\": " << i << ", \"name\": \"" << json_escape(s.name)
      << "\", \"begin_us\": " << s.begin_us << ", \"end_us\": " << s.end_us
      << ", \"parent\": " << s.parent << ", \"id\": " << s.id
      << ", \"async\": " << (s.async ? "true" : "false") << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n";
    return 2;
  }
  std::unique_ptr<perfbench::Workload> w;
  if (args.workload == "stream_locality") {
    w = perfbench::make_stream_locality(args.seed);
  } else if (args.workload == "service_mixed") {
    w = perfbench::make_service_mixed(args.seed);
  } else if (args.workload == "service_rw") {
    w = perfbench::make_service_rw(args.seed);
  } else {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // Engine threads of the timed passes (MESHSEARCH_THREADS), and of the
  // traced run's cross-check pass: one per core.
  const unsigned threads = ms::util::ThreadPool::global().thread_count();
  const unsigned wide = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "perfbench: workload " << args.workload << ", seed "
            << args.seed << ", " << threads << " engine threads, compiler "
            << PERFBENCH_COMPILER << ", build " << PERFBENCH_BUILD_TYPE
            << "\n";

  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  const auto put = [&](const std::string& name, double value,
                       const char* unit) { metrics[name] = {value, unit}; };

  // Set-up: several times, reported as medians; the last one serves.
  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layer;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const perfbench::SetupResult sr = w->setup();
    setup_s.push_back(perfbench::ms_between(t0, Clock::now()) / 1000.0);
    for (const auto& [k, v] : sr.layer) setup_layer[k].push_back(v);
  }
  w->make_inputs();

  // Warm-up: untimed, and the reference every later pass must repeat.
  const auto error = [&](const std::string& e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end())
      errors.push_back(e);
  };
  const PassResult warm = w->pass(nullptr);
  for (const auto& e : warm.errors) error(e);
  const Fingerprint ref = fingerprint(warm);
  const auto check = [&](const PassResult& p, const char* what) {
    for (const auto& e : p.errors) error(e);
    if (!(fingerprint(p) == ref))
      error(std::string(what) +
            " pass differs from the warm-up pass in a deterministic count "
            "(charged steps, answers, or query counts)");
  };

  // Timed passes until --seconds of timed work is spent. A traced run
  // alternates untraced and traced passes, so that both sample the same
  // host conditions and their difference is the tracing overhead.
  //
  // Rates and latency percentiles are taken per pass and reported as
  // medians over the passes, so one pass disturbed by the host moves them
  // little. Update latencies are few per pass and are pooled instead. A
  // pass's samples are dropped as soon as they are summarised, so peak
  // memory does not grow with the number of passes.
  std::vector<double> qps, walls, p50, p99;
  std::vector<std::pair<double, std::uint64_t>> update_latency;
  std::uint64_t offered = 0, failed = 0;
  std::vector<PassResult> traced;
  std::vector<std::map<std::string, double>> selfs, steps;
  std::unique_ptr<Tracing> last;
  double spent = 0;
  while (spent < args.seconds * 1000.0 || walls.size() < 2) {
    const PassResult p = w->pass(nullptr);
    check(p, "an untraced");
    spent += p.wall_ms;
    qps.push_back(static_cast<double>(p.answered) / (p.wall_ms / 1000.0));
    walls.push_back(p.wall_ms);
    p50.push_back(percentile(p.latency_ms, 50));
    p99.push_back(percentile(p.latency_ms, 99));
    for (const double u : p.update_latency_ms) update_latency.emplace_back(u, 1);
    offered += p.offered;
    failed += p.failed;
    if (!args.trace) continue;
    auto tr = std::make_unique<Tracing>();
    traced.push_back(w->pass(tr.get()));
    check(traced.back(), "a traced");
    spent += traced.back().wall_ms;
    traced.back().latency_ms = {};
    selfs.push_back(tr->log.self_ms());
    steps.push_back(mesh_steps(tr->rec));
    last = std::move(tr);
  }
  const double answered = static_cast<double>(warm.answered);
  const double charged_per_query = answered > 0 ? warm.charged_steps / answered : 0;

  std::ostringstream table;
  if (!args.trace) {
    put("qps", median(qps), "queries/s");
    put("latency_p50_ms", median(p50), "ms");
    put("latency_p99_ms", median(p99), "ms");
    put("charged_steps_per_query", charged_per_query, "sim_steps");
    put("setup_s", median(setup_s), "s");
  } else {
    // One traced pass with a thread per core: the determinism cross-check
    // across thread counts, and the per-layer scaling.
    ms::util::ThreadPool::set_global_threads(wide);
    Tracing wide_tr;
    const PassResult wide_pass = w->pass(&wide_tr);
    ms::util::ThreadPool::set_global_threads(threads);
    check(wide_pass, "the multi-thread");
    const auto wide_self = wide_tr.log.self_ms();
    if (mesh_steps(wide_tr.rec) != steps.front())
      error("mesh.steps differ between " + std::to_string(threads) + " and " +
            std::to_string(wide) + " threads");

    double steps_total = 0;
    for (const auto& [prim, s] : steps.front()) {
      put("mesh.steps." + prim, s, "sim_steps");
      steps_total += s;
    }
    for (const auto& s : steps)
      if (s != steps.front())
        error("mesh.steps differ between traced passes");
    if (std::abs(steps_total - warm.charged_steps) >
        1e-9 * std::max(1.0, warm.charged_steps))
      error("mesh.steps do not sum to the charged steps");

    // Per-layer numbers: means over the traced passes; set-up, medians.
    std::map<std::string, double> layer;
    for (const PassResult& p : traced)
      for (const auto& [k, v] : p.layer)
        layer[k] += v / static_cast<double>(traced.size());
    for (const auto& [k, v] : setup_layer) layer[k] = median(v);
    for (const auto& [k, v] : layer) {
      const char* unit = k.ends_with("_ms")              ? "ms"
                         : k.ends_with("_us")            ? "us"
                         : k.ends_with("ns_per_visit")   ? "ns"
                         : k.ends_with("bytes_per_vertex") ? "bytes"
                         : k.ends_with("_frac") || k.ends_with("_fill")
                             ? "ratio"
                             : "count";
      put(k, v, unit);
    }

    std::vector<double> traced_walls;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      traced_walls.push_back(traced[i].wall_ms);
      for (const auto& [k, v] : selfs[i])
        self[k] += v / static_cast<double>(traced.size());
    }
    double traced_wall = 0;
    for (const auto& [k, v] : self) traced_wall += v;
    const double unattributed = self.count("pass") ? self["pass"] : 0.0;
    put("trace.overhead_frac", median(traced_walls) / median(walls) - 1.0,
        "ratio");
    put("trace.unattributed_frac",
        traced_wall > 0 ? unattributed / traced_wall : 0.0, "ratio");
    put("trace.speedup", median(traced_walls) / wide_pass.wall_ms, "ratio");
    put("failed_frac",
        offered > 0 ? static_cast<double>(failed) / static_cast<double>(offered)
                    : 0.0,
        "ratio");
    if (!update_latency.empty()) {
      put("update_latency_p50_ms", percentile(update_latency, 50), "ms");
      put("update_latency_p90_ms", percentile(update_latency, 90), "ms");
    }

    // The attribution table: exclusive ms per span, mean over the traced
    // passes, with the same spans of the multi-thread pass beside it.
    std::vector<std::pair<std::string, double>> rows(self.begin(), self.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    char buf[256];
    const std::string wide_col = std::to_string(wide) + "-thread ms";
    std::snprintf(buf, sizeof buf, "%-44s %12s %7s %12s %8s\n", "layer (span)",
                  "self ms", "share", wide_col.c_str(), "speedup");
    table << "per-layer exclusive wall time, " << args.workload << ", "
          << traced.size() << " traced passes on " << threads
          << " engine thread(s), one on " << wide << "\n"
          << buf;
    for (const auto& [name, ms_self] : rows) {
      const auto it = wide_self.find(name);
      const double wide_ms = it == wide_self.end() ? 0.0 : it->second;
      std::snprintf(buf, sizeof buf, "%-44s %12.3f %6.1f%% %12.3f %8.2f\n",
                    name == "pass" ? "unattributed (bench loop)" : name.c_str(),
                    ms_self, 100.0 * ms_self / traced_wall, wide_ms,
                    wide_ms > 0 ? ms_self / wide_ms : 0.0);
      table << buf;
    }
    std::snprintf(buf, sizeof buf, "%-44s %12.3f %6.1f%% %12.3f %8.2f\n",
                  "total (traced wall)", traced_wall, 100.0, wide_pass.wall_ms,
                  traced_wall / wide_pass.wall_ms);
    table << buf;
    if (!args.spans.empty() && last) write_spans(args.spans, last->log);
  }
  put("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << table.str();

  // Human-readable summary of the untraced passes.
  std::cout << "untraced passes: " << walls.size() << ", "
            << warm.offered << " queries each, median wall "
            << median(walls) << " ms, charged steps/query "
            << charged_per_query << ", failed " << failed << "/" << offered;
  if (!update_latency.empty())
    std::cout << ", update latency p50 " << percentile(update_latency, 50)
              << " ms p90 " << percentile(update_latency, 90) << " ms ("
              << update_latency.size() << " updates)";
  std::cout << "\nuntraced pass walls (ms):";
  for (const double wall : walls) std::cout << " " << wall;
  std::cout << "\n";
  for (const auto& e : errors) std::cout << "ERROR: " << e << "\n";

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (errors.empty() ? "true" : "false")
     << ", \"attempted\": " << offered << ", \"failed\": " << failed
     << ", \"threads\": " << threads << ", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return errors.empty() ? 0 : 1;
}
