#include "trace/stats.hpp"

namespace meshsearch::stats {

namespace {

/// The entry named `name`, appended on first use. Callers hold the mutex.
template <class Entry, class Map>
Entry& entry(std::vector<Entry>& entries, Map& ids, std::string_view name) {
  if (const auto it = ids.find(name); it != ids.end())
    return entries[it->second];
  ids.emplace(std::string(name), entries.size());
  Entry& e = entries.emplace_back();
  e.name = name;
  return e;
}

}  // namespace

void StatsRegistry::set(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  entry(data_.gauges, gauge_ids_, name).value = value;
}

void StatsRegistry::observe(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  entry(data_.histograms, hist_ids_, name).hist.observe(value);
}

Snapshot StatsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

}  // namespace meshsearch::stats
