// Closed-loop clients for the service workloads.
//
// Each tenant has a fixed set of logical clients. A client issues its next
// operation only when its previous one has finished: a read burst when
// every query of its outstanding burst has been answered, an update when
// the pump that applied its previous update has returned. The loop is
// driven from one thread and reacts only to completions, never to wall
// time, so what each pass does -- admissions, batching, charged steps --
// is a function of the inputs alone and repeats exactly; only its wall
// time varies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mesh/fault.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One client operation: a read burst (index into TenantPlan::bursts) or an
/// update (index into the update list the pass builds).
struct ClientOp {
  bool update = false;
  std::uint32_t index = 0;
};

/// Which structure state a tenant's answers must be checked against.
enum class StateOf : std::uint8_t {
  kNone,              ///< read-only structure
  kUpdatesSubmitted,  ///< the tenant's own updates submitted before the
                      ///< burst (its read-your-writes barrier)
  kGenerationAtAnswer,  ///< the structure's generation stamp when the query
                        ///< was answered (a tenant with no barrier)
};

struct TenantPlan {
  std::string name;
  meshsearch::service::Engine* engine = nullptr;
  meshsearch::service::TenantQuota quota;
  std::vector<std::vector<meshsearch::msearch::Query>> bursts;
  std::vector<std::vector<ClientOp>> clients;
  StateOf state = StateOf::kNone;
  /// Armed when any probability is set: a fresh plan per pass, so every
  /// pass draws the same faults.
  meshsearch::mesh::FaultConfig fault;
};

/// What one tenant's queries came back with, in ticket order.
struct TenantAnswers {
  std::vector<meshsearch::msearch::QueryOutcome> outcomes;
  std::vector<std::uint8_t> done;     ///< 1 = answered (kDone)
  std::vector<std::uint32_t> burst;   ///< burst index per ticket
  std::vector<std::uint32_t> offset;  ///< position within that burst
  std::vector<std::uint64_t> state;   ///< see StateOf; 0 under kNone
  meshsearch::service::TenantReport report;
  std::uint64_t fault_retries = 0;
};

struct LoopResult {
  PassResult pass;
  std::vector<TenantAnswers> tenants;
};

/// Run every client of every tenant to the end of its operation list on a
/// fresh ServiceScheduler over the (warm) engines. `updates[i]` is the
/// mutation behind update op i. With `tr` set, the service's calls are
/// timed as spans and the library's charges go to its recorder. Fills
/// every PassResult field except answer checks and `answer_digest`.
LoopResult run_closed_loop(const std::vector<TenantPlan>& plans,
                           const std::vector<meshsearch::service::UpdateFn>& updates,
                           Tracing* tr);

/// `count` burst sizes spread evenly over [lo, hi], in an order drawn from
/// `rng`. Every client's bursts add up to the same total.
std::vector<std::size_t> burst_sizes(std::size_t count, std::size_t lo,
                                     std::size_t hi, meshsearch::util::Rng& rng);

/// Compare each tenant's answers with the oracle's; `expected(t, burst,
/// state)` gives the oracle outcomes of a whole burst of tenant t in that
/// structure state. Mismatches are appended to `pass.errors`, and the
/// digest of all answers is stored in `pass.answer_digest`.
void check_answers(
    LoopResult& res,
    const std::function<const std::vector<meshsearch::msearch::QueryOutcome>&(
        std::size_t, std::uint32_t, std::uint64_t)>& expected);

}  // namespace perfbench
