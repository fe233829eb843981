#include "service_loop.hpp"

#include <deque>
#include <utility>

#include "util/error.hpp"

namespace perfbench {

namespace ms = meshsearch;
using ms::msearch::Query;
using ms::service::Engine;

namespace {

struct ClientState {
  std::size_t next = 0;       ///< next op in the client's list
  std::size_t remaining = 0;  ///< unanswered queries of its burst
};

struct TenantState {
  ms::service::TenantSession* session = nullptr;
  std::unique_ptr<ms::mesh::FaultPlan> fault;
  std::vector<ClientState> clients;
  std::vector<std::vector<Query>> bursts;  ///< this pass's copies
  std::vector<Clock::time_point> burst_submit;
  // Per ticket, filled at submit.
  std::vector<std::uint32_t> ticket_client;
  std::vector<std::uint32_t> ticket_burst;
  std::vector<std::uint32_t> ticket_offset;
  std::vector<std::uint64_t> ticket_state;
  /// Updates submitted and not yet seen applied: (client, submit time).
  std::deque<std::pair<std::uint32_t, Clock::time_point>> pending_updates;
  std::size_t updates_seen = 0;
};

}  // namespace

LoopResult run_closed_loop(const std::vector<TenantPlan>& plans,
                           const std::vector<ms::service::UpdateFn>& updates,
                           Tracing* tr) {
  LoopResult out;
  PassResult& pass = out.pass;
  SpanLog* log = tr != nullptr ? &tr->log : nullptr;
  std::vector<TenantState> ts(plans.size());
  std::vector<std::pair<std::size_t, std::uint32_t>> ready;  // (tenant, client)
  std::size_t submits = 0;

  // Traced passes route every tenant through one decorator per engine.
  std::vector<std::pair<Engine*, std::unique_ptr<TimedEngine>>> timed;
  const auto engine_for = [&](Engine* e) -> Engine& {
    if (tr == nullptr) return *e;
    for (auto& [inner, te] : timed)
      if (inner == e) return *te;
    timed.emplace_back(e, std::make_unique<TimedEngine>(*e, log));
    return *timed.back().second;
  };

  ms::service::ServiceScheduler sched(ms::service::ServiceConfig{},
                                      tr != nullptr ? &tr->rec : nullptr);
  for (std::size_t ti = 0; ti < plans.size(); ++ti) {
    const TenantPlan& plan = plans[ti];
    TenantState& s = ts[ti];
    s.session =
        &sched.add_tenant(plan.name, engine_for(plan.engine), plan.quota);
    const ms::mesh::FaultConfig& fc = plan.fault;
    if (fc.p_phase > 0 || fc.p_corrupt > 0 || fc.p_stall > 0 || fc.p_drop > 0) {
      s.fault = std::make_unique<ms::mesh::FaultPlan>(fc);
      s.session->set_fault(s.fault.get());
    }
    s.clients.resize(plan.clients.size());
    s.bursts = plan.bursts;
    s.burst_submit.resize(plan.bursts.size());
    std::size_t tickets = 0;
    for (const auto& ops : plan.clients)
      for (const ClientOp& op : ops)
        if (!op.update) tickets += plan.bursts[op.index].size();
    s.ticket_client.reserve(tickets);
    s.ticket_burst.reserve(tickets);
    s.ticket_offset.reserve(tickets);
    s.ticket_state.reserve(tickets);
    pass.latency_ms.reserve(pass.latency_ms.size() + tickets);
    s.session->on_complete([&, ti](const ms::service::CompletionEvent& ev) {
      const Clock::time_point now = Clock::now();
      TenantState& st = ts[ti];
      const std::uint32_t b = st.ticket_burst[ev.ticket];
      if (!ev.failed && !ev.shed)
        pass.latency_ms.emplace_back(ms_between(st.burst_submit[b], now), 1);
      if (plans[ti].state == StateOf::kGenerationAtAnswer)
        st.ticket_state[ev.ticket] = plans[ti].engine->structure_generation();
      const std::uint32_t c = st.ticket_client[ev.ticket];
      if (--st.clients[c].remaining == 0) {
        ready.emplace_back(ti, c);
        if (log != nullptr) {
          Span life;
          life.name = "burst";
          life.begin_us = log->us_since_epoch(st.burst_submit[b]);
          life.end_us = log->us_since_epoch(now);
          life.id = static_cast<std::int64_t>(ti << 32 | b);
          life.async = true;
          log->add(std::move(life));
        }
      }
    });
  }

  const auto issue = [&](std::size_t ti, std::uint32_t c) {
    const TenantPlan& plan = plans[ti];
    TenantState& s = ts[ti];
    ClientState& cs = s.clients[c];
    if (cs.next >= plan.clients[c].size()) return;  // client finished
    const ClientOp op = plan.clients[c][cs.next++];
    if (op.update) {
      s.pending_updates.emplace_back(c, Clock::now());
      Scope span(log, "service.submit_update");
      s.session->submit_update(updates[op.index]);
      return;
    }
    std::vector<Query>& qs = s.bursts[op.index];
    const std::size_t n = qs.size();
    const std::uint64_t state = plan.state == StateOf::kUpdatesSubmitted
                                    ? s.session->updates_submitted()
                                    : 0;
    for (std::size_t k = 0; k < n; ++k) {
      s.ticket_client.push_back(c);
      s.ticket_burst.push_back(op.index);
      s.ticket_offset.push_back(static_cast<std::uint32_t>(k));
      s.ticket_state.push_back(state);
    }
    cs.remaining = n;
    pass.offered += n;
    ++submits;
    s.burst_submit[op.index] = Clock::now();
    try {
      Scope span(log, "service.submit",
                 static_cast<std::int64_t>(ti << 32 | op.index));
      s.session->submit(std::move(qs));
    } catch (const ms::Error&) {
      // Refused whole (quota or backpressure): counted as failed by the
      // tenant report; the client moves on to its next operation.
      s.ticket_client.resize(s.ticket_client.size() - n);
      s.ticket_burst.resize(s.ticket_burst.size() - n);
      s.ticket_offset.resize(s.ticket_offset.size() - n);
      s.ticket_state.resize(s.ticket_state.size() - n);
      cs.remaining = 0;
      ready.emplace_back(ti, c);
    }
  };

  const Clock::time_point t0 = Clock::now();
  const std::int32_t root = log != nullptr ? log->open("pass") : -1;
  for (std::size_t ti = 0; ti < plans.size(); ++ti)
    for (std::uint32_t c = 0; c < plans[ti].clients.size(); ++c) issue(ti, c);
  std::vector<std::pair<std::size_t, std::uint32_t>> now_ready;
  while (!sched.idle() || !ready.empty()) {
    if (!sched.idle()) {
      Scope span(log, "service.pump");
      sched.pump();
    }
    const Clock::time_point pumped = Clock::now();
    for (std::size_t ti = 0; ti < ts.size(); ++ti) {
      TenantState& s = ts[ti];
      for (const std::size_t applied = s.session->updates_applied();
           s.updates_seen < applied; ++s.updates_seen) {
        const auto [c, submitted] = s.pending_updates.front();
        s.pending_updates.pop_front();
        pass.update_latency_ms.push_back(ms_between(submitted, pumped));
        ready.emplace_back(ti, c);
      }
    }
    now_ready.swap(ready);
    for (const auto& [ti, c] : now_ready) issue(ti, c);
    now_ready.clear();
  }
  if (log != nullptr) log->close(root);
  pass.wall_ms = ms_between(t0, Clock::now());

  // Untimed from here: collect the answers and the accounting.
  for (std::size_t ti = 0; ti < ts.size(); ++ti) {
    TenantState& s = ts[ti];
    TenantAnswers a;
    const std::size_t n = s.session->submitted();
    std::vector<Query> answers(n);
    a.done.resize(n, 0);
    for (std::size_t t = 0; t < n; ++t) {
      if (s.session->poll(t) != ms::service::QueryState::kDone) continue;
      answers[t] = s.session->result(t);
      a.done[t] = 1;
    }
    a.outcomes = ms::msearch::outcomes(answers);
    a.burst = std::move(s.ticket_burst);
    a.offset = std::move(s.ticket_offset);
    a.state = std::move(s.ticket_state);
    a.report = s.session->report();
    a.fault_retries = s.fault != nullptr ? s.fault->stats().phase_retries : 0;
    pass.answered += a.report.completed;
    pass.failed += a.report.failed_queries + a.report.shed +
                   a.report.rejected_queries;
    pass.charged_steps += a.report.charged().steps;
    out.tenants.push_back(std::move(a));
  }

  if (tr != nullptr) {
    const auto total = log->total_ms();
    const auto self = log->self_ms();
    const auto get = [](const std::map<std::string, double>& m,
                        const std::string& k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    auto& L = pass.layer;
    L["service.pump_ms"] = get(total, "service.pump");
    L["service.self_ms"] = get(self, "service.pump");
    L["service.submit_us"] =
        submits > 0 ? 1000.0 * get(total, "service.submit") /
                          static_cast<double>(submits)
                    : 0.0;
    double dispatches = 0, fill = 0;
    for (const auto& [inner, te] : timed) {  // one engine per kind here
      const std::string k =
          std::string("engine.") + ms::msearch::engine_kind_name(te->kind());
      const double run_ms = get(total, te->run_span());
      const auto visits = static_cast<double>(te->visits());
      L[k + ".run_ms"] = run_ms;
      L[k + ".visits"] = visits;
      L[k + ".ns_per_visit"] = visits > 0 ? run_ms * 1e6 / visits : 0.0;
      L[k + ".refresh_ms"] = get(total, te->refresh_span());
      dispatches += static_cast<double>(te->dispatches());
      fill += static_cast<double>(te->queries()) /
              static_cast<double>(te->capacity());
    }
    L["service.dispatches"] = dispatches;
    L["service.batch_fill"] = dispatches > 0 ? fill / dispatches : 0.0;
    double incremental = 0, full = 0, retries = 0;
    for (const TenantAnswers& a : out.tenants) {
      incremental += static_cast<double>(a.report.incremental_refreshes);
      full += static_cast<double>(a.report.full_refreshes);
      retries += static_cast<double>(a.fault_retries);
    }
    L["engine.refresh_incremental"] = incremental;
    L["engine.refresh_full"] = full;
    L["mesh.fault.retries"] = retries;
  }
  return out;
}

std::vector<std::size_t> burst_sizes(std::size_t count, std::size_t lo,
                                     std::size_t hi, ms::util::Rng& rng) {
  std::vector<std::size_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i)
    sizes[i] = count == 1 ? lo : lo + (hi - lo) * i / (count - 1);
  for (std::size_t i = count; i > 1; --i)
    std::swap(sizes[i - 1], sizes[rng.uniform(i)]);
  return sizes;
}

void check_answers(
    LoopResult& res,
    const std::function<const std::vector<ms::msearch::QueryOutcome>&(
        std::size_t, std::uint32_t, std::uint64_t)>& expected) {
  std::uint64_t h = 0;
  for (std::size_t ti = 0; ti < res.tenants.size(); ++ti) {
    const TenantAnswers& a = res.tenants[ti];
    std::vector<ms::msearch::QueryOutcome> want, got;
    want.reserve(a.outcomes.size());
    got.reserve(a.outcomes.size());
    for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
      if (a.done[t] == 0) continue;  // failed, counted, never compared
      want.push_back(expected(ti, a.burst[t], a.state[t])[a.offset[t]]);
      got.push_back(a.outcomes[t]);
    }
    const std::string diff = ms::msearch::diff_outcomes(want, got);
    if (!diff.empty())
      res.pass.errors.push_back("tenant " + a.report.tenant +
                                ": answer differs from the oracle: " + diff);
    h = ms::util::mix64(h ^ digest(a.outcomes));
  }
  res.pass.answer_digest = h;
}

}  // namespace perfbench
