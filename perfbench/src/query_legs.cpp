// Query phase: cold open -> first reply, then the seeded mix through
// closed-loop in-process callers on three legs -- the unsharded
// QueryEngine (graph), ShardedQueryEngine over the warm store
// (sharded), and the same store under a budget below its decoded size
// (ooc) -- followed by the checks against the reference module.
#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "pipeline.h"
#include "query/wire.h"
#include "reference.h"
#include "spans.h"

namespace perfbench {

namespace q = inspector::query;
namespace shard = inspector::shard;
using inspector::cpg::NodeId;

namespace {

std::array<std::uint64_t, kKindCount> registry_query_totals() {
  std::array<std::uint64_t, kKindCount> totals{};
  const auto snap = inspector::obs::Registry::global().snapshot();
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const std::string name =
        std::string("query_total{kind=\"") + kKinds[k] + "\"}";
    for (const auto& series : snap.series) {
      if (series.name == name) totals[k] = series.counter_value;
    }
  }
  return totals;
}

template <typename T>
bool contains(const std::vector<T>& sorted, T value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

}  // namespace

void Pipeline::query_begin() {
  totals_before_ = registry_query_totals();
  issued_ = {};
  first_reply_ms_.clear();
  graph_rounds_ = {};
  sharded_rounds_ = {};
  ooc_us_.assign(ooc_round_.size(), {});
}

void Pipeline::first_reply() {
  const std::size_t kCriticalPath = kind_of(q::CriticalPathQuery{});
  const std::string expected = q::wire::serialize_reply(
      1, graph_engine_->run(q::CriticalPathQuery{}, {.skip_cache = true}));
  ++issued_[kCriticalPath];
  for (std::size_t rep = 0; rep < kFirstReplyReps; ++rep) {
    ++ops_.attempted;
    Span root("query.first_reply", {}, tracer::next_op());
    const auto t0 = Clock::now();
    auto store = [&] {
      Span s("shard.open");
      return shard::ShardStore::open(store_dir_);
    }();
    if (!store.ok()) {
      ++ops_.failed;
      checks_.expect(false, "store reopen failed: " + store.status().message());
      continue;
    }
    shard::ShardedQueryEngine engine(std::move(store).value());
    const auto reply = engine.run(q::CriticalPathQuery{});
    first_reply_ms_.push_back(ms_since(t0));
    ++issued_[kCriticalPath];
    if (!reply.ok()) ++ops_.failed;
    checks_.expect(q::wire::serialize_reply(1, reply) == expected,
                   "first reply differs from the graph engine's");
  }

  if (tracer::enabled()) {
    // Cold per-shard loads: read, decompress, decode.
    auto store = shard::ShardStore::open(store_dir_);
    if (store.ok()) {
      for (std::uint32_t i = 0; i < (*store)->manifest().shard_count; ++i) {
        Span s("shard.load");
        (void)(*store)->load(i);
      }
    }
  }
}

void Pipeline::leg_round(const char* name, q::QueryEngine& engine,
                         RoundSamples& out) {
  // One pass over the mix, split between the callers (caller c takes
  // entries c, c + kCallers, ...), which meet at its end. The leg
  // reports the quiet end of its rounds' rates and latency quantiles,
  // so a burst of outside load moves a few rounds, not the metric.
  const std::string prefix = std::string("query.") + name + ".";
  std::array<std::vector<double>, kCallers> lat;
  std::array<std::array<std::uint64_t, kKindCount>, kCallers> issued{};
  std::array<std::uint64_t, kCallers> failed{};
  const auto caller = [&](unsigned c) {
    for (std::size_t i = c; i < mix_.queries.size(); i += kCallers) {
      const q::Query& query = mix_.queries[i];
      const std::size_t kind = kind_of(query);
      const auto t0 = Clock::now();
      bool ok = false;
      {
        Span s(prefix, kKinds[kind], tracer::next_op());
        ok = engine.run(query).ok();
      }
      lat[c].push_back(us_since(t0));
      ++issued[c][kind];
      if (!ok) ++failed[c];
    }
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kCallers; ++c) threads.emplace_back(caller, c);
  for (auto& t : threads) t.join();
  const double wall_s = ms_since(t0) / 1e3;
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  out.qps.push_back(static_cast<double>(all.size()) / wall_s);
  out.p50.push_back(quantile(all, 0.5));
  out.p99.push_back(quantile(all, 0.99));
  ops_.attempted += all.size();
  for (unsigned c = 0; c < kCallers; ++c) {
    for (std::size_t k = 0; k < kKindCount; ++k) issued_[k] += issued[c][k];
    ops_.failed += failed[c];
  }
}

void Pipeline::ooc_round(bool heavy) {
  // The same few queries repeat every round, so the result cache is
  // bypassed here; otherwise every round after the first is all hits.
  const q::QueryOptions no_cache{.page_size = 0, .skip_cache = true};
  const std::size_t begin = heavy ? 0 : kOocHeavy;
  const std::size_t end = heavy ? kOocHeavy : ooc_round_.size();
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t k = kind_of(ooc_round_[i]);
    const std::uint64_t loads_before = ooc_store_->stats().loads;
    const auto t0 = Clock::now();
    const auto reply = [&] {
      Span s("query.ooc.", kKinds[k], tracer::next_op());
      return ooc_engine_->run(ooc_round_[i], no_cache);
    }();
    ooc_us_[i].push_back(us_since(t0));
    ooc_loads_[k] += ooc_store_->stats().loads - loads_before;
    ++ooc_calls_[k];
    ++issued_[k];
    ++ops_.attempted;
    if (!reply.ok()) ++ops_.failed;
    checks_.expect(q::wire::serialize_reply(i + 1, reply) == ooc_expected_[i],
                   std::string("ooc reply differs from graph reply for ") +
                       kKinds[k]);
  }
}

void Pipeline::query_report(MetricSink& e2e) {
  e2e.put("first_reply_ms", quiet_time(first_reply_ms_), "ms");
  for (const auto& [name, rounds] :
       {std::pair<std::string, const RoundSamples*>{"graph", &graph_rounds_},
        {"sharded", &sharded_rounds_}}) {
    e2e.put(name + "_qps", quiet_rate(rounds->qps), "1/s");
    e2e.put(name + "_p50_us", quiet_time(rounds->p50), "us");
    // Each round is kMixSize >= 1000 calls: ten beyond its p99.
    e2e.put(name + "_p99_us", quiet_time(rounds->p99), "us");
  }
  // Each ooc query's quiet-end latency over its rounds; the rate is the
  // round's queries over the sum of those.
  std::vector<double> quiet;
  double round_s = 0;
  for (const auto& v : ooc_us_) {
    quiet.push_back(quiet_time(v));
    round_s += quiet.back() / 1e6;
  }
  e2e.put("ooc_qps", static_cast<double>(quiet.size()) / round_s, "1/s");
  e2e.put("ooc_p50_us", median(quiet), "us");
  const auto st = ooc_store_->stats();
  checks_.expect(st.peak_cache_bytes <= ooc_budget_,
                 "ooc peak_cache_bytes " + std::to_string(st.peak_cache_bytes) +
                     " exceeds the budget " + std::to_string(ooc_budget_));

  const auto after = registry_query_totals();
  for (std::size_t k = 0; k < kKindCount; ++k) {
    checks_.expect(after[k] - totals_before_[k] == issued_[k],
                   std::string("registry query_total{kind=") + kKinds[k] +
                       "} moved by " +
                       std::to_string(after[k] - totals_before_[k]) +
                       ", the phase issued " + std::to_string(issued_[k]));
  }
}

void Pipeline::query_checks() {
  const Reference ref(graph_->nodes(), graph_->edges());
  const q::QueryOptions no_cache{.page_size = 0, .skip_cache = true};
  constexpr std::size_t kSamplesPerKind = 4;
  std::array<std::size_t, kKindCount> sampled{};
  for (std::size_t i = 0; i < mix_.queries.size(); ++i) {
    const q::Query& query = mix_.queries[i];
    const std::size_t kind = kind_of(query);
    if (mix_.repeat[i] || sampled[kind] >= kSamplesPerKind) continue;
    ++sampled[kind];
    const auto reply = graph_engine_->run(query, no_cache);
    if (!reply.ok()) {
      checks_.expect(false, std::string("reference sample failed: ") +
                                kKinds[kind] + ": " + reply.status().message());
      continue;
    }
    const std::string what = std::string("reference disagrees on ") +
                             kKinds[kind] + " (mix entry " +
                             std::to_string(i) + ")";
    const q::QueryResult& result = reply->result;
    if (const auto* b = std::get_if<q::BackwardSliceQuery>(&query)) {
      checks_.expect(std::get<q::NodeListResult>(result).nodes ==
                         ref.backward_slice(b->node),
                     what);
    } else if (const auto* f = std::get_if<q::ForwardSliceQuery>(&query)) {
      checks_.expect(std::get<q::NodeListResult>(result).nodes ==
                         ref.forward_slice(f->node),
                     what);
    } else if (const auto* lw = std::get_if<q::LatestWritersQuery>(&query)) {
      auto edges = std::get<q::EdgeListResult>(result).edges;
      sort_edges(edges);
      checks_.expect(edges == ref.latest_writers(lw->node), what);
    } else if (const auto* dd =
                   std::get_if<q::DataDependenciesQuery>(&query)) {
      auto edges = std::get<q::EdgeListResult>(result).edges;
      sort_edges(edges);
      checks_.expect(edges == ref.data_dependencies(dd->node), what);
    } else if (const auto* pa = std::get_if<q::PageAccessorsQuery>(&query)) {
      auto r = std::get<q::PageAccessorsResult>(result);
      std::sort(r.writers.begin(), r.writers.end());
      std::sort(r.readers.begin(), r.readers.end());
      checks_.expect(r.writers == ref.writers_of(pa->page) &&
                         r.readers == ref.readers_of(pa->page),
                     what);
    } else if (const auto* hb = std::get_if<q::HappensBeforeQuery>(&query)) {
      checks_.expect(std::get<q::HappensBeforeResult>(result).ordering ==
                         ref.ordering(hb->first, hb->second),
                     what);
    } else if (std::holds_alternative<q::RacesQuery>(query)) {
      for (const auto& race : std::get<q::RaceListResult>(result).races) {
        const auto& a = graph_->nodes()[race.first];
        const auto& b = graph_->nodes()[race.second];
        const bool aw = contains(a.write_set, race.page);
        const bool bw = contains(b.write_set, race.page);
        const bool ar = aw || contains(a.read_set, race.page);
        const bool br = bw || contains(b.read_set, race.page);
        checks_.expect(ref.ordering(race.first, race.second) ==
                               q::Ordering::kConcurrent &&
                           ar && br && (aw || bw) &&
                           (!race.write_write || (aw && bw)),
                       what + ": race pair is not a concurrent conflict");
      }
    } else if (std::holds_alternative<q::CriticalPathQuery>(query)) {
      const auto& path = std::get<q::CriticalPathResult>(result).nodes;
      bool joined = true;
      for (std::size_t p = 1; p < path.size(); ++p) {
        joined = joined && ref.has_edge(path[p - 1], path[p]);
      }
      checks_.expect(joined, what + ": path steps are not recorded edges");
      checks_.expect(path.size() == ref.longest_chain(),
                     what + ": path length differs from the reference DP");
    } else if (std::holds_alternative<q::StatsQuery>(query)) {
      checks_.expect(std::get<q::StatsResult>(result).stats == ref.stats(),
                     what);
    }
  }

  // Slice duality: b in forward_slice(a) exactly when a in
  // backward_slice(b).
  Rng rng(cfg_.seed ^ 0x6475616CULL);
  const auto n = graph_->nodes().size();
  for (int pair = 0; pair < 16; ++pair) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    const auto fwd = graph_engine_->run(q::ForwardSliceQuery{a}, no_cache);
    const auto bwd = graph_engine_->run(q::BackwardSliceQuery{b}, no_cache);
    if (!fwd.ok() || !bwd.ok()) {
      checks_.expect(false, "slice duality sample failed");
      continue;
    }
    checks_.expect(
        contains(std::get<q::NodeListResult>(fwd->result).nodes, b) ==
            contains(std::get<q::NodeListResult>(bwd->result).nodes, a),
        "slice duality broken for " + std::to_string(a) + " -> " +
            std::to_string(b));
  }
}

}  // namespace perfbench
