#include "mix.h"

#include <algorithm>

#include "query/wire.h"

namespace perfbench {

namespace q = inspector::query;
using inspector::cpg::NodeId;

namespace {

/// Parameters of the j-th of n queries of one kind: stratified over the
/// node range and page universe (stratum j, jittered inside it by the
/// seed), so every seed spreads each kind's work over the whole graph
/// and the mix costs about the same on every seed.
struct Strata {
  Rng& rng;
  std::size_t nodes;
  std::span<const std::uint64_t> pages;
  std::size_t j;
  std::size_t n;

  bool jitter = true;  ///< false: the middle of the stratum

  std::size_t pick(std::size_t range, std::size_t stratum) {
    const double u =
        jitter ? static_cast<double>(rng.below(1u << 20)) / (1u << 20) : 0.5;
    const auto at = static_cast<std::size_t>(
        (static_cast<double>(stratum) + u) * static_cast<double>(range) /
        static_cast<double>(n));
    return std::min(at, range - 1);
  }
  NodeId node() { return static_cast<NodeId>(pick(nodes, j)); }
  NodeId mirrored_node() {
    return static_cast<NodeId>(pick(nodes, n - 1 - j));
  }
  std::uint64_t page() { return pages[pick(pages.size(), j)]; }
  std::uint64_t any_page() { return pages[rng.below(pages.size())]; }
  inspector::PageSet page_set() {
    inspector::PageSet out{page()};
    if (j % 2 == 1) out.push_back(any_page());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

q::Query make_query(std::size_t kind, Strata& s) {
  switch (kind) {
    case 0: return q::BackwardSliceQuery{s.node()};
    case 1: return q::ForwardSliceQuery{s.node()};
    case 2: return q::LatestWritersQuery{s.node()};
    case 3: return q::DataDependenciesQuery{s.node()};
    case 4: return q::PageAccessorsQuery{s.page()};
    case 5: return q::HappensBeforeQuery{s.node(), s.mirrored_node()};
    case 6: {
      q::RacesQuery r;
      r.limit = s.j % 2 == 0 ? 0 : 16;
      if (s.j % 4 == 1) r.ignored_pages = {s.page()};
      return r;
    }
    case 7: {
      q::TaintQuery t;
      t.seed_pages = s.page_set();
      return t;
    }
    case 8: return q::InvalidateQuery{s.page_set()};
    case 9: return q::CriticalPathQuery{};
    default: return q::StatsQuery{};
  }
}

}  // namespace

Mix make_mix(const inspector::cpg::Graph& graph, std::uint64_t seed,
             std::size_t count) {
  Rng rng(seed ^ 0x6D69785F71756572ULL);
  const std::size_t nodes = graph.nodes().size();
  const auto pages = graph.pages();

  // Fresh entries: exactly kKindShares percent of each kind.
  const std::size_t repeats = count * kRepeatPercent / 100;
  const std::size_t fresh_count = count - repeats;
  std::vector<q::Query> fresh;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const std::size_t n = k + 1 == kKindCount
                              ? fresh_count - fresh.size()
                              : fresh_count * kKindShares[k] / 100;
    for (std::size_t j = 0; j < n; ++j) {
      Strata strata{rng, nodes, pages, j, n};
      fresh.push_back(make_query(k, strata));
    }
  }
  for (std::size_t i = fresh.size(); i > 1; --i) {
    std::swap(fresh[i - 1], fresh[rng.below(i)]);
  }

  // Repeats: exactly `repeats` entries, each a copy of one of the
  // previous kRepeatWindow entries.
  std::vector<bool> is_repeat(count, false);
  std::vector<std::size_t> slots;
  for (std::size_t i = 1; i < count; ++i) slots.push_back(i);
  for (std::size_t i = 0; i < repeats; ++i) {
    const std::size_t pick = i + rng.below(slots.size() - i);
    std::swap(slots[i], slots[pick]);
    is_repeat[slots[i]] = true;
  }
  Mix mix;
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < count; ++i) {
    mix.repeat.push_back(is_repeat[i]);
    if (is_repeat[i]) {
      const std::size_t window = std::min(i, kRepeatWindow);
      mix.queries.push_back(mix.queries[i - 1 - rng.below(window)]);
    } else {
      mix.queries.push_back(fresh[next_fresh++]);
    }
  }
  return mix;
}

std::vector<q::Query> make_ooc_round(const inspector::cpg::Graph& graph) {
  // The heavy queries walk the whole graph -- the backward slice of the
  // last recorded node, the forward slice of the first, an unlimited
  // race scan; every other kind runs kOocRepeats times at the middles
  // of kOocRepeats strata. The round is a function of the graph alone,
  // so its shard loads change with the seed only as the capture does.
  Rng rng(0);  // drawn only by any_page(), for the odd strata
  const std::size_t nodes = graph.nodes().size();
  const auto pages = graph.pages();
  std::vector<q::Query> round;
  round.push_back(q::BackwardSliceQuery{static_cast<NodeId>(nodes - 1)});
  round.push_back(q::ForwardSliceQuery{0});
  round.push_back(q::RacesQuery{});
  for (std::size_t k = 0; k < kKindCount; ++k) {
    if (k == 0 || k == 1 || k == 6) continue;
    for (std::size_t j = 0; j < kOocRepeats; ++j) {
      Strata s{rng, nodes, pages, j, kOocRepeats, false};
      round.push_back(make_query(k, s));
    }
  }
  return round;
}

bool paginatable(const q::Query& query) {
  return !std::holds_alternative<q::HappensBeforeQuery>(query) &&
         !std::holds_alternative<q::StatsQuery>(query);
}

std::string request_line(std::uint64_t id, const q::Query& query,
                         std::uint64_t page_size) {
  std::string line = "{\"id\":" + std::to_string(id);
  if (page_size != 0) line += ",\"page_size\":" + std::to_string(page_size);
  line += ",";
  line += q::wire::serialize_query(query).substr(1);
  return line;
}

std::string next_line(std::uint64_t id, std::uint64_t cursor) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"next\",\"cursor\":" +
         std::to_string(cursor) + "}";
}

}  // namespace perfbench
