// The seeded query mix shared by the query and serve phases.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpg/graph.h"
#include "query/query.h"

namespace perfbench {

/// Query kinds in std::variant index order of query::Query.
inline constexpr std::size_t kKindCount = 11;
inline constexpr std::array<const char*, kKindCount> kKinds = {
    "backward_slice", "forward_slice", "latest_writers", "data_dependencies",
    "page_accessors", "happens_before", "races",         "taint",
    "invalidate",     "critical_path", "stats"};
/// Percent of fresh mix entries per kind (same order; sums to 100).
inline constexpr std::array<unsigned, kKindCount> kKindShares = {
    10, 10, 14, 14, 14, 14, 6, 6, 4, 4, 4};
/// Percent of entries that repeat one of the previous kRepeatWindow
/// entries, so the engine's result cache sees hits (window below its
/// default 128 entries).
inline constexpr unsigned kRepeatPercent = 20;
inline constexpr std::size_t kRepeatWindow = 32;

struct Mix {
  std::vector<inspector::query::Query> queries;
  std::vector<bool> repeat;  ///< entry copies an earlier one
};

/// `count` queries in a seeded order: kKindShares of each kind among
/// the fresh entries, kRepeatPercent repeats, and node and page
/// parameters stratified over the graph's own node range and page
/// universe.
[[nodiscard]] Mix make_mix(const inspector::cpg::Graph& graph,
                           std::uint64_t seed, std::size_t count);

/// The out-of-core leg's round: the kOocHeavy whole-graph queries
/// (backward slice, forward slice, race scan) first, then kOocRepeats
/// stratified queries of every other kind.
inline constexpr std::size_t kOocHeavy = 3;
inline constexpr std::size_t kOocRepeats = 15;
[[nodiscard]] std::vector<inspector::query::Query> make_ooc_round(
    const inspector::cpg::Graph& graph);

[[nodiscard]] inline std::size_t kind_of(const inspector::query::Query& q) {
  return q.index();
}

/// Kinds whose replies are lists (the wire accepts page_size for them).
[[nodiscard]] bool paginatable(const inspector::query::Query& q);

/// Wire request line for `q`; page_size 0 leaves the reply whole.
[[nodiscard]] std::string request_line(std::uint64_t id,
                                       const inspector::query::Query& q,
                                       std::uint64_t page_size);
[[nodiscard]] std::string next_line(std::uint64_t id, std::uint64_t cursor);

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
