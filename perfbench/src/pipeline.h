// The pipeline benchmark: one process runs a workload through capture,
// post-processing, persistence, load/execute and serving.
//
// Every run does the same set-up -- capture the query program, persist
// it as a multi-shard LZ store, open it warm and under a budget, warm
// the engines up, start the router and connect -- and then runs all
// three phases (ingest, query, serve) in whole rounds. The workload's
// own phase gets most of the run's --seconds and the other two a small
// share each, so every end-to-end metric is measured on every workload
// while the workload's layers do most of the work. The query and serve
// phases run interleaved in slices over the first part of the run; the
// ingest phase runs last, after the peak RSS of the other two is read.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cpg/graph.h"
#include "mix.h"
#include "query/engine.h"
#include "shard/engine.h"
#include "shard/store.h"

namespace inspector::net {
class QueryClient;
}

namespace perfbench {

// ---- the inputs -----------------------------------------------------------

struct ProgramSpec {
  const char* name;
  std::uint32_t threads;
  double scale;
};

/// The ingest program set: kmeans respawns its worker fleet every
/// iteration (per-process cost), streamcluster is branch-heavy (long PT
/// stream, thunk-dominated store), canneal at 8 threads is lock-heavy.
inline constexpr std::array<ProgramSpec, 3> kIngestSet = {{
    {"kmeans", 4, 1.0},
    {"streamcluster", 4, 1.0},
    {"canneal", 8, 1.0},
}};
/// The program whose capture the query and serve phases read.
inline constexpr ProgramSpec kQueryProgram = {"canneal", 8, 1.0};

inline constexpr std::uint32_t kShardCount = 4;
/// Analysis pool of the benchmark process (TaskPool workers).
inline constexpr unsigned kAnalysisThreads = 2;
/// Closed-loop in-process callers on the graph and sharded legs.
inline constexpr unsigned kCallers = 1;
/// Budget of the out-of-core store, as a share of its decoded bytes.
inline constexpr double kOocBudgetShare = 0.5;
inline constexpr std::size_t kMixSize = 1024;
/// Router worker processes, each with this many analysis threads.
inline constexpr unsigned kServerWorkers = 2;
inline constexpr unsigned kServerAnalysisThreads = 1;
/// Closed-loop socket clients; each pass is one session of
/// kUnitsPerPass requests (plus the `next` calls that drain the
/// paginated ones), so a pass is over 1,000 calls.
inline constexpr unsigned kClients = 2;
inline constexpr std::size_t kUnitsPerPass = 512;
/// Every kPaginateEvery-th list request of a pass is paginated.
inline constexpr std::size_t kPaginateEvery = 4;
inline constexpr std::uint64_t kPageSize = 32;

/// Shares of --seconds: the workload's own phase, and each other phase.
inline constexpr double kFocusShare = 0.6;
inline constexpr double kOtherShare = 0.2;
/// Shares of the query phase: graph leg, sharded leg, out-of-core leg.
inline constexpr double kGraphShare = 0.25;
inline constexpr double kShardedShare = 0.25;
inline constexpr double kOocShare = 0.5;
/// Slices of the interleaved query/serve block. Each slice runs one
/// batch of cold opens and at least one round of every leg and pass,
/// so these are also the minimum rounds of each. Many short slices
/// spread those samples over the whole block: the host's slow spells
/// last seconds, and a sample batch timed within one of them is slow
/// throughout.
inline constexpr std::size_t kSlices = 20;
/// Minimum rounds of the ingest phase, whatever its budget.
inline constexpr std::size_t kMinIngestRounds = 5;
/// Cold opens per slice.
inline constexpr std::size_t kFirstReplyReps = 8;

// ---- one run ---------------------------------------------------------------

struct RunConfig {
  std::string workload;  ///< ingest | query | serve
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space inside the checkout
  std::string query_bin;  ///< the inspector_query binary
};

/// The socket scripts of one client pass: lines, the in-process reply
/// bytes for each, and the query kind each line belongs to.
struct ClientScript {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  std::vector<std::size_t> kind;
  std::vector<std::uint64_t> ids;
};

class ServerProcess;

class Pipeline {
 public:
  explicit Pipeline(RunConfig config);
  ~Pipeline();

  /// Capture and persist the query program, open the stores, warm up,
  /// start the router and connect. Timed as setup_s by the caller.
  void setup();
  /// Run the three phases; end-to-end metrics land in `e2e`, with
  /// peak_rss_mib read before the ingest phase on the query and serve
  /// workloads and after it on ingest.
  void run_phases(MetricSink& e2e);
  /// Only the workload's focus phase (the untraced half of the traced
  /// run's overhead measurement).
  void run_focus(MetricSink& e2e);
  /// Stop the server, run the checks that need no timing, and fill the
  /// per-layer metrics from the spans and the program's counters.
  void finish(MetricSink& layer);

  [[nodiscard]] Checks& checks() noexcept { return checks_; }
  [[nodiscard]] const OpCount& ops() const noexcept { return ops_; }

 private:
  [[nodiscard]] double budget_s(const char* phase) const;
  /// The query and serve phases interleaved in kSlices slices over
  /// query_s + serve_s seconds (either may be 0), then their metrics.
  void interleave(double query_s, double serve_s, MetricSink& e2e);
  // ingest.cpp
  void ingest_phase(MetricSink& e2e, double budget_s);
  void ingest_program(const ProgramSpec& spec, std::size_t round,
                      double& ingest_s, std::uint64_t& store_bytes);
  // Rounds of a leg or pass: its rate and latency quantiles.
  struct RoundSamples {
    std::vector<double> qps, p50, p99;
  };
  // query_legs.cpp
  void query_begin();
  void first_reply();
  void leg_round(const char* name, inspector::query::QueryEngine& engine,
                 RoundSamples& out);
  /// The out-of-core round's whole-graph queries, or the rest of it.
  void ooc_round(bool heavy);
  void query_report(MetricSink& e2e);
  void query_checks();
  // serve.cpp
  void build_scripts();
  void start_server();
  void serve_begin();
  void serve_pass();
  void serve_report(MetricSink& e2e);
  void stop_server();

  RunConfig cfg_;
  Checks checks_;
  OpCount ops_;

  // The query program's capture and store.
  std::shared_ptr<const inspector::cpg::Graph> graph_;
  std::string store_dir_;
  std::uint64_t decoded_bytes_ = 0;
  std::uint64_t ooc_budget_ = 0;
  std::shared_ptr<inspector::shard::ShardStore> warm_store_;
  std::shared_ptr<inspector::shard::ShardStore> ooc_store_;
  std::unique_ptr<inspector::query::QueryEngine> graph_engine_;
  std::unique_ptr<inspector::shard::ShardedQueryEngine> sharded_engine_;
  std::unique_ptr<inspector::shard::ShardedQueryEngine> ooc_engine_;
  Mix mix_;
  std::vector<std::string> expected_;  ///< graph reply bytes per mix entry
  std::vector<inspector::query::Query> ooc_round_;
  std::vector<std::string> ooc_expected_;  ///< graph reply bytes per kind
  std::array<std::uint64_t, kKindCount> issued_{};  ///< timed calls by kind
  std::array<std::uint64_t, kKindCount> totals_before_{};  ///< registry
  // Samples of one interleaved block.
  std::vector<double> first_reply_ms_;
  RoundSamples graph_rounds_, sharded_rounds_, served_passes_;
  std::vector<std::vector<double>> ooc_us_;  ///< per ooc query, each round
  std::array<std::uint64_t, kKindCount> ooc_loads_{};
  std::array<std::uint64_t, kKindCount> ooc_calls_{};

  // Counters gathered on the first ingest round.
  struct IngestCounters {
    std::uint64_t page_faults = 0, commits = 0, bytes_committed = 0;
    std::uint64_t traced_processes = 0, pt_bytes = 0, aux_overflows = 0;
    std::uint64_t branches_decoded = 0, nodes = 0, edges = 0, thunks = 0;
    std::uint64_t serialized_bytes = 0, decoded_bytes = 0, store_bytes = 0;
  } counters_;
  std::size_t ingest_rounds_ = 0;

  // Serving.
  std::vector<ClientScript> scripts_;
  std::array<std::vector<double>, kKindCount> inproc_us_{};
  std::array<std::vector<double>, kKindCount> served_us_{};
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::unique_ptr<inspector::net::QueryClient>> clients_;
  std::string trace_sink_;
  std::uint64_t frames_sent_ = 0, bytes_sent_ = 0, bytes_received_ = 0;
  std::uint64_t frames0_ = 0, sent0_ = 0, recv0_ = 0;
  std::vector<std::string> serve_errors_;  ///< first error per client
  bool serve_broken_ = false;             ///< a pass failed; no more passes
};

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
