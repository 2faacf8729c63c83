#include "pipeline.h"

#include <sys/resource.h>

#include <filesystem>
#include <iostream>

#include "core/inspector.h"
#include "obs/metrics.h"
#include "query/wire.h"
#include "shard/planner.h"
#include "spans.h"
#include "workloads/registry.h"

namespace perfbench {

namespace core = inspector::core;
namespace q = inspector::query;
namespace shard = inspector::shard;

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Pipeline::setup() {
  std::filesystem::create_directories(cfg_.work_dir);
  store_dir_ = cfg_.work_dir + "/store";
  Span root("setup", {}, tracer::next_op());

  inspector::workloads::WorkloadConfig wc;
  wc.threads = kQueryProgram.threads;
  wc.scale = kQueryProgram.scale;
  wc.seed = cfg_.seed;
  core::Options options;
  options.schedule_seed = cfg_.seed;
  auto result = [&] {
    Span s("capture.query_program");
    return core::Inspector(options).run(
        inspector::workloads::make_workload(kQueryProgram.name, wc));
  }();
  graph_ = std::make_shared<const inspector::cpg::Graph>(
      std::move(result.graph).value());
  const auto manifest = [&] {
    Span s("shard.store_write");
    return shard::write_store(*graph_, store_dir_,
                              {.shard_count = kShardCount},
                              shard::ShardCodec::kLz);
  }();
  if (!manifest.ok()) {
    throw std::runtime_error("store write failed: " +
                             manifest.status().message());
  }
  for (const auto& info : manifest->shards) decoded_bytes_ += info.decoded_bytes;
  ooc_budget_ = static_cast<std::uint64_t>(
      static_cast<double>(decoded_bytes_) * kOocBudgetShare);

  const auto open = [&](std::uint64_t budget) {
    Span s("shard.open");
    auto store = shard::ShardStore::open(
        store_dir_, {.memory_budget_bytes = budget, .retry_policy = {}});
    if (!store.ok()) {
      throw std::runtime_error("store open failed: " +
                               store.status().message());
    }
    return std::move(store).value();
  };
  warm_store_ = open(0);
  ooc_store_ = open(ooc_budget_);
  graph_engine_ = std::make_unique<q::QueryEngine>(graph_);
  sharded_engine_ = std::make_unique<shard::ShardedQueryEngine>(warm_store_);
  ooc_engine_ = std::make_unique<shard::ShardedQueryEngine>(ooc_store_);

  // Warm-up: the whole mix once through the graph and sharded engines;
  // the graph replies are the bytes every other leg must reproduce.
  mix_ = make_mix(*graph_, cfg_.seed, kMixSize);
  expected_.clear();
  for (std::size_t i = 0; i < mix_.queries.size(); ++i) {
    Span s("query.warmup");
    expected_.push_back(
        q::wire::serialize_reply(i + 1, graph_engine_->run(mix_.queries[i])));
    checks_.expect(q::wire::serialize_reply(
                       i + 1, sharded_engine_->run(mix_.queries[i])) ==
                       expected_[i],
                   "sharded reply differs from graph reply for mix entry " +
                       std::to_string(i));
  }
  ooc_round_ = make_ooc_round(*graph_);
  ooc_expected_.clear();
  for (std::size_t k = 0; k < ooc_round_.size(); ++k) {
    ooc_expected_.push_back(q::wire::serialize_reply(
        k + 1, graph_engine_->run(ooc_round_[k], {.skip_cache = true})));
  }
  build_scripts();
  start_server();
}

double Pipeline::budget_s(const char* phase) const {
  return cfg_.seconds * (cfg_.workload == phase ? kFocusShare : kOtherShare);
}

void Pipeline::run_phases(MetricSink& e2e) {
  // Ingest last: its captures fault in and free hundreds of MiB, which
  // would leave the kernel busy under the phases after it, and would
  // set the peak RSS of every workload.
  interleave(budget_s("query"), budget_s("serve"), e2e);
  if (cfg_.workload != "ingest") e2e.put("peak_rss_mib", peak_rss_mib(), "MiB");
  ingest_phase(e2e, budget_s("ingest"));
  if (cfg_.workload == "ingest") e2e.put("peak_rss_mib", peak_rss_mib(), "MiB");
}

void Pipeline::run_focus(MetricSink& e2e) {
  if (cfg_.workload == "ingest") ingest_phase(e2e, budget_s("ingest"));
  if (cfg_.workload == "query") interleave(budget_s("query"), 0, e2e);
  if (cfg_.workload == "serve") interleave(0, budget_s("serve"), e2e);
}

void Pipeline::interleave(double query_s, double serve_s, MetricSink& e2e) {
  // In every slice each activity is granted its share of the slice and
  // runs whole rounds while its time spent is below what it has been
  // granted so far -- at least one round a slice, except the
  // out-of-core leg's whole-graph queries, which take seconds and run
  // once and then only on credit. A slow spell of the machine then
  // falls on a few rounds of every activity, not on all rounds of one,
  // and the quiet-end estimators set it aside. A failed serving pass
  // ends the loops (the run is then reported incorrect).
  struct Credit {
    double granted_s = 0, spent_s = 0;
  };
  const auto timed = [](Credit& credit, const auto& round) {
    const auto t0 = Clock::now();
    round();
    credit.spent_s += ms_since(t0) / 1e3;
  };
  const auto rounds = [&](Credit& credit, const auto& round) {
    do {
      timed(credit, round);
    } while (credit.spent_s < credit.granted_s && !serve_broken_);
  };
  Credit graph, sharded, ooc, serve;
  bool heavy_done = false;
  if (query_s > 0) query_begin();
  if (serve_s > 0) serve_begin();
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const double q = query_s / kSlices;
    if (q > 0) {
      first_reply();
      graph.granted_s += q * kGraphShare;
      rounds(graph, [&] { leg_round("graph", *graph_engine_, graph_rounds_); });
      sharded.granted_s += q * kShardedShare;
      rounds(sharded,
             [&] { leg_round("sharded", *sharded_engine_, sharded_rounds_); });
      ooc.granted_s += q * kOocShare;
      if (!heavy_done || ooc.spent_s < ooc.granted_s) {
        timed(ooc, [&] { ooc_round(true); });
        heavy_done = true;
      }
      rounds(ooc, [&] { ooc_round(false); });
    }
    if (serve_s > 0 && !serve_broken_) {
      serve.granted_s += serve_s / kSlices;
      rounds(serve, [&] { serve_pass(); });
    }
  }
  if (query_s > 0) query_report(e2e);
  if (serve_s > 0) serve_report(e2e);
}

namespace {

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::uint64_t registry_p50(const char* name) {
  for (const auto& s : inspector::obs::Registry::global().snapshot().series) {
    if (s.name == name) return s.histogram.percentile(0.5);
  }
  return 0;
}

}  // namespace

void Pipeline::finish(MetricSink& layer) {
  stop_server();
  query_checks();
  if (!tracer::enabled()) return;

  const std::vector<SpanRecord> spans = tracer::snapshot();
  const auto d = [&](const std::string& name) {
    return span_durations_ms(spans, name);
  };
  const double rounds =
      static_cast<double>(std::max<std::size_t>(1, ingest_rounds_));
  const auto per_round = [&](const char* name) { return sum(d(name)) / rounds; };

  // capture, post-processing, persistence (ingest set)
  layer.put("workloads.generate_ms", per_round("workloads.generate"), "ms");
  layer.put("runtime.native_ms", sum(d("runtime.native")), "ms");
  // Full, PT-off and memtrack-off captures run side by side in every
  // ingest round: each figure is a per-program median over the rounds,
  // and the split ones are summed over the set.
  double no_pt_ms = 0, no_memtrack_ms = 0;
  for (const ProgramSpec& p : kIngestSet) {
    const std::string name = p.name;
    layer.put("capture." + name + "_ms", median(d("capture." + name)), "ms");
    no_pt_ms += median(d("capture.no_pt." + name));
    no_memtrack_ms += median(d("capture.no_memtrack." + name));
  }
  layer.put("capture.no_pt_ms", no_pt_ms, "ms");
  layer.put("capture.no_memtrack_ms", no_memtrack_ms, "ms");
  const IngestCounters& c = counters_;
  const auto count = [&](const char* name, std::uint64_t v,
                         const char* unit = "count") {
    layer.put(name, static_cast<double>(v), unit);
  };
  count("memtrack.page_faults", c.page_faults);
  count("memtrack.commits", c.commits);
  count("memtrack.bytes_committed", c.bytes_committed, "bytes");
  count("perf.traced_processes", c.traced_processes);
  count("ptsim.pt_bytes", c.pt_bytes, "bytes");
  count("ptsim.aux_overflows", c.aux_overflows);
  layer.put("ptsim.decode_ms", per_round("ptsim.decode"), "ms");
  count("ptsim.branches_decoded", c.branches_decoded);
  layer.put("cpg.offline_rebuild_ms", per_round("cpg.offline_rebuild"), "ms");
  layer.put("cpg.index_build_ms", sum(d("cpg.index_build")), "ms");
  count("cpg.nodes", c.nodes);
  count("cpg.edges", c.edges);
  count("cpg.thunks", c.thunks);
  layer.put("cpg.serialize_ms", sum(d("cpg.serialize")), "ms");
  count("cpg.serialized_bytes", c.serialized_bytes, "bytes");
  layer.put("shard.plan_ms", per_round("shard.plan"), "ms");
  layer.put("shard.write_ms", per_round("shard.write"), "ms");
  count("shard.decoded_bytes", c.decoded_bytes, "bytes");
  layer.put("snapshot.lz_ratio",
            c.store_bytes == 0 ? 0.0
                               : static_cast<double>(c.decoded_bytes) /
                                     static_cast<double>(c.store_bytes),
            "x");

  // load and execute
  layer.put("shard.open_ms", median(d("shard.open")), "ms");
  layer.put("shard.load_ms_p50", median(d("shard.load")), "ms");
  count("shard.decode_us_p50", registry_p50("shard_store_decode_us"), "us");
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const std::string kind = kKinds[k];
    const double g = median(d("query.graph." + kind)) * 1e3;
    const double s = median(d("query.sharded." + kind)) * 1e3;
    layer.put("query.graph." + kind + "_p50_us", g, "us");
    layer.put("query.sharded." + kind + "_p50_us", s, "us");
    layer.put("query.sharded_over_graph." + kind, g > 0 ? s / g : 0.0, "x");
    layer.put("query.ooc." + kind + "_mean_ms", mean(d("query.ooc." + kind)),
              "ms");
    layer.put("shard.ooc.loads_per_query." + kind,
              ooc_calls_[k] == 0 ? 0.0
                                 : static_cast<double>(ooc_loads_[k]) /
                                       static_cast<double>(ooc_calls_[k]),
              "count");
    layer.put("net.overhead." + kind + "_p50_us",
              median(served_us_[k]) - median(inproc_us_[k]), "us");
  }
  const auto ooc = ooc_store_->stats();
  count("shard.ooc.loads", ooc.loads);
  count("shard.ooc.hits", ooc.hits);
  count("shard.ooc.evictions", ooc.evictions);
  count("shard.ooc.peak_cache_bytes", ooc.peak_cache_bytes, "bytes");
  count("shard.ooc.peak_resident_bytes", ooc.peak_resident_bytes, "bytes");
  count("shard.ooc.budget_bytes", ooc_budget_, "bytes");
  const auto gc = graph_engine_->cache_stats();
  const auto sc = sharded_engine_->cache_stats();
  const double hits = static_cast<double>(gc.hits + sc.hits);
  const double lookups = hits + static_cast<double>(gc.misses + sc.misses);
  layer.put("query.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "x");
  count("util.pool_submit_wait_us_p50",
        registry_p50("task_pool_submit_wait_us"), "us");

  // serving
  layer.put("query.wire.parse_us", median(d("query.wire.parse")) * 1e3, "us");
  layer.put("query.wire.serialize_us",
            median(d("query.wire.serialize")) * 1e3, "us");
  layer.put("net.connect_ms", median(d("net.connect")), "ms");
  count("net.frames_sent", frames_sent_);
  count("net.bytes_sent", bytes_sent_, "bytes");
  count("net.bytes_received", bytes_received_, "bytes");

  const std::vector<SpanRecord> all = tracer::snapshot();  // + server spans
  count("trace.spans", all.size());
  const std::string path = cfg_.work_dir + "/../trace-" + cfg_.workload +
                           "-seed" + std::to_string(cfg_.seed) + ".jsonl";
  write_spans_jsonl(all, path);
  print_span_table(all, std::cout);
  std::cout << "spans written to " << path << "\n";
}

}  // namespace perfbench
