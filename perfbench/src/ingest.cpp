// Ingest phase: program generation -> capture (journal on) -> PT decode
// -> offline rebuild -> shard plan/write (LZ) for every program of the
// ingest set, in whole rounds.
#include <filesystem>

#include "core/inspector.h"
#include "cpg/offline.h"
#include "cpg/serialize.h"
#include "pipeline.h"
#include "replay/replay.h"
#include "shard/fsck.h"
#include "shard/planner.h"
#include "spans.h"
#include "workloads/registry.h"

namespace perfbench {

namespace core = inspector::core;
namespace cpg = inspector::cpg;
namespace shard = inspector::shard;

namespace {

bool same_memory(const inspector::memtrack::SharedMemory& a,
                 const inspector::memtrack::SharedMemory& b) {
  const auto ids = a.page_ids();
  if (ids != b.page_ids()) return false;
  for (std::uint64_t page : ids) {
    const auto* pa = a.find_page(page);
    const auto* pb = b.find_page(page);
    if (pa == nullptr || pb == nullptr || *pa != *pb) return false;
  }
  return true;
}

core::Options capture_options(std::uint64_t seed) {
  core::Options options;
  options.capture_journal = true;
  options.schedule_seed = seed;
  return options;
}

}  // namespace

void Pipeline::ingest_phase(MetricSink& e2e, double budget_s) {
  const auto start = Clock::now();
  std::vector<double> round_s;
  std::uint64_t store_bytes = 0;
  for (std::size_t round = 0;; ++round) {
    if (round >= kMinIngestRounds && ms_since(start) >= budget_s * 1e3) break;
    double total_s = 0;
    store_bytes = 0;
    for (const ProgramSpec& spec : kIngestSet) {
      double s = 0;
      std::uint64_t bytes = 0;
      ingest_program(spec, round, s, bytes);
      total_s += s;
      store_bytes += bytes;
    }
    round_s.push_back(total_s);
  }
  if (tracer::enabled()) ingest_rounds_ += round_s.size();
  e2e.put("ingest_s", quiet_time(round_s), "s");
  e2e.put("store_bytes", static_cast<double>(store_bytes), "bytes");
}

void Pipeline::ingest_program(const ProgramSpec& spec, std::size_t round,
                              double& ingest_s, std::uint64_t& store_bytes) {
  const std::string dir = cfg_.work_dir + "/ingest-" + spec.name;
  std::filesystem::remove_all(dir);
  inspector::workloads::WorkloadConfig wc;
  wc.threads = spec.threads;
  wc.scale = spec.scale;
  wc.seed = cfg_.seed;
  const core::Options options = capture_options(cfg_.seed);
  ++ops_.attempted;

  Span root("ingest.", spec.name, tracer::next_op());
  const auto t0 = Clock::now();
  const auto program = [&] {
    Span s("workloads.generate");
    return inspector::workloads::make_workload(spec.name, wc);
  }();
  const auto result = [&] {
    Span s("capture.", spec.name);
    return core::Inspector(options).run(program);
  }();
  const auto branches = [&] {
    Span s("ptsim.decode");
    return core::Inspector::decode_branches(result);
  }();
  const cpg::Graph graph = [&] {
    Span s("cpg.offline_rebuild");
    return cpg::rebuild_from_journal(*result.journal, branches);
  }();
  const auto plan = [&] {
    Span s("shard.plan");
    return shard::ShardPlanner({.shard_count = kShardCount}).plan(graph);
  }();
  if (!plan.ok()) {
    ++ops_.failed;
    checks_.expect(false, spec.name + std::string(": plan failed: ") +
                              plan.status().message());
    return;
  }
  const auto manifest = [&] {
    Span s("shard.write");
    return shard::ShardWriter(dir, shard::ShardCodec::kLz)
        .write(graph, plan.value());
  }();
  ingest_s = ms_since(t0) / 1e3;
  if (!manifest.ok()) {
    ++ops_.failed;
    checks_.expect(false, spec.name + std::string(": store write failed: ") +
                              manifest.status().message());
    return;
  }
  std::uint64_t decoded = 0;
  for (const auto& info : manifest->shards) {
    store_bytes += info.byte_size;
    decoded += info.decoded_bytes;
  }
  if (tracer::enabled()) {
    // Capture cost split, every round beside the full capture and with
    // the same options: the same capture with each tracer switched off.
    core::Options no_pt = options;
    no_pt.enable_pt = false;
    {
      Span s("capture.no_pt.", spec.name);
      (void)core::Inspector(no_pt).run(program);
    }
    core::Options no_memtrack = options;
    no_memtrack.enable_memtrack = false;
    {
      Span s("capture.no_memtrack.", spec.name);
      (void)core::Inspector(no_memtrack).run(program);
    }
  }
  if (round != 0) return;

  // ---- checks and counters, once per phase, outside the timed part ----
  const std::string name = spec.name;
  const auto rebuilt = [&] {
    Span s("cpg.serialize");
    return cpg::serialize(graph);
  }();
  checks_.expect(rebuilt == cpg::serialize(*result.graph),
                 name + ": offline rebuild does not serialize "
                        "byte-identical to the online graph");
  const auto pt = [&] {
    Span s("ptsim.verify");
    return core::Inspector::verify_pt(result);
  }();
  checks_.expect(pt.ok && pt.mismatches == 0 && pt.gaps == 0,
                 name + ": verify_pt reports " +
                     std::to_string(pt.mismatches) + " mismatches, " +
                     std::to_string(pt.gaps) + " gaps");
  bool replayed = false;
  try {
    Span s("replay.replay");
    replayed = inspector::replay::replay_matches(program, graph,
                                                 *result.memory);
  } catch (const std::exception& e) {
    checks_.expect(false, name + ": replay threw: " + e.what());
  }
  checks_.expect(replayed, name + ": replay does not reproduce the memory");
  {
    const auto native = [&] {
      Span s("runtime.native");
      return core::Inspector(options).run_native(program);
    }();
    checks_.expect(same_memory(*native.memory, *result.memory),
                   name + ": native and traced final memory differ");
  }
  const auto report = [&] {
    Span s("shard.fsck");
    return shard::fsck(dir);
  }();
  checks_.expect(report.ok() && report->clean(), name + ": fsck not clean");
  {
    auto store = shard::ShardStore::open(dir);
    std::uint64_t nodes = 0;
    if (store.ok()) {
      for (std::uint32_t i = 0; i < (*store)->manifest().shard_count; ++i) {
        auto loaded = (*store)->load(i);
        if (loaded.ok()) nodes += (*loaded)->data.global_ids.size();
      }
    }
    checks_.expect(store.ok() && nodes == graph.nodes().size(),
                   name + ": per-shard node counts do not sum to the graph");
  }
  {
    auto nodes = graph.nodes();
    auto edges = graph.edges();
    auto schedule = graph.schedule();
    Span s("cpg.index_build");
    const cpg::Graph rebuilt_index(std::move(nodes), std::move(edges),
                                   std::move(schedule));
    checks_.expect(rebuilt_index.nodes().size() == graph.nodes().size(),
                   name + ": index build lost nodes");
  }
  const auto& st = result.stats;
  IngestCounters& c = counters_;
  if (&spec == &kIngestSet.front()) c = IngestCounters{};
  c.page_faults += st.page_faults;
  c.commits += st.commits;
  c.bytes_committed += st.bytes_committed;
  c.pt_bytes += st.pt_bytes;
  c.aux_overflows += st.pt_overflows;
  if (result.perf_session != nullptr) {
    c.traced_processes += result.perf_session->traced_pids().size();
  }
  for (const auto& [tid, records] : branches) {
    c.branches_decoded += records.size();
  }
  const auto gs = graph.stats();
  c.nodes += gs.nodes;
  c.edges += graph.edges().size();
  c.thunks += gs.thunks;
  c.serialized_bytes += rebuilt.size();
  c.decoded_bytes += decoded;
  c.store_bytes += store_bytes;
}

}  // namespace perfbench
