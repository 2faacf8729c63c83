// pipeline_bench -- one workload through INSPECTOR's whole pipeline.
//
//   pipeline_bench --workload ingest|query|serve --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR] [--query-bin PATH]
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, and the metrics -- the end-to-end ones with --trace 0, the
// per-layer ones with --trace 1. The traced run also prints the span
// table and the tracing overhead (its focus phase run once untraced,
// then again traced). See perfbench/README.md.
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>

#include "pipeline.h"
#include "spans.h"
#include "util/parallel.h"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: pipeline_bench --workload ingest|query|serve "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--query-bin PATH]\n";
  return 2;
}

bool parse(int argc, char** argv, RunConfig& cfg) {
  cfg.work_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return false;
        cfg.trace = v == "1";
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else if (a == "--query-bin") {
        cfg.query_bin = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (cfg.query_bin.empty()) {
    cfg.query_bin =
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "inspector_query")
            .string();
  }
  return (cfg.workload == "ingest" || cfg.workload == "query" ||
          cfg.workload == "serve") &&
         cfg.seconds > 0 && cfg.seconds <= 600;
}

/// The workload's headline metric and whether higher is better.
std::pair<const char*, bool> headline(const std::string& workload) {
  if (workload == "ingest") return {"ingest_s", false};
  if (workload == "query") return {"sharded_qps", true};
  return {"served_qps", true};
}

void print_result(const Checks& checks, const OpCount& ops,
                  const MetricSink& metrics) {
  std::cout << "{\"correct\":" << (checks.all_passed() ? "true" : "false")
            << ",\"attempted\":" << ops.attempted
            << ",\"failed\":" << ops.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics.values()) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << number << ",\"unit\":\"" << value.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  RunConfig cfg;
  if (!parse(argc, argv, cfg)) return usage();
  const std::string out_dir = cfg.work_dir;
  cfg.work_dir = out_dir + "/" + cfg.workload + "-" + std::to_string(getpid());
  // Router workers orphaned by a dying router come back here to be
  // reaped and checked.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  inspector::util::set_analysis_threads(kAnalysisThreads);
  if (cfg.trace) tracer::enable();

  int rc = 0;
  try {
    Pipeline pipeline(cfg);
    pipeline.setup();
    const double setup_s = ms_since(process_start) / 1e3;

    MetricSink untraced;
    if (cfg.trace) {
      tracer::disable();
      pipeline.run_focus(untraced);
      tracer::enable();
    }
    MetricSink e2e;
    pipeline.run_phases(e2e);
    e2e.put("setup_s", setup_s, "s");
    MetricSink layer;
    pipeline.finish(layer);

    if (cfg.trace) {
      std::cout << "tracing overhead on the " << cfg.workload
                << " focus phase (untraced -> traced)\n";
      for (const auto& [name, value] : untraced.values()) {
        if (!e2e.has(name)) continue;
        const double traced = e2e.values().at(name).first;
        std::cout << "  " << std::left << std::setw(18) << name << std::right
                  << std::setw(14) << value.first << std::setw(14) << traced
                  << " " << value.second << "  ("
                  << (value.first != 0 ? (traced / value.first - 1) * 100 : 0)
                  << "%)\n";
      }
      const auto [metric, higher_better] = headline(cfg.workload);
      const double u = untraced.values().at(metric).first;
      const double t = e2e.values().at(metric).first;
      layer.put("trace.overhead_pct",
                (higher_better ? u / t - 1 : t / u - 1) * 100, "%");
    }
    print_result(pipeline.checks(), pipeline.ops(), cfg.trace ? layer : e2e);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);
  return rc;
}
