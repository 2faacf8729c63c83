#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{1};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord>& records() {
  static std::vector<SpanRecord> r;
  return r;
}
const Clock::time_point g_epoch = Clock::now();
thread_local Span* t_current = nullptr;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_epoch)
      .count();
}

}  // namespace

namespace tracer {

void enable() { g_enabled.store(true); }
void disable() { g_enabled.store(false); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t next_op() { return g_next_op.fetch_add(1); }
std::uint64_t next_id() { return g_next_id.fetch_add(1); }

void add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(g_mu);
  records().push_back(std::move(record));
}

std::vector<SpanRecord> snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return records();
}

}  // namespace tracer

Span::Span(std::string_view prefix, std::string_view suffix,
           std::uint64_t op) {
  if (!tracer::enabled()) return;
  active_ = true;
  record_.name.reserve(prefix.size() + suffix.size());
  record_.name.append(prefix).append(suffix);
  record_.id = tracer::next_id();
  outer_ = t_current;
  if (outer_ != nullptr) record_.parent = outer_->record_.id;
  record_.op = op != 0 ? op
               : outer_ != nullptr ? outer_->record_.op
                                   : tracer::next_op();
  t_current = this;
  record_.start_us = now_us();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = now_us();
  t_current = outer_;
  tracer::add(std::move(record_));
}

std::vector<double> span_durations_ms(const std::vector<SpanRecord>& spans,
                                      std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

namespace {

/// Microseconds of [start, end] covered by the union of `children`.
double covered_us(double start, double end,
                  std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0;
  double cur_lo = 0;
  double cur_hi = -1;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, start);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return covered;
}

struct Row {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

void print_rows(const std::map<std::string, Row>& rows, std::ostream& os) {
  for (const auto& [name, row] : rows) {
    os << "  " << std::left << std::setw(44) << name << std::right
       << std::setw(9) << row.count << std::setw(14) << std::fixed
       << std::setprecision(3) << row.total_ms << std::setw(14)
       << row.self_ms << "\n";
  }
}

}  // namespace

void print_span_table(const std::vector<SpanRecord>& spans,
                      std::ostream& os) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_module;
  for (const SpanRecord& s : spans) {
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0
                             : covered_us(s.start_us, s.end_us, it->second);
    const double self_ms = (s.end_us - s.start_us - covered) / 1e3;
    for (Row* row : {&by_name[s.name],
                     &by_module[s.name.substr(0, s.name.find('.'))]}) {
      ++row->count;
      row->total_ms += s.duration_ms();
      row->self_ms += self_ms;
    }
  }
  os << "per-layer spans (" << spans.size() << " recorded)\n"
     << "  " << std::left << std::setw(44) << "span" << std::right
     << std::setw(9) << "count" << std::setw(14) << "total_ms"
     << std::setw(14) << "self_ms" << "\n";
  print_rows(by_name, os);
  os << "per-module rollup\n";
  print_rows(by_module, os);
}

void write_spans_jsonl(const std::vector<SpanRecord>& spans,
                       const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << std::fixed << std::setprecision(1);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << "}\n";
  }
}

}  // namespace perfbench
