// In-memory spans for the traced run.
//
// A Span wraps one call from the benchmark into a layer's public
// function. Each records its name, start, end, parent span and an
// operation id that every span of one program or one query shares.
// Spans stay in memory until the run ends; then the benchmark writes
// them out and prints a per-layer table of count, total and self time
// (duration minus the part of it covered by child spans). With tracing
// off a Span costs one branch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;
  double start_us = 0;  ///< on the recording process's clock
  double end_us = 0;
  [[nodiscard]] double duration_ms() const { return (end_us - start_us) / 1e3; }
};

namespace tracer {
void enable();
void disable();
[[nodiscard]] bool enabled();
/// A fresh operation id (one per program or query).
[[nodiscard]] std::uint64_t next_op();
/// A fresh span id, for spans folded in from elsewhere.
[[nodiscard]] std::uint64_t next_id();
/// Append a finished span recorded elsewhere (the server's sink).
void add(SpanRecord record);
/// All spans recorded so far, in finish order.
[[nodiscard]] std::vector<SpanRecord> snapshot();
}  // namespace tracer

class Span {
 public:
  /// Name is `prefix` + `suffix`. `op` 0 inherits the enclosing span's
  /// operation, or starts a new one at a root.
  explicit Span(std::string_view prefix, std::string_view suffix = {},
                std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  Span* outer_ = nullptr;
};

/// Durations (ms) of every span with this exact name.
[[nodiscard]] std::vector<double> span_durations_ms(
    const std::vector<SpanRecord>& spans, std::string_view name);

/// Per-name and per-module (text before the first '.') table of count,
/// total and self time.
void print_span_table(const std::vector<SpanRecord>& spans, std::ostream& os);

/// One JSON object per line.
void write_spans_jsonl(const std::vector<SpanRecord>& spans,
                       const std::string& path);

}  // namespace perfbench
