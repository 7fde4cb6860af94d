#pragma once

// In-memory span recorder for the traced replay.  A span is one call into
// a layer, timed from the benchmark's side of the call: name, start, end,
// the span that was open when it began (its parent) and the job it serves.
// Spans stay in memory until the replay ends, then go out as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int job = -1;

  double ms() const { return (end_us - start_us) / 1000.0; }
};

/// Single-threaded recorder.  With recording off every call is a no-op, so
/// the same replay code runs with and without tracing and the difference
/// in wall time is the tracing overhead.
class Recorder {
 public:
  explicit Recorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Open a span nested in the innermost open one; -1 when recording is
  /// off.
  int open(const char* name, int job);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Recorder& rec, const char* name, int job)
      : rec_(rec), id_(rec.open(name, job)) {}
  ~Scope() { rec_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& rec_;
  int id_;
};

/// Self time of every span in microseconds: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, one process lane named
/// `process`); each event's args carry its span index, parent, job and
/// self time (`self_us`).
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& process);

}  // namespace perfbench
