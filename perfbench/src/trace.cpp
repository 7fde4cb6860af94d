#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Recorder::Recorder(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Recorder::open(const char* name, int job) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.job = job;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Recorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Spans close in LIFO order under RAII; tolerate an out-of-order close
  // by dropping everything opened after it.
  while (!stack_.empty()) {
    int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (s.end_us - s.start_us) - covered;
  }
  return out;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& process) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"" +
         escape(process) + "\"}}";
  const std::vector<double> self = self_times_us(spans);
  char buf[200];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += ",\n{\"name\":\"" + escape(s.name) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"job\":%d,"
                  "\"self_us\":%.3f}}",
                  s.start_us, s.end_us - s.start_us, i, s.parent, s.job,
                  self[i]);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
