// The one row shape, text and JSON writers and verdict check shared by
// bench_table1 and bench_table2: the paper's Tables I and II and its other
// claims, each a list of rows.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "kernel/thm.h"
#include "verify/common.h"

namespace eda::bench {

/// One row of one paper claim (`claim` names the table or the ablation):
/// named seconds and counts in column order, and for a table's row each
/// post-hoc engine's result.
struct Row {
  Row() = default;
  Row(std::string claim_name, std::string row_name)
      : claim(std::move(claim_name)), name(std::move(row_name)) {}

  std::string claim, name;
  std::vector<std::pair<std::string, double>> seconds;
  std::vector<std::pair<std::string, unsigned long long>> counts;
  std::vector<std::pair<std::string, verify::VerifyResult>> engines;
};

/// Runs `step` and records its wall seconds under `column` and its kernel
/// inferences (a `Thm::theorems_constructed()` delta, exact only when no
/// other thread proves anything meanwhile) under `column + "_inferences"`.
template <class Step>
auto measure(Row& row, const std::string& column, Step&& step) {
  const std::uint64_t c0 = kernel::Thm::theorems_constructed();
  const Clock::time_point t0 = Clock::now();
  auto result = step();
  const std::uint64_t inferences = kernel::Thm::theorems_constructed() - c0;
  row.seconds.push_back({column, seconds_since(t0)});
  row.counts.push_back({column + "_inferences", inferences});
  return result;
}

/// Seconds as "%7.3f", or "-" for a run that exceeded its budget (the
/// paper's dashes).
inline std::string cell(bool completed, double sec) {
  if (!completed) return "      -";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%7.3f", sec);
  return buf;
}

/// Prints one claim's rows (all of one column layout) as a text table
/// titled `claim: title`: the name, each engine's cell, each seconds
/// column, then each count column.
inline void print_rows(const char* title, const std::vector<Row>& rows) {
  const Row& head = rows.front();
  std::printf("\n%s: %s\n%8s |", head.claim.c_str(), title, "");
  for (const auto& e : head.engines) std::printf(" %7s", e.first.c_str());
  for (const auto& s : head.seconds) std::printf(" %9s", s.first.c_str());
  std::printf(" |");
  for (const auto& c : head.counts) std::printf(" %s", c.first.c_str());
  std::printf("\n");
  for (const Row& r : rows) {
    std::printf("%8s |", r.name.c_str());
    for (const auto& e : r.engines) {
      std::printf(" %s", cell(e.second.completed, e.second.seconds).c_str());
    }
    for (const auto& s : r.seconds) std::printf(" %9.4f", s.second);
    std::printf(" |");
    for (const auto& [name, count] : r.counts) {
      std::printf(" %*llu", static_cast<int>(name.size()), count);
    }
    std::printf("\n");
  }
}

/// Prints `claim`'s rows under `title` and appends them to `all`.
inline void add_claim(std::vector<Row>& all, const char* title,
                      const std::vector<Row>& claim) {
  print_rows(title, claim);
  all.insert(all.end(), claim.begin(), claim.end());
}

/// The compiler family that built the counts: inference counts can depend
/// on it, so tools/check_tables.py compares them only within one family.
inline const char* compiler_family() {
#if defined(__clang__)
  return "clang";
#elif defined(__GNUC__)
  return "gcc";
#else
  return "other";
#endif
}

/// Writes `rows` as one JSON object with the run's parameters; `max_n` is
/// left out when negative.  False when `path` cannot be written.
inline bool write_json(const std::string& path, const char* benchmark,
                       double timeout_sec, int max_n, unsigned jobs,
                       const std::vector<Row>& rows) {
  Json json(benchmark);
  json.field("compiler", compiler_family())
      .field("jobs", jobs)
      .field("timeout_sec", timeout_sec);
  if (max_n >= 0) json.field("max_n", max_n);
  json.array("rows");
  for (const Row& r : rows) {
    json.object().field("claim", r.claim).field("name", r.name);
    json.object("seconds");
    for (const auto& [name, sec] : r.seconds) json.field(name, sec);
    json.end().object("counts");
    for (const auto& [name, count] : r.counts) json.field(name, count);
    json.end().object("engines");
    for (const auto& [name, v] : r.engines) {
      json.object(name)
          .field("seconds", v.seconds)
          .field("completed", v.completed)
          .field("equivalent", v.equivalent)
          .field("failure", verify::failure_kind_name(v.failure))
          .end();
    }
    json.end().end();
  }
  return json.write(path);
}

/// Every table row pairs a circuit with a correct retiming of it, so a
/// completed NONEQUIV cell is an engine bug.  Prints each one to stderr and
/// returns how many there were.
inline int report_nonequiv(const std::vector<Row>& rows) {
  int bad = 0;
  for (const Row& r : rows) {
    for (const auto& [engine, v] : r.engines) {
      if (v.completed && !v.equivalent) {
        std::fprintf(stderr, "%s: %s reports NONEQUIV on a correct retiming\n",
                     r.name.c_str(), engine.c_str());
        ++bad;
      }
    }
  }
  return bad;
}

}  // namespace eda::bench
