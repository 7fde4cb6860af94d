// Row record, cell format, JSON writer and verdict check shared by
// bench_table1 and bench_table2 (the paper's Tables I and II).

#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "verify/common.h"

namespace eda::bench {

/// One table row: the original circuit's size, the HASH step's seconds and
/// each post-hoc engine's result on (original, retimed), in column order.
struct TableRow {
  std::string name;
  int flipflops = 0, gates = 0;
  double hash_seconds = 0.0;
  std::vector<std::pair<std::string, verify::VerifyResult>> engines;
};

/// Seconds as "%7.3f", or "-" for a run that exceeded its budget (the
/// paper's dashes).
inline std::string cell(bool completed, double sec) {
  if (!completed) return "      -";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%7.3f", sec);
  return buf;
}

/// Writes `rows` as one JSON object; false when `path` cannot be opened.
inline bool write_table_json(const std::string& path, const char* benchmark,
                             double timeout_sec,
                             const std::vector<TableRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark);
  std::fprintf(f, "  \"timeout_sec\": %.3f,\n  \"rows\": [", timeout_sec);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TableRow& r = rows[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"flipflops\": %d, "
                 "\"gates\": %d, \"hash_seconds\": %.6f, \"engines\": {",
                 i == 0 ? "" : ",", r.name.c_str(), r.flipflops, r.gates,
                 r.hash_seconds);
    for (std::size_t k = 0; k < r.engines.size(); ++k) {
      const verify::VerifyResult& v = r.engines[k].second;
      std::fprintf(f,
                   "%s\n      \"%s\": {\"seconds\": %.6f, \"completed\": %s, "
                   "\"equivalent\": %s, \"failure\": \"%s\"}",
                   k == 0 ? "" : ",", r.engines[k].first.c_str(), v.seconds,
                   v.completed ? "true" : "false",
                   v.equivalent ? "true" : "false",
                   verify::failure_kind_name(v.failure));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

/// Every row pairs a circuit with a correct retiming of it, so a completed
/// NONEQUIV cell is an engine bug.  Prints each one to stderr and returns
/// how many there were.
inline int report_nonequiv(const std::vector<TableRow>& rows) {
  int bad = 0;
  for (const TableRow& r : rows) {
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
