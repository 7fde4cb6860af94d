// Self-tests of the benchmark's own arithmetic: nearest-rank percentiles
// and the ten-samples-beyond rule, ratio-with-base accounting, and span
// self time.  Plain asserts that stay on in every build (no test library).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::nearest_rank;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  CHECK(near(nearest_rank(v, 50), 50));
  CHECK(near(nearest_rank(v, 90), 90));
  CHECK(near(nearest_rank(v, 99), 99));
  CHECK(near(nearest_rank(v, 100), 100));
  CHECK(near(nearest_rank({7.0}, 90), 7.0));
  CHECK(near(nearest_rank({}, 50), 0.0));
  // Nearest rank never interpolates: rank ceil(0.9 * 11) = 10.
  std::vector<double> w = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  CHECK(near(nearest_rank(w, 90), 10));
  CHECK(near(nearest_rank(w, 50), 6));

  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(samples_beyond(1000, 90) == 100);
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(percentile_supported(100, 90));
  CHECK(!percentile_supported(99, 90));
  CHECK(!percentile_supported(999, 99));
  CHECK(percentile_supported(1000, 99));

  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  CHECK(near(perfbench::mean({1, 2, 3, 6}), 3));
}

void test_ratio() {
  perfbench::Ratio r;
  CHECK(near(r.value(), 0.0));
  CHECK(r.str() == "0.0000 (0/0)");
  r.add(true);
  r.add(false);
  r.add(false);
  r.add(true);
  CHECK(r.num == 2 && r.den == 4);
  CHECK(near(r.value(), 0.5));
  r += perfbench::Ratio{1, 4};
  CHECK(r.num == 3 && r.den == 8);
  CHECK(r.str() == "0.3750 (3/8)");
}

perfbench::Span span(const char* name, double lo, double hi, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_us = lo;
  s.end_us = hi;
  s.parent = parent;
  return s;
}

void test_self_time() {
  using perfbench::self_times_us;
  // job [0,100] with children [10,30] and [50,60]; the first child has a
  // grandchild [12,20] that counts against the child, not the job.
  std::vector<perfbench::Span> spans = {
      span("job", 0, 100, -1), span("a", 10, 30, 0), span("b", 50, 60, 0),
      span("a.inner", 12, 20, 1)};
  std::vector<double> self = self_times_us(spans);
  CHECK(near(self[0], 70));
  CHECK(near(self[1], 12));
  CHECK(near(self[2], 10));
  CHECK(near(self[3], 8));
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent's interval.
  std::vector<perfbench::Span> odd = {span("job", 0, 50, -1),
                                      span("x", 10, 30, 0),
                                      span("y", 20, 40, 0),
                                      span("z", 45, 70, 0)};
  CHECK(near(self_times_us(odd)[0], 50 - 30 - 5));

  // The recorder nests spans by open order and closes them LIFO.
  perfbench::Recorder rec(true);
  {
    perfbench::Scope outer(rec, "outer", 3);
    perfbench::Scope inner(rec, "inner", 3);
  }
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[0].parent == -1 && rec.spans()[1].parent == 0);
  CHECK(rec.spans()[1].job == 3);
  CHECK(rec.spans()[0].end_us >= rec.spans()[1].end_us);
  perfbench::Recorder off(false);
  { perfbench::Scope s(off, "ignored", 0); }
  CHECK(off.spans().empty());
  std::string json = perfbench::chrome_trace_json(rec.spans(), "p");
  CHECK(json.find("\"traceEvents\"") != std::string::npos);
  CHECK(json.find("\"name\":\"inner\",\"ph\":\"X\"") != std::string::npos);
  CHECK(json.find("\"self_us\":") != std::string::npos);
}

}  // namespace

int main() {
  test_percentiles();
  test_ratio();
  test_self_time();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
