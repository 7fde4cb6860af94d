// What every bench program shares: steady_clock timing (accurate at these
// micro- to second-scale durations), one ns/op loop, a JSON document that
// places its own commas, a file writer that checks its close, and a strict
// reader of the few options each bench takes.

#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace eda::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// ns per op of each of `ops`: one warm-up call each, then the best of 5
/// timed batches of `iters` calls.  The ops' batches take turns, so a
/// drift in the machine's speed reaches each of them alike.
inline std::vector<double> ns_per_op_each(
    int iters, const std::vector<std::function<void()>>& ops) {
  for (const std::function<void()>& op : ops) op();
  std::vector<double> best(ops.size(), 0.0);
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < iters; ++i) ops[k]();
      const double ns = seconds_since(t0) * 1e9 / iters;
      if (rep == 0 || ns < best[k]) best[k] = ns;
    }
  }
  return best;
}

inline double ns_per_op(int iters, const std::function<void()>& op) {
  return ns_per_op_each(iters, {op}).front();
}

/// Named values in order: one flat section of a bench's JSON.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Writes `text` to `path`; false when it cannot be opened, written or
/// closed.
inline bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool all = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && all;
}

/// One bench's JSON document, built in order: it opens with the
/// `benchmark` name, `field` adds a value to the innermost open object
/// (under its key) or array (the key is ignored), `object` and `array`
/// open a container there, and `end` closes it.  Integers and booleans
/// keep their type, other numbers get 6 significant digits, and strings
/// (the benches' own names) are written unescaped.
class Json {
 public:
  explicit Json(std::string benchmark) : benchmark_(std::move(benchmark)) {
    field("benchmark", benchmark_);
  }

  template <class T>
  Json& field(const std::string& key, const T& value) {
    item(key);
    if constexpr (std::is_same_v<T, bool>) {
      text_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      text_ += std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(value));
      text_ += buf;
    } else {
      text_ += '"' + std::string(value) + '"';
    }
    return *this;
  }
  /// `metrics` as one object of numbers under `key`.
  Json& section(const std::string& key, const Metrics& metrics) {
    object(key);
    for (const auto& [name, value] : metrics) field(name, value);
    return end();
  }
  Json& object(const std::string& key = "") { return open(key, "{}"); }
  Json& array(const std::string& key) { return open(key, "[]"); }
  Json& end() {
    const char close = closers_.back();
    closers_.pop_back();
    if (!empty_) newline();
    text_ += close;
    empty_ = false;
    return *this;
  }
  /// Closes every open container and writes the document to `path`, and
  /// says so; false, said on stderr, when it cannot.
  bool write(const std::string& path) {
    while (!closers_.empty()) end();
    if (!write_file(path, text_ + "\n")) {
      std::fprintf(stderr, "%s: cannot write %s\n", benchmark_.c_str(),
                   path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  Json& open(const std::string& key, const char* brackets) {
    item(key);
    text_ += brackets[0];
    closers_.push_back(brackets[1]);
    empty_ = true;
    return *this;
  }
  void item(const std::string& key) {
    if (!empty_) text_ += ',';
    empty_ = false;
    newline();
    if (closers_.back() == '}') text_ += '"' + key + "\": ";
  }
  void newline() {
    text_ += '\n';
    text_.append(2 * closers_.size(), ' ');
  }

  std::string benchmark_;
  std::string text_ = "{";
  std::vector<char> closers_{'}'};  // each open container's, innermost last
  bool empty_ = true;               // the innermost container has no item
};

/// A bench's command line, read strictly: each option is declared with the
/// variable it sets, and an unknown option, a missing value, or a number
/// that is malformed or out of range prints why and the usage, and exits 2.
class Args {
 public:
  explicit Args(std::string program) : program_(std::move(program)) {}

  Args& flag(const std::string& name, bool& on) {
    return add(name, "", "", [&on](const char*) { return on = true; });
  }
  Args& text(const std::string& name, const std::string& metavar,
             std::string& value) {
    return add(name, metavar, "", [&value](const char* v) {
      value = v;
      return true;
    });
  }
  /// A number in [lo, hi], and a whole one when T is an integer type.
  template <class T>
  Args& number(const std::string& name, const std::string& metavar, T& value,
               T lo, T hi) {
    char range[64];
    std::snprintf(range, sizeof range, " (%g to %g)", 1.0 * lo, 1.0 * hi);
    return add(name, metavar, range, [&value, lo, hi](const char* v) {
      char* end = nullptr;
      const double x = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(x >= lo && x <= hi)) return false;
      if (std::is_integral_v<T> && x != std::floor(x)) return false;
      value = static_cast<T>(x);
      return true;
    });
  }

  void parse(int argc, char** argv) const {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      const Option* opt = nullptr;
      for (const Option& o : options_) {
        if (o.name == arg) opt = &o;
      }
      if (opt == nullptr) fail("unknown option " + arg);
      if (opt->metavar.empty()) {
        opt->set(nullptr);
      } else if (a + 1 >= argc) {
        fail("missing " + opt->metavar + " after " + arg);
      } else if (!opt->set(argv[++a])) {
        fail("bad " + opt->metavar + " '" + argv[a] + "' after " + arg +
             opt->range);
      }
    }
  }

 private:
  struct Option {
    std::string name, metavar;  // a flag has no metavar
    std::string range;          // the values a number accepts, for `fail`
    std::function<bool(const char*)> set;
  };

  Args& add(const std::string& name, const std::string& metavar,
            const std::string& range, std::function<bool(const char*)> set) {
    options_.push_back({name, metavar, range, std::move(set)});
    return *this;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::string usage = "usage: " + program_;
    for (const Option& o : options_) {
      usage += " [" + o.name + (o.metavar.empty() ? "" : " ") + o.metavar + "]";
    }
    std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), why.c_str(),
                 usage.c_str());
    std::exit(2);
  }

  std::string program_;
  std::vector<Option> options_;
};

}  // namespace eda::bench
