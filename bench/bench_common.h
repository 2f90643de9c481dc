// Shared helpers for the figure-reproduction harnesses: a tiny flag parser,
// aligned table printing, and optional CSV / JSON dumping. Every harness runs
// with no arguments at laptop scale; pass --nodes / --requests etc. to scale
// up (--help lists a harness's flags with their defaults; unknown flags are
// rejected), --csv PATH to dump the series for plotting, and --json PATH for
// machine-readable output (the perf-trajectory format checked in as
// BENCH_*.json). The google-benchmark micro harnesses accept the same
// --json PATH spelling via TranslateJsonFlag.

#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace piggy::bench {

/// \brief "--key value" flag parser with typed getters.
///
/// A harness reads every flag it takes through the getters first, then calls
/// Finish() before doing any work. The getters record each key and its
/// default, so the set of valid flags is exactly the set of keys read; there
/// is no second list to keep in step. Finish() prints that set and exits 0
/// on `--help`, and exits 2 with the set on an unknown key, a key without a
/// value, a stray argument, or a numeric flag whose value does not parse in
/// full (`--nodes 10k`), so a typo never runs some other scale instead.
class Flags {
 public:
  Flags(int argc, char** argv) : prog_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_ = true;
      } else if (arg.rfind("--", 0) != 0) {
        Error("unexpected argument '" + arg + "'");
      } else if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        Error("flag " + arg + " needs a value");
      } else {
        values_[arg.substr(2)] = argv[++i];
      }
    }
  }

  int64_t Int(const std::string& key, int64_t def) {
    const std::string* value = Read(key, std::to_string(def));
    if (value == nullptr) return def;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(value->c_str(), &end, 10);
    if (errno != 0 || end == value->c_str() || *end != '\0') {
      Error("--" + key + " expects an integer, got '" + *value + "'");
      return def;
    }
    return v;
  }

  double Double(const std::string& key, double def) {
    const std::string* value = Read(key, FormatDouble(def));
    if (value == nullptr) return def;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(value->c_str(), &end);
    if (errno != 0 || end == value->c_str() || *end != '\0') {
      Error("--" + key + " expects a number, got '" + *value + "'");
      return def;
    }
    return v;
  }

  std::string Str(const std::string& key, const std::string& def) {
    const std::string* value = Read(key, def);
    return value == nullptr ? def : *value;
  }

  /// Ends flag reading: handles `--help`, then rejects bad or unread flags.
  void Finish() {
    finished_ = true;
    if (help_) {
      PrintUsage(stdout);
      std::exit(0);
    }
    for (const auto& [key, value] : values_) {
      if (defaults_.count(key) == 0) Error("unknown flag --" + key);
    }
    if (!error_.empty()) {
      std::fprintf(stderr, "%s: %s\n", prog_.c_str(), error_.c_str());
      PrintUsage(stderr);
      std::exit(2);
    }
  }

 private:
  const std::string* Read(const std::string& key, std::string def) {
    PIGGY_CHECK(!finished_) << "flag --" << key << " read after Finish()";
    defaults_.emplace(key, std::move(def));
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  static std::string FormatDouble(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  void Error(const std::string& message) {
    if (error_.empty()) error_ = message;
  }

  void PrintUsage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [--key value]...\nvalid flags:\n", prog_.c_str());
    for (const auto& [key, def] : defaults_) {
      std::fprintf(out, "  --%s (default '%s')\n", key.c_str(), def.c_str());
    }
  }

  std::string prog_;
  bool help_ = false;
  bool finished_ = false;
  std::string error_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> defaults_;
};

/// \brief Collects rows and prints them as an aligned table (and CSV).
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> row) {
    PIGGY_CHECK_EQ(row.size(), columns_.size());
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> width(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&width](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    for (size_t c = 0; c < columns_.size(); ++c) {
      std::printf("%s  ", std::string(width[c], '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::fflush(stdout);
  }

  void WriteCsv(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << StrJoin(columns_, ",") << "\n";
    for (const auto& row : rows_) out << StrJoin(row, ",") << "\n";
    std::printf("[csv written to %s]\n", path.c_str());
  }

  /// Writes the rows as a JSON array of objects keyed by column name.
  /// Numeric-looking cells are emitted as JSON numbers so trajectory tooling
  /// can diff runs without re-parsing strings.
  void WriteJson(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "[\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out << "  {";
      for (size_t c = 0; c < columns_.size(); ++c) {
        out << (c == 0 ? "" : ", ") << JsonString(columns_[c]) << ": "
            << JsonValue(rows_[r][c]);
      }
      out << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    std::printf("[json written to %s]\n", path.c_str());
  }

 private:
  static std::string JsonString(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) < 0x20) {
        out += StrFormat("\\u%04x", ch);
        continue;
      }
      out += ch;
    }
    return out + "\"";
  }

  // Emits a cell verbatim when it is already valid JSON number syntax (no
  // inf/nan/hex/leading zeros, which JSON cannot represent), quoted otherwise.
  static std::string JsonValue(const std::string& s) {
    size_t i = !s.empty() && s[0] == '-' ? 1 : 0;
    const bool starts_numeric =
        i < s.size() && s[i] >= '0' && s[i] <= '9' &&
        !(s[i] == '0' && i + 1 < s.size() && s[i + 1] != '.' && s[i + 1] != 'e');
    // JSON additionally requires a digit after any decimal point ("3." and
    // "3.e5" parse via strtod but are not JSON numbers).
    const size_t dot = s.find('.');
    const bool dot_ok =
        dot == std::string::npos ||
        (dot + 1 < s.size() && s[dot + 1] >= '0' && s[dot + 1] <= '9');
    if (starts_numeric && dot_ok && s.find_first_of("xX") == std::string::npos) {
      char* end = nullptr;
      double v = std::strtod(s.c_str(), &end);
      const bool finite = v == v && v <= 1e308 && v >= -1e308;
      if (end == s.c_str() + s.size() && finite) return s;
    }
    return JsonString(s);
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int precision = 3) {
  return StrFormat("%.*f", precision, v);
}

/// Rewrites a "--json PATH" flag pair into google-benchmark's native
/// --benchmark_out=PATH / --benchmark_out_format=json flags, so the micro
/// harnesses share the figure harnesses' spelling. `storage` owns the
/// rewritten strings and must outlive the returned argv.
inline std::vector<char*> TranslateJsonFlag(int argc, char** argv,
                                            std::vector<std::string>& storage) {
  storage.clear();
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      storage.push_back(argv[i]);
    }
  }
  std::vector<char*> out;
  out.reserve(storage.size());
  for (std::string& s : storage) out.push_back(s.data());
  return out;
}

// The shared main body for the google-benchmark micro harnesses. Only
// defined when <benchmark/benchmark.h> was included first, so the figure
// harnesses (which do not link google-benchmark) can keep using this header.
#ifdef BENCHMARK_BENCHMARK_H_
inline int RunBenchmarkMain(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args = TranslateJsonFlag(argc, argv, storage);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
#endif  // BENCHMARK_BENCHMARK_H_

inline void Banner(const std::string& title, const std::string& expectation) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), expectation.c_str());
}

}  // namespace piggy::bench
