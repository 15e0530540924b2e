#pragma once

// Shared helpers for the figure benchmarks: table printing, command-line
// options, and a small JSON writer for the machine-readable output mode.
//
// Every figure benchmark accepts:
//   --json <path>    write results as JSON (the CI smoke mode;
//                    scripts/check_bench.py threshold-checks the file)
//   --trace <path>   write Chrome trace-event JSON of the modelled runs
//                    (one file per backend, suffixed before the extension)
//   --faults <path>  deterministic fault plan (toastcase-fault-plan-v1)
//                    applied to the modelled runs; benchmarks that do not
//                    model faults ignore it
//   --policy <path>  resilience policy (toastcase-resilience-policy-v1)
//                    governing recovery at the fault sites; benchmarks
//                    that do not consult policies ignore it
//   --comm <mode>    "model" (closed-form allreduce) or "engine"
//                    (step-scheduled comm engine); job benchmarks only
//
// The writer is self-contained (no dependency on toast_obs) so the
// LoC-counting benchmarks that only link toast_tools can use it too.

#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace toast::bench {

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline std::string fmt_seconds(double s) {
  char buf[64];
  if (s >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f s", s);
  } else if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  }
  return buf;
}

// --- command line -----------------------------------------------------------

struct BenchOptions {
  std::string json_path;      // empty = human output only
  std::string trace_path;     // empty = no trace export
  std::string faults_path;    // empty = no fault plan
  std::string policy_path;    // empty = no resilience policy
  std::string schedule_path;  // toastcase-schedule-v1 config artifact
  std::string staging;        // "naive" | "pipelined" | empty (bench default)
  std::string comm;           // "model" | "engine" | empty (bench default)
  bool prefetch = false;      // plan-level transfer/compute overlap
  bool tuned = false;         // run the schedule autotuner per row
};

/// One command-line flag: a value flag writes its argument into *value
/// (validated against the "a|b|c" list in `accepted` when non-null); a
/// switch flag (value == nullptr) sets *toggle.  One table drives
/// matching, validation and the --help text — the per-flag if/else
/// chains the benchmarks used to copy from each other are gone.
struct BenchFlag {
  const char* name;
  std::string* value = nullptr;
  bool* toggle = nullptr;
  const char* accepted = nullptr;
};

inline bool flag_accepts(const char* accepted, const std::string& v) {
  const std::string list = accepted;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t bar = list.find('|', pos);
    if (v == list.substr(pos, bar == std::string::npos ? bar : bar - pos)) {
      return true;
    }
    if (bar == std::string::npos) {
      return false;
    }
    pos = bar + 1;
  }
}

/// Parse the shared benchmark flags plus any bench-specific `extra`
/// value flags (e.g. bench_plan's --dump-plan), with one shared
/// missing-value / unknown-flag / validation path for all of them.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::vector<BenchFlag> extra = {}) {
  BenchOptions opt;
  std::vector<BenchFlag> flags = {
      {"--json", &opt.json_path},
      {"--trace", &opt.trace_path},
      {"--faults", &opt.faults_path},
      {"--policy", &opt.policy_path},
      {"--schedule", &opt.schedule_path},
      {"--staging", &opt.staging, nullptr, "naive|pipelined"},
      {"--comm", &opt.comm, nullptr, "model|engine"},
      {"--prefetch", nullptr, &opt.prefetch},
      {"--tuned", nullptr, &opt.tuned},
  };
  flags.insert(flags.end(), extra.begin(), extra.end());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::string usage = "usage: ";
      usage += argv[0];
      for (const auto& f : flags) {
        usage += " [";
        usage += f.name;
        if (f.value != nullptr) {
          usage += " ";
          usage += f.accepted != nullptr ? f.accepted : "<path>";
        }
        usage += "]";
      }
      std::printf("%s\n", usage.c_str());
      std::exit(0);
    }
    const BenchFlag* match = nullptr;
    for (const auto& f : flags) {
      if (arg == f.name) {
        match = &f;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
    if (match->value == nullptr) {
      *match->toggle = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value\n", argv[0], match->name);
      std::exit(2);
    }
    *match->value = argv[++i];
    if (match->accepted != nullptr &&
        !flag_accepts(match->accepted, *match->value)) {
      std::fprintf(stderr, "%s: %s wants %s, got '%s'\n", argv[0],
                   match->name, match->accepted, match->value->c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Read a JSON artifact named on the command line with `load` (a
/// load_file).  An unreadable file or a parse error exits 2 with its
/// message, like a bad flag, instead of aborting through std::terminate.
template <typename Load>
auto load_artifact(const char* argv0, const std::string& path, Load load) {
  try {
    return load(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv0, e.what());
    std::exit(2);
  }
}

/// "out.json" + "jax" -> "out.jax.json" (per-backend trace files).
inline std::string suffixed_path(const std::string& path,
                                 const std::string& tag) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

// --- JSON writing -----------------------------------------------------------

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Streaming JSON writer with automatic comma placement.  Usage:
///   JsonWriter w(out);
///   w.obj_open(); w.kv("schema", "..."); w.arr_open("rows");
///   w.obj_open(); w.kv("x", 1.0); w.obj_close(); w.arr_close();
///   w.obj_close();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void obj_open(const std::string& key = {}) {
    comma();
    write_key(key);
    out_ << "{";
    need_comma_.push_back(false);
  }
  void obj_close() {
    out_ << "}";
    pop();
  }
  void arr_open(const std::string& key = {}) {
    comma();
    write_key(key);
    out_ << "[";
    need_comma_.push_back(false);
  }
  void arr_close() {
    out_ << "]";
    pop();
  }

  void kv(const std::string& key, const std::string& value) {
    comma();
    write_key(key);
    out_ << '"' << json_escape(value) << '"';
    mark();
  }
  void kv(const std::string& key, const char* value) {
    kv(key, std::string(value));
  }
  void kv(const std::string& key, double value) {
    comma();
    write_key(key);
    write_number(value);
    mark();
  }
  void kv(const std::string& key, long value) {
    comma();
    write_key(key);
    out_ << value;
    mark();
  }
  void kv(const std::string& key, int value) { kv(key, long{value}); }
  void kv(const std::string& key, bool value) {
    comma();
    write_key(key);
    out_ << (value ? "true" : "false");
    mark();
  }
  /// Array element.
  void value(double v) {
    comma();
    write_number(v);
    mark();
  }
  void value(const std::string& v) {
    comma();
    out_ << '"' << json_escape(v) << '"';
    mark();
  }

 private:
  void write_key(const std::string& key) {
    if (!key.empty()) {
      out_ << '"' << json_escape(key) << "\":";
    }
  }
  void write_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
  }
  void comma() {
    if (!need_comma_.empty() && need_comma_.back()) {
      out_ << ",";
    }
  }
  void mark() {
    if (!need_comma_.empty()) {
      need_comma_.back() = true;
    }
  }
  void pop() {
    if (!need_comma_.empty()) {
      need_comma_.pop_back();
    }
    mark();
  }

  std::ostream& out_;
  std::vector<bool> need_comma_;
};

}  // namespace toast::bench
