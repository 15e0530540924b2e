#pragma once

// Persisted schedule library (PR 9 follow-on; docs/MODEL.md §12-13).
//
// The autotuner emits winners as "toastcase-schedule-v1" artifacts; the
// library is the per-(workload, topology) index over those artifacts
// that lets a *service* pick a tuned schedule for a job it has never
// seen tuned itself.  The index file ("toastcase-schedule-library-v1",
// read strictly like every toastcase schema, docs/ROBUSTNESS.md) lives
// beside the artifacts it references:
//
// {
//   "schema": "toastcase-schedule-library-v1",
//   "entries": [
//     {"workload": "large", "backend": "omp-target",
//      "nodes": 8, "procs_per_node": 16, "path": "tuned_large_omp.json"}
//   ]
// }
//
// `path` is resolved relative to the index file's directory and each
// referenced schedule is loaded (strictly) at index-load time, so a
// library that loads is a library whose every entry is usable.
//
// Lookup is by (workload, nodes, procs_per_node, backend).  `workload`
// must match exactly; `backend` empty and `nodes`/`procs_per_node` zero
// are wildcards on the *entry* side.  The most specific match (most
// non-wildcard fields) wins; ties keep the earliest entry — the same
// determinism rule the tuner itself uses.

#include <string>
#include <vector>

#include "config/schedule.hpp"

namespace toast::tune {

struct LibraryEntry {
  std::string workload;        ///< "tiny" / "medium" / "large" / ...
  std::string backend;         ///< schedule backend slot; "" = any
  int nodes = 0;               ///< 0 = any
  int procs_per_node = 0;      ///< 0 = any
  std::string path;            ///< artifact path, relative to the index
  config::ScheduleConfig schedule;  ///< the loaded artifact
};

/// Lookup key: the job's workload name and resolved topology/backend.
struct LibraryQuery {
  std::string workload;
  int nodes = 0;
  int procs_per_node = 0;
  std::string backend;
};

class ScheduleLibrary {
 public:
  ScheduleLibrary() = default;

  /// Load a "toastcase-schedule-library-v1" index and every schedule it
  /// references; throws std::runtime_error on malformed input, unknown
  /// keys at any nesting level, or an unloadable artifact.
  static ScheduleLibrary load_file(const std::string& index_path);
  /// Parse from text; `base_dir` resolves relative artifact paths.
  static ScheduleLibrary parse(const std::string& text,
                               const std::string& base_dir);

  bool empty() const { return entries_.empty(); }
  const std::vector<LibraryEntry>& entries() const { return entries_; }

  /// Most specific entry matching the query, or nullptr on miss (the
  /// caller falls back to the default schedule and counts the miss).
  const LibraryEntry* lookup(const LibraryQuery& q) const;

 private:
  static ScheduleLibrary from_value(const obs::json::Value& doc,
                                    const std::string& where,
                                    const std::string& base_dir);

  std::vector<LibraryEntry> entries_;
};

/// Convenience used by the job service: the matched schedule for
/// (workload, topology, backend), or nullptr.
const config::ScheduleConfig* library_lookup(const ScheduleLibrary& lib,
                                             const LibraryQuery& q);

}  // namespace toast::tune
