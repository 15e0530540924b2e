#pragma once

// Task-graph vocabulary of the pipeline post-pass (docs/MODEL.md §11).
//
// A Task is one unit of pipeline work — a kernel launch, an H2D/D2H
// transfer, an eviction — with *explicit data dependencies* (indices of
// earlier tasks) instead of the implicit program-order dependencies of
// staged replay.  A lowered pipeline graph has one task per plan step
// (lower.hpp); core::execute_plan runs the steps, and the graph only
// describes them: which lane each one occupies, which earlier tasks it
// waits for, and — once the run is over — when it started and what it
// cost.
//
// Determinism rules (the §11 contract): task ids are submission order,
// dependency lists are sorted and placement walks tasks in the driver's
// run order.  Under those rules the placed times are a pure function of
// (plan, cost model, fault plan).

#include <cstdint>
#include <string>
#include <vector>

namespace toast::async {

enum class TaskKind : std::uint8_t {
  kOverhead,       ///< serial framework overhead charge
  kEnsure,         ///< host field allocation (op->ensure_fields)
  kMap,            ///< device shadow allocation
  kUpload,         ///< H2D transfer
  kLaunch,         ///< operator kernel execution (device or host)
  kDownload,       ///< D2H transfer
  kEvict,          ///< drop a device mapping
  kSyncTransfers,  ///< drain the prefetch copy engine
};

inline constexpr int kNumTaskKinds = 8;

const char* to_string(TaskKind k);

struct Task {
  int id = -1;
  TaskKind kind = TaskKind::kLaunch;
  std::string name;
  /// Attribution lane (index into TaskGraph::lane_names).
  int lane = 0;
  /// Data dependencies (RAW/WAW/WAR), sorted ascending; always earlier
  /// task ids.  Derived by TaskRegistry from declared resource uses.
  std::vector<int> deps;

  // What the run did (filled from the driver's step log):
  double start = 0.0;
  double seconds = 0.0;
  bool ran = false;
};

struct TaskGraph {
  std::vector<Task> tasks;
  std::vector<Task> alt_tasks;  ///< patch tasks (driver-ordered, no deps)
  std::vector<std::string> lane_names;
};

}  // namespace toast::async
