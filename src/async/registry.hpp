#pragma once

// Dependency derivation for the task graph (docs/MODEL.md §11).
//
// Producers declare which named resources a task reads or writes; the
// registry keeps a per-resource table {last_writer, readers} and derives
// the task's data dependencies from it:
//   read  after write  (RAW): depend on the last writer;
//   write after write  (WAW): depend on the last writer;
//   write after read   (WAR): depend on every reader since that write.
// A write retires the reader list.  Dependency lists come out sorted and
// deduplicated, so graph construction is deterministic for a given
// submission order.

#include <map>
#include <string>
#include <vector>

#include "async/task.hpp"

namespace toast::async {

struct ResourceUse {
  std::string name;
  bool write = false;
};

inline ResourceUse reads(std::string name) { return {std::move(name), false}; }
inline ResourceUse writes(std::string name) { return {std::move(name), true}; }

class TaskRegistry {
 public:
  explicit TaskRegistry(TaskGraph& graph) : graph_(graph) {}

  /// Append `t` to the graph, deriving its deps from `uses` against the
  /// version table, and commit the uses.  Returns the task id.
  int add(Task t, const std::vector<ResourceUse>& uses);

  /// Append a patch task to alt_tasks.  Patches run driver-ordered on
  /// the serial host lane, so no dependencies are derived and the
  /// version table is untouched (the patch replaces a body that never
  /// committed).  Returns the alt index.
  int add_alt(Task t);

 private:
  struct Res {
    int last_writer = -1;
    std::vector<int> readers;  ///< readers since the last write
  };

  TaskGraph& graph_;
  std::map<std::string, Res> res_;
};

}  // namespace toast::async
