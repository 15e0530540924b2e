#include "async/registry.hpp"

#include <set>

namespace toast::async {

const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::kOverhead:
      return "overhead";
    case TaskKind::kEnsure:
      return "ensure";
    case TaskKind::kMap:
      return "map";
    case TaskKind::kUpload:
      return "upload";
    case TaskKind::kLaunch:
      return "launch";
    case TaskKind::kDownload:
      return "download";
    case TaskKind::kEvict:
      return "evict";
    case TaskKind::kSyncTransfers:
      return "sync_transfers";
  }
  return "unknown";
}

int TaskRegistry::add(Task t, const std::vector<ResourceUse>& uses) {
  const int id = static_cast<int>(graph_.tasks.size());
  std::set<int> deps;
  for (const ResourceUse& use : uses) {
    const Res& r = res_[use.name];
    if (r.last_writer >= 0) deps.insert(r.last_writer);  // RAW / WAW
    if (use.write) {
      for (int rd : r.readers) deps.insert(rd);  // WAR
    }
  }
  for (const ResourceUse& use : uses) {
    Res& r = res_[use.name];
    if (use.write) {
      r.last_writer = id;
      r.readers.clear();
    } else {
      r.readers.push_back(id);
    }
  }
  t.id = id;
  t.deps.assign(deps.begin(), deps.end());
  graph_.tasks.push_back(std::move(t));
  return id;
}

int TaskRegistry::add_alt(Task t) {
  const int idx = static_cast<int>(graph_.alt_tasks.size());
  t.id = idx;
  graph_.alt_tasks.push_back(std::move(t));
  return idx;
}

}  // namespace toast::async
