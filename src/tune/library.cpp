#include "tune/library.hpp"

#include <utility>

#include "obs/json.hpp"

namespace toast::tune {

namespace {

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string join(const std::string& dir, const std::string& rel) {
  if (!rel.empty() && rel.front() == '/') {
    return rel;  // absolute artifact path: use as-is
  }
  return dir.empty() ? rel : dir + "/" + rel;
}

}  // namespace

ScheduleLibrary ScheduleLibrary::from_value(const obs::json::Value& doc,
                                            const std::string& where,
                                            const std::string& base_dir) {
  const auto r = obs::json::Reader::document(
      doc, where, "toastcase-schedule-library-v1");
  r.keys({"schema", "entries"});
  ScheduleLibrary lib;
  for (const auto& e : r.array("entries")) {
    e.keys({"workload", "backend", "nodes", "procs_per_node", "path"});
    LibraryEntry entry;
    entry.workload = e.string("workload");
    if (entry.workload.empty()) {
      e.fail("workload", "must not be empty");
    }
    entry.backend = e.string_or("backend", "");
    entry.nodes = e.integer_or("nodes", 0, 0);
    entry.procs_per_node = e.integer_or("procs_per_node", 0, 0);
    entry.path = e.string("path");
    entry.schedule =
        config::ScheduleConfig::load_file(join(base_dir, entry.path));
    lib.entries_.push_back(std::move(entry));
  }
  return lib;
}

ScheduleLibrary ScheduleLibrary::parse(const std::string& text,
                                       const std::string& base_dir) {
  return from_value(obs::json::Value::parse(text), "schedule library",
                    base_dir);
}

ScheduleLibrary ScheduleLibrary::load_file(const std::string& index_path) {
  return from_value(obs::json::load_file(index_path), index_path,
                    dir_of(index_path));
}

const LibraryEntry* ScheduleLibrary::lookup(const LibraryQuery& q) const {
  const LibraryEntry* best = nullptr;
  int best_score = -1;
  for (const LibraryEntry& e : entries_) {
    if (e.workload != q.workload) {
      continue;
    }
    int score = 0;
    if (!e.backend.empty()) {
      if (e.backend != q.backend) {
        continue;
      }
      ++score;
    }
    if (e.nodes != 0) {
      if (e.nodes != q.nodes) {
        continue;
      }
      ++score;
    }
    if (e.procs_per_node != 0) {
      if (e.procs_per_node != q.procs_per_node) {
        continue;
      }
      ++score;
    }
    // Strict >: ties keep the earliest entry (declaration order).
    if (score > best_score) {
      best = &e;
      best_score = score;
    }
  }
  return best;
}

const config::ScheduleConfig* library_lookup(const ScheduleLibrary& lib,
                                             const LibraryQuery& q) {
  const LibraryEntry* e = lib.lookup(q);
  return e == nullptr ? nullptr : &e->schedule;
}

}  // namespace toast::tune
