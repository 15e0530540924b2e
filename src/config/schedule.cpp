#include "config/schedule.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "backend/manifest.hpp"
#include "obs/json.hpp"

namespace toast::config {

const char* to_string(Staging s) {
  switch (s) {
    case Staging::kPipelined:
      return "pipelined";
    case Staging::kNaive:
      return "naive";
  }
  return "unknown";
}

const char* to_string(CommMode m) {
  switch (m) {
    case CommMode::kModel:
      return "model";
    case CommMode::kEngine:
      return "engine";
  }
  return "unknown";
}

const char* to_string(CommAlgorithm a) {
  switch (a) {
    case CommAlgorithm::kRing:
      return "ring";
    case CommAlgorithm::kRecursive:
      return "recursive";
    case CommAlgorithm::kTree:
      return "tree";
  }
  return "unknown";
}

const char* to_string(SolverComm c) {
  switch (c) {
    case SolverComm::kStaged:
      return "staged";
    case SolverComm::kSync:
      return "sync";
    case SolverComm::kOverlap:
      return "overlap";
  }
  return "unknown";
}

Staging staging_from_string(const std::string& s) {
  if (s == "pipelined") return Staging::kPipelined;
  if (s == "naive") return Staging::kNaive;
  throw std::runtime_error("unknown staging mode: " + s);
}

CommMode comm_mode_from_string(const std::string& s) {
  if (s == "model") return CommMode::kModel;
  if (s == "engine") return CommMode::kEngine;
  throw std::runtime_error("unknown comm mode: " + s);
}

CommAlgorithm comm_algorithm_from_string(const std::string& s) {
  if (s == "ring") return CommAlgorithm::kRing;
  if (s == "recursive") return CommAlgorithm::kRecursive;
  if (s == "tree") return CommAlgorithm::kTree;
  throw std::runtime_error("unknown comm algorithm: " + s);
}

SolverComm solver_comm_from_string(const std::string& s) {
  if (s == "staged") return SolverComm::kStaged;
  if (s == "sync") return SolverComm::kSync;
  if (s == "overlap") return SolverComm::kOverlap;
  throw std::runtime_error("unknown solver async-comm mode: " + s);
}

core::Backend ScheduleConfig::backend_id() const {
  for (std::size_t i = 0; i < backend::backend_count; ++i) {
    if (backend == backend::name_of(i)) {
      return backend::id_of(i);
    }
  }
  throw std::runtime_error("schedule config: unknown backend slot '" +
                           backend + "'");
}

void ScheduleConfig::set_backend(core::Backend b) {
  const std::size_t idx = backend::index_of(b);
  if (idx == backend::npos) {
    throw std::runtime_error("schedule config: backend not in manifest");
  }
  backend = backend::name_of(idx);
}

namespace {

/// %.17g like the bench JsonWriter: round-trips doubles exactly, so the
/// canonical serialization (and the hash over it) is stable.
std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void ScheduleConfig::write_json(std::ostream& out) const {
  out << "{\"schema\":\"toastcase-schedule-v1\""
      << ",\"backend\":\"" << obs::json::escape(backend) << "\""
      << ",\"staging\":{\"mode\":\"" << to_string(staging.mode) << "\""
      << ",\"prefetch\":" << (staging.prefetch ? "true" : "false")
      << ",\"evict\":" << (staging.evict ? "true" : "false") << "}"
      << ",\"streams\":" << streams
      << ",\"comm\":{\"mode\":\"" << to_string(comm.mode) << "\""
      << ",\"algorithm\":\"" << to_string(comm.algorithm) << "\""
      << ",\"chunk_bytes\":" << fmt_number(comm.chunk_bytes) << "}"
      << ",\"solver\":{\"async_comm\":\"" << to_string(solver.async_comm)
      << "\"}"
      << ",\"shape\":{\"nodes\":" << shape.nodes
      << ",\"procs_per_node\":" << shape.procs_per_node << "}"
      << ",\"device\":{\"mps\":" << (device.mps ? "true" : "false")
      << ",\"jax_preallocate\":"
      << (device.jax_preallocate ? "true" : "false") << "}}";
}

std::string ScheduleConfig::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void ScheduleConfig::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  write_json(out);
  out << "\n";
}

std::uint64_t ScheduleConfig::hash() const {
  // FNV-1a over the canonical serialization.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ScheduleConfig::hash_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

namespace {

ScheduleConfig config_from_value(const obs::json::Value& doc,
                                 const std::string& where) {
  const auto r =
      obs::json::Reader::document(doc, where, "toastcase-schedule-v1");
  r.keys({"schema", "backend", "staging", "streams", "comm", "solver",
          "shape", "device"});

  ScheduleConfig cfg;
  // Resolve the slot eagerly so a bad name fails at parse time, not at use.
  r.string_as(
      "backend",
      [&cfg](const std::string& slot) {
        cfg.backend = slot;
        return cfg.backend_id();
      },
      cfg.backend.c_str());
  if (const auto staging = r.object("staging")) {
    staging->keys({"mode", "prefetch", "evict"});
    cfg.staging.mode = staging->string_as("mode", staging_from_string,
                                          to_string(cfg.staging.mode));
    cfg.staging.prefetch =
        staging->bool_or("prefetch", cfg.staging.prefetch);
    cfg.staging.evict = staging->bool_or("evict", cfg.staging.evict);
  }
  cfg.streams = r.integer_or("streams", cfg.streams, 1);
  if (const auto comm = r.object("comm")) {
    comm->keys({"mode", "algorithm", "chunk_bytes"});
    cfg.comm.mode = comm->string_as("mode", comm_mode_from_string,
                                    to_string(cfg.comm.mode));
    cfg.comm.algorithm =
        comm->string_as("algorithm", comm_algorithm_from_string,
                        to_string(cfg.comm.algorithm));
    cfg.comm.chunk_bytes =
        comm->number_or("chunk_bytes", cfg.comm.chunk_bytes, 0.0);
  }
  if (const auto solver = r.object("solver")) {
    solver->keys({"async_comm"});
    cfg.solver.async_comm =
        solver->string_as("async_comm", solver_comm_from_string,
                          to_string(cfg.solver.async_comm));
  }
  if (const auto shape = r.object("shape")) {
    shape->keys({"nodes", "procs_per_node"});
    cfg.shape.nodes = shape->integer_or("nodes", cfg.shape.nodes, 0);
    cfg.shape.procs_per_node =
        shape->integer_or("procs_per_node", cfg.shape.procs_per_node, 0);
  }
  if (const auto device = r.object("device")) {
    device->keys({"mps", "jax_preallocate"});
    cfg.device.mps = device->bool_or("mps", cfg.device.mps);
    cfg.device.jax_preallocate =
        device->bool_or("jax_preallocate", cfg.device.jax_preallocate);
  }
  return cfg;
}

}  // namespace

ScheduleConfig ScheduleConfig::parse(const std::string& text) {
  return config_from_value(obs::json::Value::parse(text), "schedule config");
}

ScheduleConfig ScheduleConfig::load_file(const std::string& path) {
  return config_from_value(obs::json::load_file(path), path);
}

ScheduleConfig ScheduleConfig::from_value(const obs::json::Value& doc,
                                          const std::string& where) {
  return config_from_value(doc, where);
}

}  // namespace toast::config
