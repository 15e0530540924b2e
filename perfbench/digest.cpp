#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string digest_of(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(text.data(), text.size())));
  return buf;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string timelog_text(const toast::accel::TimeLog& log) {
  std::string s;
  for (const auto& c : log.categories()) {
    s += c + ":" + std::to_string(log.calls(c)) + ":" +
         exact(log.seconds(c)) + ";";
  }
  return s;
}

std::string job_text(const toast::mpisim::JobResult& r) {
  std::string s = "oom=" + std::to_string(r.oom) + ":" + r.oom_reason + ";";
  for (const double v : {r.runtime, r.host_seconds, r.device_seconds,
                         r.device_busy_per_gpu, r.transfer_seconds,
                         r.comm_seconds}) {
    s += exact(v) + ";";
  }
  s += "world=" + std::to_string(r.world_ranks) + ";log=" +
       timelog_text(r.rank_log);
  for (const auto* counters : {&r.fault_counters, &r.plan_counters}) {
    s += "|";
    for (const auto& [k, v] : *counters) {
      s += k + "=" + exact(v) + ";";
    }
  }
  s += "|";
  for (const auto& k : r.degraded_kernels) {
    s += k + ";";
  }
  return s;
}

std::string products_digest(const std::vector<toast::core::Observation>& obs,
                            const std::vector<std::string>& fields) {
  std::uint64_t h = fnv1a("", 0);
  for (const auto& ob : obs) {
    h = fnv1a(ob.name().data(), ob.name().size(), h);
    for (const auto& name : fields) {
      if (!ob.has_field(name)) {
        continue;
      }
      const auto& f = ob.field(name);
      h = fnv1a(name.data(), name.size(), h);
      h = fnv1a(f.raw(), f.byte_size(), h);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

DigestTable DigestTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read digest table " + path);
  }
  DigestTable t;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string seed, workload, op, digest, extra;
    if (!std::getline(fields, seed, '\t') ||
        !std::getline(fields, workload, '\t') ||
        !std::getline(fields, op, '\t') ||
        !std::getline(fields, digest, '\t') ||
        std::getline(fields, extra, '\t') || digest.size() != 16) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed digest line");
    }
    t.by_key_[seed + "\t" + workload][op] = digest;
  }
  return t;
}

DigestMap DigestTable::get(std::uint64_t seed,
                           const std::string& workload) const {
  const auto it = by_key_.find(std::to_string(seed) + "\t" + workload);
  return it == by_key_.end() ? DigestMap{} : it->second;
}

void DigestTable::put(std::uint64_t seed, const std::string& workload,
                      const DigestMap& digests) {
  by_key_[std::to_string(seed) + "\t" + workload] = digests;
}

void DigestTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write digest table " + path);
  }
  out << "# perfbench pinned virtual-clock digests: "
         "model_seed <TAB> workload <TAB> operation <TAB> fnv1a64\n";
  for (const auto& [key, digests] : by_key_) {
    for (const auto& [op, d] : digests) {
      out << key << "\t" << op << "\t" << d << "\n";
    }
  }
}

}  // namespace perfbench
