#pragma once

// Virtual-clock digests (README.md, "Pinned digests").
//
// Every virtual-clock output of a workload is serialised canonically
// (doubles as exact hexfloats) and hashed with 64-bit FNV-1a.  The
// pinned table maps (model seed, workload, operation id) to the digest
// the seed commit produced; a host-clock change must leave every entry
// byte-identical.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/timelog.hpp"
#include "core/observation.hpp"
#include "mpisim/job.hpp"

namespace perfbench {

/// 64-bit FNV-1a, continuing from `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);
/// fnv1a of a string as 16 hex digits.
std::string digest_of(const std::string& text);

/// Exact text of a double ("%a").
std::string exact(double v);

/// Canonical text of a TimeLog (category, calls, exact seconds).
std::string timelog_text(const toast::accel::TimeLog& log);
/// Canonical text of a JobResult's virtual-clock outputs: runtime and
/// its decomposition, rank TimeLog, fault/plan counters, degraded
/// kernels, world size and the OOM flag + reason.
std::string job_text(const toast::mpisim::JobResult& r);

/// Digest of the named fields of every observation (raw bytes).
std::string products_digest(const std::vector<toast::core::Observation>& obs,
                            const std::vector<std::string>& fields);

/// Operation id -> digest, for one (model seed, workload).
using DigestMap = std::map<std::string, std::string>;

/// The pinned table: "<seed>\t<workload>\t<op>\t<digest>" lines.
class DigestTable {
 public:
  /// Throws std::runtime_error if the file cannot be read or a line is
  /// malformed.
  static DigestTable load(const std::string& path);
  /// Entries of one (seed, workload); empty if none are pinned.
  DigestMap get(std::uint64_t seed, const std::string& workload) const;
  void put(std::uint64_t seed, const std::string& workload,
           const DigestMap& digests);
  void save(const std::string& path) const;

 private:
  std::map<std::string, DigestMap> by_key_;  // "<seed>\t<workload>"
};

}  // namespace perfbench
