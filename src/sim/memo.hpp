#pragma once

// Process-wide content-addressed memo for the workload generators of
// satellite.cpp.  The simulated scan, the synthetic sky and the per-detector
// noise realisations are pure functions of their inputs, so each distinct
// input is generated once per process and later calls copy the cached value.
//
// Rules (docs/MODEL.md, "Workload-generation memo"):
//   - keys are exact bytes, serialised field by field (never the raw bytes
//     of a struct, whose padding is unspecified); a hit compares the whole
//     key, not a hash of it;
//   - values are immutable (`shared_ptr<const T>`); callers copy them out
//     before anything mutates them;
//   - one mutex guards every table, so concurrent callers are safe;
//   - each table holds at most kMemoMaxEntries values and evicts the oldest
//     insertion beyond that, so fresh seeds cannot grow it without bound.
// The memo is host-only: nothing on the virtual clock reads it, and it is
// never cleared per job.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/satellite.hpp"

namespace toast::sim::detail {

inline constexpr std::size_t kMemoMaxEntries = 256;

/// Builds a memo key: every field appended as exact bytes, variable-length
/// fields prefixed by their length so concatenations cannot alias.
class KeyBytes {
 public:
  KeyBytes& u64(std::uint64_t v) { return raw(&v, sizeof v); }
  KeyBytes& i64(std::int64_t v) { return raw(&v, sizeof v); }
  KeyBytes& f64(double v) { return raw(&v, sizeof v); }
  KeyBytes& str(std::string_view s) {
    u64(s.size());
    bytes_.append(s);
    return *this;
  }
  KeyBytes& f64s(std::span<const double> v) {
    u64(v.size());
    return raw(v.data(), v.size_bytes());
  }
  std::string take() { return std::move(bytes_); }

 private:
  KeyBytes& raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
    return *this;
  }
  std::string bytes_;
};

/// One table of immutable values keyed by exact bytes.  `mu` is shared by
/// all tables; it is not held while a value is generated, so distinct keys
/// generate concurrently.  Two callers that miss on the same key both
/// generate it; the first insertion wins, and the values are equal because
/// the generators are pure.
template <class T>
class MemoTable {
 public:
  MemoTable(std::mutex& mu, std::size_t (*value_bytes)(const T&))
      : mu_(mu), value_bytes_(value_bytes) {}

  template <class Make>
  std::shared_ptr<const T> get(std::string key, Make&& make) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = values_.find(key);
      if (it != values_.end()) {
        ++stats_.hits;
        return it->second;
      }
      ++stats_.misses;
    }
    auto value = std::make_shared<const T>(make());
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = values_.try_emplace(std::move(key), value);
    if (!inserted) {
      return it->second;
    }
    stats_.bytes += it->first.size() + value_bytes_(*value);
    order_.push_back(&it->first);
    if (order_.size() > kMemoMaxEntries) {
      const auto oldest = values_.find(*order_.front());
      stats_.bytes -= oldest->first.size() + value_bytes_(*oldest->second);
      values_.erase(oldest);
      order_.pop_front();
    }
    return value;
  }

  /// Caller holds `mu`.
  MemoTableStats stats_locked() const {
    MemoTableStats s = stats_;
    s.entries = values_.size();
    return s;
  }

  /// Caller holds `mu`.
  void clear_locked() {
    values_.clear();
    order_.clear();
    stats_ = {};
  }

 private:
  std::mutex& mu_;
  std::size_t (*value_bytes_)(const T&);
  std::unordered_map<std::string, std::shared_ptr<const T>> values_;
  // Insertion order, oldest first; node-based map keys never move.
  std::deque<const std::string*> order_;
  MemoTableStats stats_;
};

}  // namespace toast::sim::detail
