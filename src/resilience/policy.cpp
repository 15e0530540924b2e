#include "resilience/policy.hpp"

#include <cmath>

namespace toast::resilience {

RetrySpec read_retry(const obs::json::Reader& r) {
  r.keys({"max_attempts", "backoff_seconds", "backoff_multiplier",
          "failed_fraction"});
  RetrySpec spec;
  spec.max_attempts = r.integer_or("max_attempts", spec.max_attempts, 1);
  spec.backoff_seconds =
      r.number_or("backoff_seconds", spec.backoff_seconds, 0.0);
  spec.backoff_multiplier =
      r.number_or("backoff_multiplier", spec.backoff_multiplier, 1.0);
  spec.failed_fraction =
      r.number_or("failed_fraction", spec.failed_fraction, 0.0, 1.0);
  // The last attempt charges the largest backoff; it must stay finite.
  if (!std::isfinite(spec.backoff_seconds *
                     std::pow(spec.backoff_multiplier,
                              spec.max_attempts - 1))) {
    r.fail("backoff_multiplier",
           "the largest backoff (backoff_seconds * backoff_multiplier^"
           "(max_attempts - 1)) must be finite");
  }
  return spec;
}

namespace {

Policy policy_from_value(const obs::json::Value& doc,
                         const std::string& where) {
  const auto r = obs::json::Reader::document(
      doc, where, "toastcase-resilience-policy-v1");
  r.keys({"schema", "sites", "ladders", "elastic"});

  Policy policy;
  for (const auto& s : r.array("sites")) {
    s.keys({"site", "retry", "deadline_seconds", "breaker"});
    SitePolicy sp;
    sp.site = s.string_or("site", "");
    if (const auto retry = s.object("retry")) {
      sp.has_retry = true;
      sp.retry = read_retry(*retry);
    }
    sp.deadline_seconds = s.number_or("deadline_seconds", 0.0, 0.0);
    if (const auto b = s.object("breaker")) {
      b->keys({"open_after", "open_seconds", "close_after", "jitter"});
      sp.breaker.open_after = b->integer_or("open_after", 0);
      sp.breaker.open_seconds = b->number_or("open_seconds", 1e-3, 0.0);
      sp.breaker.close_after = b->integer_or("close_after", 1);
      sp.breaker.jitter = b->number_or("jitter", 0.0, 0.0);
    }
    policy.sites.push_back(std::move(sp));
  }
  for (const auto& l : r.array("ladders")) {
    l.keys({"domain", "escalate_after", "max_level"});
    LadderSpec ls;
    ls.domain = l.string("domain");
    if (ls.domain.empty()) {
      l.fail("domain", "must be non-empty");
    }
    ls.escalate_after = l.integer_or("escalate_after", 1);
    ls.max_level = l.integer_or("max_level", 1);
    policy.ladders.push_back(std::move(ls));
  }
  if (const auto e = r.object("elastic")) {
    e->keys({"enabled", "min_ranks", "rebuild_seconds", "requeue"});
    policy.elastic.enabled = e->bool_or("enabled", false);
    policy.elastic.min_ranks = e->integer_or("min_ranks", 1);
    policy.elastic.rebuild_seconds =
        e->number_or("rebuild_seconds", 1e-3, 0.0);
    policy.elastic.requeue = e->bool_or("requeue", true);
  }
  return policy;
}

}  // namespace

Policy Policy::parse(const std::string& text) {
  return policy_from_value(obs::json::Value::parse(text),
                           "resilience policy");
}

Policy Policy::load_file(const std::string& path) {
  return policy_from_value(obs::json::load_file(path), path);
}

Policy Policy::from_value(const obs::json::Value& doc,
                          const std::string& where) {
  return policy_from_value(doc, where);
}

}  // namespace toast::resilience
