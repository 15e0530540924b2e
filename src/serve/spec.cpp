#include "serve/spec.hpp"

#include <set>
#include <stdexcept>

#include "bench_model/problem.hpp"

namespace toast::serve {

namespace {

using obs::json::Reader;

FleetSpec fleet_from(const Reader& r) {
  r.keys({"nodes", "gpus_per_node"});
  FleetSpec fleet;
  fleet.nodes = r.integer_or("nodes", fleet.nodes, 1);
  fleet.gpus_per_node = r.integer_or("gpus_per_node", fleet.gpus_per_node, 1);
  return fleet;
}

TenantSpec tenant_from(const Reader& r) {
  r.keys({"name", "share", "max_running", "priority", "faults",
          "resilience"});
  TenantSpec t;
  t.name = r.string("name");
  if (t.name.empty()) {
    r.fail("name", "must not be empty");
  }
  t.share = r.number_or("share", t.share, 0.0);
  if (t.share == 0.0) {
    r.fail("share", "must be > 0");
  }
  t.max_running = r.integer_or("max_running", t.max_running, 0);
  t.priority = r.integer_or("priority", t.priority);
  if (const auto f = r.object("faults")) {
    t.faults = fault::FaultPlan::from_value(f->value(), f->path());
  }
  if (const auto p = r.object("resilience")) {
    t.resilience = resilience::Policy::from_value(p->value(), p->path());
  }
  return t;
}

mpisim::PipelineRun pipeline_from_string(const std::string& s) {
  if (s == "staged") {
    return mpisim::PipelineRun::kStaged;
  }
  if (s == "overlap") {
    return mpisim::PipelineRun::kOverlap;
  }
  throw std::runtime_error("must be staged|overlap");
}

JobSpec job_from(const Reader& r) {
  r.keys({"name", "tenant", "workload", "backend", "priority", "submit_s",
          "seed", "map_iterations", "tuned", "schedule", "pipeline"});
  JobSpec j;
  j.name = r.string("name");
  if (j.name.empty()) {
    r.fail("name", "must not be empty");
  }
  j.tenant = r.string("tenant");
  j.workload = r.string_or("workload", j.workload);
  // Validate the class name here, where the error can name the key.
  r.string_as("workload", workload_problem, j.workload.c_str());
  j.backend = r.string_or("backend", "");
  j.has_priority = r.has("priority");
  j.priority = r.integer_or("priority", j.priority);
  j.submit_s = r.number_or("submit_s", j.submit_s, 0.0);
  j.seed = r.seed_or("seed", j.seed);
  j.map_iterations = r.integer_or("map_iterations", j.map_iterations, 0);
  j.tuned = r.bool_or("tuned", j.tuned);
  j.pipeline = r.string_as("pipeline", pipeline_from_string, "staged");
  if (const auto s = r.object("schedule")) {
    if (!j.backend.empty()) {
      r.fail("schedule",
             "'backend' and 'schedule' are mutually exclusive (the "
             "schedule carries its own backend slot)");
    }
    j.schedule = config::ScheduleConfig::from_value(s->value(), s->path());
    j.has_schedule = true;
  }
  return j;
}

}  // namespace

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFairShare:
      return "fair_share";
    case SchedPolicy::kPriority:
      return "priority";
  }
  return "fair_share";
}

SchedPolicy sched_policy_from_string(const std::string& s) {
  if (s == "fair_share") {
    return SchedPolicy::kFairShare;
  }
  if (s == "priority") {
    return SchedPolicy::kPriority;
  }
  throw std::runtime_error("serve: unknown policy '" + s +
                           "' (expected fair_share|priority)");
}

int ServiceSpec::tenant_index(const std::string& name) const {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ServiceSpec ServiceSpec::from_value(const obs::json::Value& doc,
                                    const std::string& where) {
  const auto r = Reader::document(doc, where, "toastcase-serve-v1");
  r.keys({"schema", "policy", "schedule_library", "fleet", "tenants",
          "jobs"});
  ServiceSpec spec;
  spec.policy =
      r.string_as("policy", sched_policy_from_string, "fair_share");
  spec.schedule_library = r.string_or("schedule_library", "");
  if (const auto f = r.object("fleet")) {
    spec.fleet = fleet_from(*f);
  }

  const std::vector<Reader> tenants = r.array("tenants");
  if (tenants.empty()) {
    r.fail("tenants", "must be a non-empty array");
  }
  std::set<std::string> names;
  for (const Reader& t : tenants) {
    TenantSpec tenant = tenant_from(t);
    if (!names.insert(tenant.name).second) {
      t.fail("name", "duplicate tenant '" + tenant.name + "'");
    }
    spec.tenants.push_back(std::move(tenant));
  }

  const std::vector<Reader> jobs = r.array("jobs");
  if (jobs.empty()) {
    r.fail("jobs", "must be a non-empty array");
  }
  std::set<std::string> job_names;
  for (const Reader& jr : jobs) {
    JobSpec job = job_from(jr);
    if (spec.tenant_index(job.tenant) < 0) {
      jr.fail("tenant", "unknown tenant '" + job.tenant + "'");
    }
    if (!job_names.insert(job.name).second) {
      jr.fail("name", "duplicate job '" + job.name + "'");
    }
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

ServiceSpec ServiceSpec::parse(const std::string& text) {
  return from_value(obs::json::Value::parse(text), "serve spec");
}

ServiceSpec ServiceSpec::load_file(const std::string& path) {
  return from_value(obs::json::load_file(path), path);
}

bench_model::ProblemSize workload_problem(const std::string& name) {
  if (name == "tiny") {
    return bench_model::tiny_problem();
  }
  if (name == "medium") {
    return bench_model::medium_problem();
  }
  if (name == "large") {
    return bench_model::large_problem();
  }
  throw std::runtime_error("serve: unknown workload '" + name +
                           "' (expected tiny|medium|large)");
}

}  // namespace toast::serve
