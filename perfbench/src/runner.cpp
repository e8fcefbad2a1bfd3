#include "runner.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

using p4u::harness::RunOutcome;
using p4u::harness::RunSpec;
using p4u::harness::ScenarioFamily;
using p4u::harness::SpecResult;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t gauge_value(const p4u::obs::MetricsRegistry& m,
                          const std::string& name) {
  for (const auto& row : m.gauges()) {
    if (row.name == name) return static_cast<std::uint64_t>(row.value);
  }
  return 0;
}

bool has_label(const p4u::obs::LabelSet& labels, const char* key,
               const char* value) {
  for (const auto& [k, v] : labels) {
    if (k == key && v == value) return true;
  }
  return false;
}

// Registry counter -> the per-layer name the benchmark reports it under.
constexpr std::pair<const char*, const char*> kCounterNames[] = {
    {"switch.rule_installs", "p4rt.rule_installs"},
    {"fabric.tx", "p4rt.tx"},
    {"fabric.drop", "p4rt.drop"},
    {"churn.dispatched", "control.dispatched"},
    {"churn.coalesced", "control.coalesced"},
    {"churn.refused", "control.refused"},
    {"ctrl.msgs_in", "control.msgs_in"},
    {"ctrl.msgs_out", "control.msgs_out"},
    {"ctrl.preflight_safe", "verify.preflight_safe"},
    {"ctrl.preflight_unknown", "verify.preflight_unknown"},
    {"ctrl.recovery_resends", "faults.resends"},
    {"ctrl.recovery_repairs", "faults.repairs"},
    {"ctrl.recovery_gaveup", "faults.gaveup"},
};

}  // namespace

TracedPass run_traced(const std::vector<RunSpec>& specs, Tracer& tracer) {
  TracedPass pass;
  pass.results.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    SpecResult sr;
    sr.slug = spec.slug;
    sr.sample_unit = spec.sample_unit;
    for (int r = 0; r < spec.runs; ++r) {
      tracer.begin_job();
      const RunOutcome out = p4u::harness::execute_run(spec, r);
      tracer.end_job();
      pass.nonterminal += gauge_value(out.metrics, "ctrl.updates_nonterminal") +
                          gauge_value(out.metrics, "ctrl.requests_nonterminal");
      if (out.sample) {
        sr.result.update_times_ms.add(*out.sample);
      } else {
        ++sr.result.incomplete_runs;
      }
      sr.result.alarms += out.alarms;
      sr.result.violations.loops += out.violations.loops;
      sr.result.violations.blackholes += out.violations.blackholes;
      sr.result.violations.capacity += out.violations.capacity;
      sr.result.violations.faulted_walks += out.violations.faulted_walks;
      sr.result.metrics.merge_from(out.metrics);
    }
    pass.results.push_back(std::move(sr));
  }
  return pass;
}

void write_report(const std::string& out_dir, const std::string& workload,
                  std::uint64_t seed, const std::vector<SpecResult>& results) {
  // The CSV is written only when some run produced a sample; never let a
  // previous pass's file stand in for a missing one.
  std::filesystem::remove(out_dir + "/campaign.csv");
  p4u::harness::write_campaign_report(
      out_dir, "campaign",
      {{"workload", workload}, {"seed", std::to_string(seed)}}, results);
}

std::string report_bytes(const std::string& out_dir) {
  const std::string csv = out_dir + "/campaign.csv";
  return read_file(out_dir + "/campaign.jsonl") +
         (std::filesystem::exists(csv) ? read_file(csv) : std::string{});
}

Summary summarize(const std::vector<RunSpec>& specs,
                  const std::vector<SpecResult>& results) {
  Summary s;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunSpec& spec = specs.at(i);
    const p4u::harness::ExperimentResult& r = results[i].result;
    const p4u::obs::MetricsRegistry& m = r.metrics;
    if (spec.family == ScenarioFamily::kChurn) {
      s.churn_incomplete_runs += r.incomplete_runs;
    }
    if (spec.bed.system == p4u::harness::SystemKind::kP4Update) {
      s.p4u_loops_blackholes += r.violations.loops + r.violations.blackholes;
    }
    // Requests: the churn ledger where the job exports it, else one
    // request per update outcome (pass-through admission).
    const std::string ledger =
        m.counter_total("ctrl.request") > 0 ? "ctrl.request" : "ctrl.outcome";
    const char* key = ledger == "ctrl.request" ? "state" : "outcome";
    std::uint64_t outcomes = 0;
    for (const auto& row : m.counters()) {
      if (row.name == ledger) {
        s.requests += row.value;
        if (has_label(row.labels, key, "rolled-back") ||
            has_label(row.labels, key, "abandoned")) {
          s.failed += row.value;
        }
      }
      if (row.name == "ctrl.outcome") {
        outcomes += row.value;
        if (has_label(row.labels, "outcome", "completed")) {
          s.completed += row.value;
        }
      }
    }
    s.dispatched += spec.family == ScenarioFamily::kChurn
                        ? m.counter_total("churn.dispatched")
                        : outcomes;
  }
  for (const auto& [registry_name, name] : kCounterNames) {
    std::uint64_t total = 0;
    for (const SpecResult& sr : results) {
      total += sr.result.metrics.counter_total(registry_name);
    }
    s.counters.emplace_back(name, total);
  }
  return s;
}

}  // namespace perfbench
