// Campaign passes shared by the measuring modes and the self-test.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "span_trace.hpp"

namespace perfbench {

/// Runs every seeded job of `specs` on this thread through
/// harness::execute_run, bracketed by `tracer`, and merges the outcomes in
/// spec-then-seed order as harness::Campaign::run does.
struct TracedPass {
  std::vector<p4u::harness::SpecResult> results;
  /// Updates and requests still unsettled, summed over the jobs' own
  /// registries (the merged gauge keeps only the last job's value).
  std::uint64_t nonterminal = 0;
};
[[nodiscard]] TracedPass run_traced(
    const std::vector<p4u::harness::RunSpec>& specs, Tracer& tracer);

/// write_campaign_report with the benchmark's fixed meta, into
/// <out_dir>/campaign.{jsonl,csv}.
void write_report(const std::string& out_dir, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<p4u::harness::SpecResult>& results);

/// The report's bytes (JSONL then CSV), for byte-identity checks.
[[nodiscard]] std::string report_bytes(const std::string& out_dir);

/// Deterministic outputs of one pass, read from the merged results.
struct Summary {
  std::uint64_t requests = 0;  // update requests that settled
  std::uint64_t failed = 0;    // ... of them rolled back or abandoned
  std::uint64_t churn_incomplete_runs = 0;
  std::uint64_t p4u_loops_blackholes = 0;
  std::uint64_t completed = 0;   // updates that completed
  std::uint64_t dispatched = 0;  // updates handed to a controller
  /// Per-layer counters, named as the benchmark reports them.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};
[[nodiscard]] Summary summarize(
    const std::vector<p4u::harness::RunSpec>& specs,
    const std::vector<p4u::harness::SpecResult>& results);

}  // namespace perfbench
