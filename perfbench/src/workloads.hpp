// Workload tables of the repository benchmark.
//
// Each workload is a list of harness::RunSpec cells, built as a pure
// function of the workload seed, and run through the same public campaign
// path the bench binaries use. Why each workload exists, and which layer
// it stresses, is recorded in BENCHMARK.json and perfbench/README.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "harness/campaign.hpp"

namespace perfbench {

enum class Workload { kFig7Wan, kChurnFt8, kBatchFt16 };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w);

/// The workload's specs for `seed`; the same seed gives the same specs.
[[nodiscard]] std::vector<p4u::harness::RunSpec> make_specs(
    Workload w, std::uint64_t seed);

/// One small spec each of kSingleFlow, kMultiFlow, kChurn (with control
/// drops, so fault coins pass through the strategy) and kScale: the inputs
/// of the strategy byte-identity self-test.
[[nodiscard]] std::vector<p4u::harness::RunSpec> make_selftest_specs(
    std::uint64_t seed);

}  // namespace perfbench
