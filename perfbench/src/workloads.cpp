#include "workloads.hpp"

#include <memory>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"

namespace perfbench {

namespace {

using p4u::harness::CtrlLatencyModel;
using p4u::harness::RunSpec;
using p4u::harness::ScenarioFamily;
using p4u::harness::SystemKind;

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

// Seeds per fig7_wan cell (bench/fig7 runs 30): 1200 beds per pass, about
// two host seconds, so one pass is long enough to time.
constexpr int kFig7Runs = 50;

/// Seed ranges of different workload seeds never overlap (runs < 1000).
std::uint64_t base_seed(std::uint64_t seed, std::uint64_t offset) {
  return 1'000'000 + seed * 1000 + offset;
}

std::string slug(const std::string& cell, SystemKind kind,
                 const char* sample) {
  return cell + "." + p4u::harness::to_string(kind) + "." + sample;
}

std::shared_ptr<const p4u::net::Graph> with_capacity(p4u::net::Graph g) {
  p4u::net::set_uniform_capacity(g, 100.0);
  return std::make_shared<const p4u::net::Graph>(std::move(g));
}

/// A Fig. 7 single-flow cell: long detour, exp(100 ms) stragglers.
RunSpec fig7_single(const std::shared_ptr<const p4u::net::Graph>& g,
                    const std::string& name, SystemKind kind, int runs,
                    std::uint64_t seed) {
  const p4u::harness::DetourPaths detour = p4u::harness::long_detour_paths(*g);
  RunSpec s;
  s.slug = slug(name + "_single", kind, "update_time_ms");
  s.family = ScenarioFamily::kSingleFlow;
  s.graph = g;
  s.old_path = detour.old_path;
  s.new_path = detour.new_path;
  s.bed.system = kind;
  s.bed.ctrl_latency_model = CtrlLatencyModel::kWanCentroid;
  s.bed.switch_params.straggler_mean_ms = 100.0;
  s.runs = runs;
  s.base_seed = base_seed(seed, 0);
  return s;
}

/// A Fig. 7 multi-flow cell: gravity batch near capacity, congestion mode.
RunSpec fig7_multi(const std::shared_ptr<const p4u::net::Graph>& g,
                   const std::string& name, SystemKind kind, int runs,
                   std::uint64_t seed) {
  RunSpec s;
  s.slug = slug(name + "_multi", kind, "update_time_ms");
  s.family = ScenarioFamily::kMultiFlow;
  s.graph = g;
  s.traffic.target_utilization = 0.9;
  s.bed.system = kind;
  s.bed.ctrl_latency_model = CtrlLatencyModel::kWanCentroid;
  s.bed.congestion_mode = true;
  s.runs = runs;
  s.base_seed = base_seed(seed, 500);
  return s;
}

struct ChurnTable {
  std::size_t pairs;
  std::size_t initial_flows;
  double arrivals_per_sec;
  p4u::sim::Duration duration;
};

/// A bench/churn cell; `drop` > 0 adds control drops plus recovery.
RunSpec churn_cell(const std::shared_ptr<const p4u::net::Graph>& g,
                   const std::vector<p4u::net::NodeId>& edge,
                   const ChurnTable& t, double drop, SystemKind kind,
                   std::uint64_t seed) {
  RunSpec s;
  s.slug = slug(drop > 0.0 ? "churn_drop05" : "churn_clean", kind,
                "updates_per_sec");
  s.sample_unit = "req/s";
  s.family = ScenarioFamily::kChurn;
  s.graph = g;
  s.bed.system = kind;
  s.churn.pairs = t.pairs;
  s.churn.initial_flows = t.initial_flows;
  s.churn.arrivals_per_sec = t.arrivals_per_sec;
  s.churn.duration = t.duration;
  s.churn.endpoints = edge;
  s.bed.admission.max_inflight_global = 32;
  s.bed.admission.max_inflight_per_flow = 1;
  s.bed.admission.coalesce = true;
  s.bed.static_preflight = true;
  if (drop > 0.0) {
    s.bed.fault_plan.model.control_drop_prob = drop;
    s.bed.recovery.enabled = true;
    s.bed.enable_retrigger = true;
    s.bed.p4u_uim_watchdog = p4u::sim::milliseconds(500);
    s.bed.p4u_wait_timeout = p4u::sim::milliseconds(500);
  }
  s.runs = 1;
  s.base_seed = base_seed(seed, 0);
  return s;
}

/// P4Update rerouting every resident flow of a fat-tree in one batch.
RunSpec scale_cell(int k, std::size_t flows, std::size_t pairs,
                   std::uint64_t seed) {
  p4u::net::FatTree ft = p4u::net::fattree_topology(k);
  RunSpec s;
  s.slug = "batch_ft" + std::to_string(k) + ".P4Update.batch_completion_ms";
  s.family = ScenarioFamily::kScale;
  s.scale_endpoints = ft.edge;
  s.graph = with_capacity(std::move(ft.graph));
  s.scale_flows = flows;
  s.scale_update_flows = flows;
  s.scale_pairs = pairs;
  s.bed.system = SystemKind::kP4Update;
  s.bed.ctrl_latency_model = CtrlLatencyModel::kFattreeNormal;
  s.runs = 1;
  s.base_seed = base_seed(seed, 0);
  return s;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kFig7Wan, Workload::kChurnFt8, Workload::kBatchFt16}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kFig7Wan: return "fig7_wan";
    case Workload::kChurnFt8: return "churn_ft8";
    case Workload::kBatchFt16: return "batch_ft16";
  }
  return "?";
}

std::vector<RunSpec> make_specs(Workload w, std::uint64_t seed) {
  std::vector<RunSpec> specs;
  switch (w) {
    case Workload::kFig7Wan: {
      const std::pair<const char*, p4u::net::Graph> wans[] = {
          {"b4", p4u::net::b4_topology()},
          {"internet2", p4u::net::internet2_topology()},
          {"attmpls", p4u::net::attmpls_topology()},
          {"chinanet", p4u::net::chinanet_topology()},
      };
      for (const auto& [name, graph] : wans) {
        const auto g = with_capacity(graph);
        for (const SystemKind k : kSystems) {
          specs.push_back(fig7_single(g, name, k, kFig7Runs, seed));
        }
        for (const SystemKind k : kSystems) {
          specs.push_back(fig7_multi(g, name, k, kFig7Runs, seed));
        }
      }
      break;
    }
    case Workload::kChurnFt8: {
      const p4u::net::FatTree ft = p4u::net::fattree_topology(8);
      const auto g = with_capacity(ft.graph);
      const ChurnTable t{64, 128, 200.0, p4u::sim::seconds(30)};
      for (const double drop : {0.0, 0.05}) {
        for (const SystemKind k : kSystems) {
          specs.push_back(churn_cell(g, ft.edge, t, drop, k, seed));
        }
      }
      break;
    }
    case Workload::kBatchFt16:
      specs.push_back(scale_cell(16, 8192, 256, seed));
      break;
  }
  return specs;
}

std::vector<RunSpec> make_selftest_specs(std::uint64_t seed) {
  const auto b4 = with_capacity(p4u::net::b4_topology());
  const p4u::net::FatTree ft4 = p4u::net::fattree_topology(4);
  const auto g4 = with_capacity(ft4.graph);
  const ChurnTable small{8, 16, 200.0, p4u::sim::seconds(2)};
  std::vector<RunSpec> specs;
  specs.push_back(fig7_single(b4, "b4", SystemKind::kP4Update, 2, seed));
  specs.push_back(fig7_multi(b4, "b4", SystemKind::kEzSegway, 2, seed));
  for (const SystemKind k : {SystemKind::kP4Update, SystemKind::kCentral}) {
    specs.push_back(churn_cell(g4, ft4.edge, small, 0.05, k, seed));
  }
  specs.push_back(scale_cell(4, 64, 16, seed));
  return specs;
}

}  // namespace perfbench
