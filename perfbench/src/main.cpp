// perfbench: the measuring binary behind perfbench/run.py.
//
//   perfbench measure --workload W --seed N --seconds S --mode plain|traced
//                     --out DIR
//   perfbench selftest --out DIR
//
// `measure` repeats one workload's campaign pass until S host seconds have
// passed (at least kMinPasses times) and prints one JSON line of raw
// per-pass figures; run.py turns them into the reported metrics.
//   plain:  harness::Campaign::run(1) + write_campaign_report, with only
//           clock reads around each pass.
//   traced: the same jobs through harness::execute_run with the
//           TimingStrategy installed (span_trace.hpp); per-layer sums,
//           install-span order statistics, and the last pass's spans
//           written to DIR/spans.tsv and DIR/jobs.tsv.
// Both modes write the merged report to DIR and check that every pass
// produced the same bytes.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "json_line.hpp"
#include "order_stats.hpp"
#include "runner.hpp"
#include "selftest.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define PERFBENCH_COMPILER "g++ " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

using namespace perfbench;
using p4u::sim::EventClass;

constexpr std::size_t kMinPasses = 3;
// EventClass values; a class added later fails loudly in std::array::at.
constexpr std::size_t kClasses = 8;

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  std::string mode;
  std::string out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench measure --workload W --seed "
               "N --seconds S --mode plain|traced --out DIR\n"
               "       perfbench selftest --out DIR\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage("flag without a value");
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--mode") {
        a.mode = v;
      } else if (k == "--out") {
        a.out = v;
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.out.empty()) usage("--out is required");
  return a;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

JsonLine stamp(const Args& a) {
  JsonLine j;
  j.str("workload", a.workload)
      .num("seed", a.seed)
      .str("mode", a.mode)
      .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef __OPTIMIZE__
      .boolean("optimized", true)
#else
      .boolean("optimized", false)
#endif
      .str("compiler", PERFBENCH_COMPILER);
  return j;
}

void add_summary(JsonLine& j, const Summary& s) {
  j.num("requests", s.requests)
      .num("failed", s.failed)
      .num("churn_incomplete_runs", s.churn_incomplete_runs)
      .num("p4u_loops_blackholes", s.p4u_loops_blackholes)
      .num("completed", s.completed)
      .num("dispatched", s.dispatched);
  JsonLine c;
  for (const auto& [name, v] : s.counters) c.num(name, v);
  j.raw("counters", c.line());
}

int measure_plain(const Args& a,
                  const std::vector<p4u::harness::RunSpec>& specs) {
  p4u::harness::Campaign campaign;
  for (const auto& s : specs) campaign.add(s);
  std::vector<double> wall;
  std::vector<double> report;
  std::string first;
  Summary summary;
  bool identical = true;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const std::vector<p4u::harness::SpecResult> results = campaign.run(1);
    const Clock::time_point t1 = Clock::now();
    write_report(a.out, a.workload, a.seed, results);
    const Clock::time_point t2 = Clock::now();
    wall.push_back(std::chrono::duration<double>(t2 - t0).count());
    report.push_back(std::chrono::duration<double>(t2 - t1).count());
    std::string bytes = report_bytes(a.out);
    if (wall.size() == 1) {
      first = std::move(bytes);
      summary = summarize(specs, results);
    } else {
      identical = identical && bytes == first;
    }
  } while (wall.size() < kMinPasses || seconds_since(begin) < a.seconds);

  JsonLine j = stamp(a);
  j.num("passes", static_cast<std::uint64_t>(wall.size()))
      .num("jobs", static_cast<std::uint64_t>(campaign.total_runs()))
      .nums("wall_s", wall)
      .nums("report_s", report)
      .boolean("passes_identical", identical)
      .num("peak_rss_mb", peak_rss_mb());
  add_summary(j, summary);
  std::printf("%s\n", j.line().c_str());
  return 0;
}

/// Per-pass sums of one traced pass, in seconds.
struct PassSums {
  double wall = 0, gen = 0, setup = 0, run = 0, teardown = 0, gap = 0;
  std::array<double, kClasses> cls_s{};
  std::array<std::uint64_t, kClasses> cls_n{};
  std::uint64_t events = 0;
};

/// Writes the last pass's spans grouped per (job, flow, class), so the
/// spans of one request sit together, plus each job's phase boundaries.
void write_spans(const std::string& out_dir, const Tracer& tracer) {
  std::vector<EventSpan> spans = tracer.spans();
  std::sort(spans.begin(), spans.end(),
            [](const EventSpan& x, const EventSpan& y) {
              return std::tie(x.job, x.flow, x.cls, x.start_ns) <
                     std::tie(y.job, y.flow, y.cls, y.start_ns);
            });
  std::FILE* f = std::fopen((out_dir + "/spans.tsv").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans.tsv");
  std::fprintf(f, "job\tflow\tclass\tcount\ttotal_ns\tfirst_start_ns\t"
                  "last_end_ns\n");
  for (std::size_t i = 0; i < spans.size();) {
    const EventSpan& head = spans[i];
    std::uint64_t n = 0;
    std::int64_t total = 0;
    std::int64_t last_end = 0;
    for (; i < spans.size() && spans[i].job == head.job &&
           spans[i].flow == head.flow && spans[i].cls == head.cls;
         ++i) {
      ++n;
      total += spans[i].dur_ns;
      last_end = std::max(last_end, spans[i].start_ns + spans[i].dur_ns);
    }
    std::fprintf(f, "%u\t%llu\t%s\t%llu\t%lld\t%lld\t%lld\n", head.job,
                 static_cast<unsigned long long>(head.flow),
                 p4u::sim::to_string(head.cls),
                 static_cast<unsigned long long>(n),
                 static_cast<long long>(total),
                 static_cast<long long>(head.start_ns),
                 static_cast<long long>(last_end));
  }
  std::fclose(f);
  f = std::fopen((out_dir + "/jobs.tsv").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write jobs.tsv");
  std::fprintf(f,
               "job\tstart_ns\tfactory_ns\tfirst_pick_ns\tlast_pick_ns\t"
               "destroyed_ns\tend_ns\tevents\n");
  for (std::size_t i = 0; i < tracer.jobs().size(); ++i) {
    const JobTimes& j = tracer.jobs()[i];
    std::fprintf(f, "%zu\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t%llu\n", i,
                 static_cast<long long>(j.start),
                 static_cast<long long>(j.factory),
                 static_cast<long long>(j.first_pick),
                 static_cast<long long>(j.last_pick),
                 static_cast<long long>(j.destroyed),
                 static_cast<long long>(j.end),
                 static_cast<unsigned long long>(j.events));
  }
  std::fclose(f);
}

int measure_traced(const Args& a, std::vector<p4u::harness::RunSpec> specs) {
  Tracer tracer;
  for (auto& s : specs) s.strategy_factory = tracer.factory();
  std::vector<PassSums> passes;
  std::vector<std::int64_t> install_ns;  // pooled over jobs and passes
  std::string first;
  std::string job_error;
  Summary summary;
  std::uint64_t nonterminal = 0;
  bool identical = true;
  const Clock::time_point begin = Clock::now();
  do {
    tracer.clear();
    const std::int64_t t0 = tracer.now();
    const TracedPass pass = run_traced(specs, tracer);
    write_report(a.out, a.workload, a.seed, pass.results);
    PassSums p;
    p.wall = static_cast<double>(tracer.now() - t0) * 1e-9;
    for (const JobTimes& j : tracer.jobs()) {
      const std::string err = check_job(j);
      if (!err.empty() && job_error.empty()) job_error = err;
      if (!err.empty()) continue;
      p.gen += static_cast<double>(j.factory - j.start) * 1e-9;
      p.setup += static_cast<double>(j.first_pick - j.factory) * 1e-9;
      p.run += static_cast<double>(j.last_pick - j.first_pick) * 1e-9;
      p.teardown += static_cast<double>(j.destroyed - j.last_pick) * 1e-9;
      p.gap += static_cast<double>(j.end - j.destroyed) * 1e-9;
      p.events += j.events;
    }
    for (const EventSpan& s : tracer.spans()) {
      const auto c = static_cast<std::size_t>(s.cls);
      p.cls_s.at(c) += static_cast<double>(s.dur_ns) * 1e-9;
      ++p.cls_n.at(c);
      if (s.cls == EventClass::kInstall) install_ns.push_back(s.dur_ns);
    }
    passes.push_back(p);
    std::string bytes = report_bytes(a.out);
    if (passes.size() == 1) {
      first = std::move(bytes);
      summary = summarize(specs, pass.results);
      nonterminal = pass.nonterminal;
    } else {
      identical = identical && bytes == first;
    }
  } while (passes.size() < kMinPasses || seconds_since(begin) < a.seconds);
  write_spans(a.out, tracer);

  JsonLine j = stamp(a);
  j.num("passes", static_cast<std::uint64_t>(passes.size()))
      .num("jobs", static_cast<std::uint64_t>(tracer.jobs().size()));
  const auto series = [&](const char* key, auto field) {
    std::vector<double> v;
    for (const PassSums& p : passes) v.push_back(field(p));
    j.nums(key, v);
  };
  series("wall_s", [](const PassSums& p) { return p.wall; });
  series("gen_s", [](const PassSums& p) { return p.gen; });
  series("setup_s", [](const PassSums& p) { return p.setup; });
  series("run_s", [](const PassSums& p) { return p.run; });
  series("teardown_s", [](const PassSums& p) { return p.teardown; });
  series("gap_s", [](const PassSums& p) { return p.gap; });
  JsonLine cls;
  for (std::size_t c = 0; c < kClasses; ++c) {
    JsonLine one;
    std::vector<double> s;
    for (const PassSums& p : passes) s.push_back(p.cls_s[c]);
    one.nums("s", s).num("n", passes.front().cls_n[c]);
    cls.raw(p4u::sim::to_string(static_cast<EventClass>(c)), one.line());
  }
  j.raw("classes", cls.line());
  j.num("events", passes.front().events);

  std::sort(install_ns.begin(), install_ns.end());
  JsonLine inst;
  inst.num("samples", static_cast<std::uint64_t>(install_ns.size()));
  const std::optional<MilliPct> top = top_percentile(install_ns.size());
  if (top) {
    inst.num("p50", static_cast<double>(order_stat(install_ns, 50000)))
        .num("top_pct", static_cast<double>(*top) / 1000.0)
        .num("top", static_cast<double>(order_stat(install_ns, *top)));
    if (beyond(99000, install_ns.size()) >= kMinBeyond) {
      inst.num("p99", static_cast<double>(order_stat(install_ns, 99000)));
    }
  }
  j.raw("install_ns", inst.line());
  j.boolean("passes_identical", identical)
      .str("job_error", job_error)
      .num("nonterminal", nonterminal);
  add_summary(j, summary);
  std::printf("%s\n", j.line().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.cmd == "selftest") return run_selftest(a.out);
    if (a.cmd != "measure") usage("unknown command");
    const std::optional<Workload> w = parse_workload(a.workload);
    if (!w) usage("unknown workload");
    std::vector<p4u::harness::RunSpec> specs = make_specs(*w, a.seed);
    if (a.mode == "plain") return measure_plain(a, specs);
    if (a.mode == "traced") return measure_traced(a, std::move(specs));
    usage("--mode must be plain or traced");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
