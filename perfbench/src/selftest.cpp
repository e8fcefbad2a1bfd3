#include "selftest.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "json_line.hpp"
#include "order_stats.hpp"
#include "runner.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checks {
  int run = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) failures.push_back(what);
  }
};

void percentile_rule(Checks& c) {
  c.expect(rank_index(50000, 1) == 0, "rank p50 n=1");
  c.expect(rank_index(50000, 2) == 0, "rank p50 n=2");
  c.expect(rank_index(50000, 3) == 1, "rank p50 n=3");
  c.expect(rank_index(99000, 100) == 98, "rank p99 n=100");
  c.expect(rank_index(99900, 1000) == 998, "rank p99.9 n=1000");
  c.expect(rank_index(99999, 7) == 6, "rank p99.999 n=7");
  // Ten samples beyond: p50 needs n >= 20, p90 n >= 100, p99 n >= 1000.
  c.expect(!top_percentile(0), "top n=0");
  c.expect(!top_percentile(19), "top n=19");
  c.expect(top_percentile(20) == 50000, "top n=20");
  c.expect(top_percentile(99) == 50000, "top n=99");
  c.expect(top_percentile(100) == 90000, "top n=100");
  c.expect(top_percentile(999) == 90000, "top n=999");
  c.expect(top_percentile(1000) == 99000, "top n=1000");
  c.expect(top_percentile(9999) == 99000, "top n=9999");
  c.expect(top_percentile(10000) == 99900, "top n=10000");
  std::vector<int> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  c.expect(order_stat(xs, 50000) == 500, "p50 of 1..1000");
  c.expect(order_stat(xs, 99000) == 990, "p99 of 1..1000");
  c.expect(order_stat(xs, 99900) == 999, "p99.9 of 1..1000");
  // Monotone along the ladder for every sample count.
  bool monotone = true;
  for (std::size_t n = 1; n <= 3000; ++n) {
    for (std::size_t i = 1; i < kPercentileLadder.size(); ++i) {
      monotone = monotone && rank_index(kPercentileLadder[i - 1], n) <=
                                 rank_index(kPercentileLadder[i], n);
    }
  }
  c.expect(monotone, "ladder ranks monotone");
}

/// Runs the last co-enabled event first: a strategy that must change some
/// report, or the identity check below could not catch a reordering.
class ReversedStrategy final : public p4u::sim::ScheduleStrategy {
 public:
  std::size_t pick(const std::vector<p4u::sim::ChoiceOption>& o) override {
    return o.size() - 1;
  }
  bool coin(const p4u::sim::CoinPoint& cp, p4u::sim::Rng& rng) override {
    return seeded_.coin(cp, rng);
  }
  p4u::sim::Duration jitter(const p4u::sim::CoinPoint& cp,
                            p4u::sim::Duration max_extra,
                            p4u::sim::Rng& rng) override {
    return seeded_.jitter(cp, max_extra, rng);
  }

 private:
  p4u::sim::SeededStrategy seeded_;
};

/// Each small spec, untraced through Campaign::run and traced through
/// run_traced, must give byte-identical reports; the traced jobs' spans
/// must tile each job's run phase; and reversing same-time ties must
/// change at least one spec's report.
void strategy_identity(Checks& c, const std::string& out_dir, double& gap,
                       double& wall) {
  bool reversal_seen = false;
  for (p4u::harness::RunSpec spec : make_selftest_specs(7)) {
    p4u::harness::Campaign plain;
    plain.add(spec);
    write_report(out_dir + "/plain", "selftest", 7, plain.run(1));

    p4u::harness::Campaign reversed;
    reversed.add(spec).strategy_factory = [](std::uint64_t) {
      return std::make_unique<ReversedStrategy>();
    };
    write_report(out_dir + "/reversed", "selftest", 7, reversed.run(1));
    reversal_seen = reversal_seen || report_bytes(out_dir + "/plain") !=
                                         report_bytes(out_dir + "/reversed");

    Tracer tracer;
    spec.strategy_factory = tracer.factory();
    const TracedPass pass = run_traced({spec}, tracer);
    write_report(out_dir + "/traced", "selftest", 7, pass.results);
    c.expect(report_bytes(out_dir + "/plain") ==
                 report_bytes(out_dir + "/traced"),
             "traced report differs from untraced for " + spec.slug);

    std::vector<std::int64_t> span_sum(tracer.jobs().size(), 0);
    std::vector<std::uint64_t> span_n(tracer.jobs().size(), 0);
    for (const EventSpan& s : tracer.spans()) {
      span_sum.at(s.job) += s.dur_ns;
      ++span_n.at(s.job);
    }
    for (std::size_t i = 0; i < tracer.jobs().size(); ++i) {
      const JobTimes& j = tracer.jobs()[i];
      const std::string err = check_job(j);
      c.expect(err.empty(), spec.slug + " job " + std::to_string(i) + ": " +
                                err);
      if (!err.empty()) continue;
      c.expect(span_sum[i] == j.last_pick - j.first_pick &&
                   span_n[i] + 1 == j.events,
               spec.slug + " job " + std::to_string(i) +
                   ": event spans do not tile the run phase");
      gap += static_cast<double>(j.end - j.destroyed);
      wall += static_cast<double>(j.end - j.start);
    }
  }
  c.expect(reversal_seen,
           "no self-test report depends on tie order, so the identity check "
           "could not catch a reordering strategy");
}

}  // namespace

int run_selftest(const std::string& out_dir) {
  Checks c;
  percentile_rule(c);
  double gap = 0;
  double wall = 0;
  strategy_identity(c, out_dir, gap, wall);
  std::string failures;
  for (const std::string& f : c.failures) {
    failures += (failures.empty() ? "" : "; ") + f;
  }
  JsonLine j;
  j.boolean("ok", c.failures.empty())
      .num("checks", static_cast<std::uint64_t>(c.run))
      .num("gap_frac", wall > 0 ? gap / wall : 0.0)
      .str("failures", failures);
  std::printf("%s\n", j.line().c_str());
  return c.failures.empty() ? 0 : 1;
}

}  // namespace perfbench
