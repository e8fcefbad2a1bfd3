// Host-time tracing of campaign jobs from outside the program.
//
// The Tracer hands each seeded job a TimingStrategy through the public
// RunSpec::strategy_factory hook. The strategy orders events exactly as
// sim::SeededStrategy does (it delegates to an owned one), so a traced
// campaign report is byte-identical to an untraced one; it only reads the
// clock. Every job body calls the factory just before building its TestBed
// and destroys the strategy after the bed, so the clock reads split each
// job into consecutive, disjoint phases:
//
//   start -> factory        input generation (paths, gravity sizes, churn)
//   factory -> first pick   setup: bed construction, reserve, deploy
//   pick i -> pick i+1      event i's span, tagged with its EventTag
//   last pick -> destroyed  the last event, harvest and ~TestBed
//   destroyed -> end        the job body's return path (the reported gap)
//
// Spans stay in memory; the caller aggregates and writes them out.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/schedule_strategy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Clock reads of one seeded job, in ns since the tracer's epoch; -1 marks
/// a phase boundary that never happened.
struct JobTimes {
  std::int64_t start = -1;
  std::int64_t factory = -1;
  std::int64_t first_pick = -1;
  std::int64_t last_pick = -1;
  std::int64_t destroyed = -1;
  std::int64_t end = -1;
  std::uint64_t events = 0;  // pick() calls = events executed
  int factory_calls = 0;
};

/// One event's span: from its pick() to the next pick() of the same job.
struct EventSpan {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t flow = 0;
  std::uint32_t job = 0;
  std::int32_t node = -1;
  p4u::sim::EventClass cls = p4u::sim::EventClass::kInternal;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A factory for RunSpec::strategy_factory; its strategies report to
  /// this tracer's current job.
  [[nodiscard]] std::function<
      std::unique_ptr<p4u::sim::ScheduleStrategy>(std::uint64_t)>
  factory();

  /// Brackets one job; call right around harness::execute_run.
  void begin_job();
  void end_job();

  [[nodiscard]] const std::vector<JobTimes>& jobs() const { return jobs_; }
  [[nodiscard]] const std::vector<EventSpan>& spans() const { return spans_; }
  /// Drops the recorded jobs and spans (between campaign passes).
  void clear();

  /// ns since the tracer's epoch.
  [[nodiscard]] std::int64_t now() const;

 private:
  friend class TimingStrategy;
  void on_factory();
  void on_pick(const p4u::sim::EventTag& tag);
  void on_destroyed();

  Clock::time_point epoch_ = Clock::now();
  std::vector<JobTimes> jobs_;
  std::vector<EventSpan> spans_;
  p4u::sim::EventTag open_tag_;  // tag of the event whose span is open
};

/// Checks that a job's phase boundaries all happened, once, in order; on
/// failure returns a description, else an empty string.
[[nodiscard]] std::string check_job(const JobTimes& j);

}  // namespace perfbench
