#include "span_trace.hpp"

#include <stdexcept>
#include <string>

namespace perfbench {

using p4u::sim::ChoiceOption;
using p4u::sim::CoinPoint;
using p4u::sim::Duration;
using p4u::sim::Rng;

class TimingStrategy final : public p4u::sim::ScheduleStrategy {
 public:
  explicit TimingStrategy(Tracer& tracer) : tracer_(tracer) {}
  ~TimingStrategy() override { tracer_.on_destroyed(); }

  std::size_t pick(const std::vector<ChoiceOption>& options) override {
    const std::size_t chosen = seeded_.pick(options);
    tracer_.on_pick(options[chosen].tag);
    return chosen;
  }
  bool coin(const CoinPoint& cp, Rng& rng) override {
    return seeded_.coin(cp, rng);
  }
  Duration jitter(const CoinPoint& cp, Duration max_extra, Rng& rng) override {
    return seeded_.jitter(cp, max_extra, rng);
  }

 private:
  Tracer& tracer_;
  p4u::sim::SeededStrategy seeded_;
};

std::function<std::unique_ptr<p4u::sim::ScheduleStrategy>(std::uint64_t)>
Tracer::factory() {
  return [this](std::uint64_t) {
    on_factory();
    return std::make_unique<TimingStrategy>(*this);
  };
}

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::begin_job() {
  jobs_.emplace_back();
  jobs_.back().start = now();
}

void Tracer::end_job() { jobs_.back().end = now(); }

void Tracer::clear() {
  jobs_.clear();
  spans_.clear();
}

void Tracer::on_factory() {
  if (jobs_.empty()) {
    throw std::logic_error("Tracer: strategy built outside begin_job()");
  }
  JobTimes& j = jobs_.back();
  j.factory = now();
  ++j.factory_calls;
}

void Tracer::on_pick(const p4u::sim::EventTag& tag) {
  const std::int64_t t = now();
  JobTimes& j = jobs_.back();
  if (j.first_pick < 0) {
    j.first_pick = t;
  } else {
    spans_.push_back({j.last_pick, t - j.last_pick, open_tag_.flow,
                      static_cast<std::uint32_t>(jobs_.size() - 1),
                      open_tag_.node, open_tag_.cls});
  }
  j.last_pick = t;
  open_tag_ = tag;
  ++j.events;
}

void Tracer::on_destroyed() { jobs_.back().destroyed = now(); }

std::string check_job(const JobTimes& j) {
  if (j.factory_calls != 1) {
    return "strategy factory called " + std::to_string(j.factory_calls) +
           " times";
  }
  if (j.events == 0) return "no event executed";
  const std::int64_t order[] = {j.start,     j.factory,   j.first_pick,
                                j.last_pick, j.destroyed, j.end};
  for (std::size_t i = 0; i + 1 < std::size(order); ++i) {
    if (order[i] < 0 || order[i + 1] < order[i]) {
      return "phase boundaries out of order (boundary " + std::to_string(i) +
             ")";
    }
  }
  return "";
}

}  // namespace perfbench
