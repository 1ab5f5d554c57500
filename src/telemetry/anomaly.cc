#include "src/telemetry/anomaly.h"

#include <algorithm>

#include "src/common/status.h"

namespace msd {

AnomalyDetector::AnomalyDetector(SloPolicy policy) : policy_(policy) {
  MSD_CHECK(policy_.warmup_steps >= 1);
  MSD_CHECK(policy_.trigger_after >= 1);
  MSD_CHECK(policy_.clear_after >= 1);
  MSD_CHECK(policy_.ewma_alpha > 0.0 && policy_.ewma_alpha <= 1.0);
  latency_.name = "step_latency_ms";
  latency_.direction = Direction::kFactorAbove;
  throughput_.name = "tokens_per_sec";
  throughput_.direction = Direction::kFactorBelow;
  hit_rate_.name = "cache_hit_rate";
  hit_rate_.direction = Direction::kDropBelow;
  retry_rate_.name = "io_retry_rate";
  retry_rate_.direction = Direction::kRiseAbove;
}

double AnomalyDetector::Threshold(const Signal& sig) const {
  switch (sig.direction) {
    case Direction::kFactorAbove:
      // The quantile floor keeps one lucky-fast warmup from arming a
      // hair-trigger baseline.
      return policy_.latency_factor * std::max(sig.ewma, sig.quantile_floor);
    case Direction::kFactorBelow:
      return policy_.throughput_factor * sig.ewma;
    case Direction::kDropBelow:
      return sig.ewma - policy_.hit_rate_drop;
    case Direction::kRiseAbove:
      return sig.ewma + policy_.retry_rate_rise;
  }
  return 0.0;
}

bool AnomalyDetector::Feed(Signal* sig, double obs) {
  if (obs < 0.0) {
    return false;  // unobservable this step: neither violates nor heals
  }
  sig->last = obs;
  if (!sig->armed) {
    sig->warmup.Add(obs);
    sig->warmup_cdf.Add(obs);
    if (sig->warmup.count() >= policy_.warmup_steps) {
      sig->armed = true;
      sig->ewma = sig->warmup.mean();
      sig->quantile_floor = sig->warmup_cdf.Quantile(policy_.latency_quantile);
    }
    return false;
  }
  const double threshold = Threshold(*sig);
  bool violated = false;
  switch (sig->direction) {
    case Direction::kFactorAbove:
    case Direction::kRiseAbove:
      violated = obs > threshold;
      break;
    case Direction::kFactorBelow:
    case Direction::kDropBelow:
      violated = obs < threshold;
      break;
  }
  bool fired = false;
  if (violated) {
    sig->healthy = 0;
    if (++sig->violations >= policy_.trigger_after && !sig->alarmed) {
      sig->alarmed = true;
      ++sig->fires;
      fired = true;
    }
  } else {
    sig->violations = 0;
    // The baseline adapts only on healthy steps: a sustained regression must
    // not average itself into the baseline and silence the alarm.
    sig->ewma = (1.0 - policy_.ewma_alpha) * sig->ewma + policy_.ewma_alpha * obs;
    if (sig->alarmed && ++sig->healthy >= policy_.clear_after) {
      sig->alarmed = false;
      sig->healthy = 0;
    }
  }
  return fired;
}

int AnomalyDetector::OnStep(const SloSample& sample) {
  int fired = 0;
  fired += Feed(&latency_, sample.step_ms) ? 1 : 0;
  fired += Feed(&throughput_, sample.tokens_per_sec) ? 1 : 0;
  fired += Feed(&hit_rate_, sample.cache_hit_rate) ? 1 : 0;
  fired += Feed(&retry_rate_, sample.retry_rate) ? 1 : 0;
  return fired;
}

int64_t AnomalyDetector::active() const {
  int64_t n = 0;
  for (const Signal* sig : {&latency_, &throughput_, &hit_rate_, &retry_rate_}) {
    n += sig->alarmed ? 1 : 0;
  }
  return n;
}

int64_t AnomalyDetector::triggers() const {
  int64_t n = 0;
  for (const Signal* sig : {&latency_, &throughput_, &hit_rate_, &retry_rate_}) {
    n += sig->fires;
  }
  return n;
}

std::vector<AnomalyState> AnomalyDetector::States() const {
  std::vector<AnomalyState> out;
  out.reserve(4);
  for (const Signal* sig : {&latency_, &throughput_, &hit_rate_, &retry_rate_}) {
    AnomalyState s;
    s.signal = sig->name;
    s.armed = sig->armed;
    s.alarmed = sig->alarmed;
    s.baseline = sig->ewma;
    s.last = sig->last;
    s.consecutive_violations = sig->violations;
    s.fires = sig->fires;
    out.push_back(s);
  }
  return out;
}

std::string AnomalyDetector::RenderJson() const {
  std::string out = "{\"active\":" + std::to_string(active()) +
                    ",\"triggers_total\":" + std::to_string(triggers()) + ",\"signals\":[";
  bool first = true;
  for (const AnomalyState& s : States()) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"signal\":\"";
    out += s.signal;
    out += "\",\"armed\":";
    out += s.armed ? "true" : "false";
    out += ",\"alarmed\":";
    out += s.alarmed ? "true" : "false";
    out += ",\"baseline\":" + std::to_string(s.baseline) +
           ",\"last\":" + std::to_string(s.last) +
           ",\"consecutive_violations\":" + std::to_string(s.consecutive_violations) +
           ",\"fires\":" + std::to_string(s.fires) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace msd
