#include "core/environment.hpp"

#include <sstream>
#include <stdexcept>

#include "core/colon_spec.hpp"

namespace flip {

namespace {

using colon_spec::bad_spec;
using colon_spec::parse_number;
using colon_spec::split_colon;

void check_eps(double eps, const char* what) {
  if (!(eps > 0.0) || eps > 0.5) {
    std::ostringstream os;
    os << what << " must be in (0, 0.5], got " << eps;
    throw std::invalid_argument(os.str());
  }
}

void check_prob(double p, const char* what) {
  if (!(p >= 0.0) || p > 1.0) {
    std::ostringstream os;
    os << what << " must be in [0, 1], got " << p;
    throw std::invalid_argument(os.str());
  }
}

Round parse_round(std::string_view text, std::string_view spec) {
  return colon_spec::parse_field<Round>(text, spec, "not a round number");
}

}  // namespace

void EnvironmentSchedule::validate() const {
  if (!enabled()) return;
  if (base_eps != 0.0) check_eps(base_eps, "schedule base eps");
  for (const EpsSegment& seg : segments) {
    check_eps(seg.eps_from, "schedule segment eps");
    check_eps(seg.eps_to, "schedule segment eps");
    if (seg.end != 0 && seg.end <= seg.begin) {
      throw std::invalid_argument("schedule segment must have end > begin");
    }
  }
  check_prob(burst_prob, "burst probability");
  if (burst_prob > 0.0) {
    if (burst_len == 0) {
      throw std::invalid_argument("burst length must be >= 1 round");
    }
    check_eps(burst_eps, "burst eps");
  }
}

double EnvironmentSchedule::segment_eps_at(Round r) const {
  double eps = base_eps;
  for (const EpsSegment& seg : segments) {
    if (r < seg.begin) continue;
    if (seg.end != 0 && r >= seg.end) {
      // A finished segment holds its final eps until a later segment (or
      // nothing) takes over — a ramp is a transition, not an excursion.
      eps = seg.eps_to;
      continue;
    }
    if (seg.end == 0 || seg.eps_from == seg.eps_to) {
      // Flat segment, or an open-ended ramp that resolved() has not yet
      // anchored: no interpolation to do.
      eps = seg.eps_from;
      continue;
    }
    const double t = static_cast<double>(r - seg.begin) /
                     static_cast<double>(seg.end - seg.begin);
    eps = seg.eps_from + t * (seg.eps_to - seg.eps_from);
  }
  return eps;
}

double EnvironmentSchedule::eps_at(const StreamKey& key, Round r) const {
  double eps = segment_eps_at(r);
  if (burst_prob > 0.0 && burst_len > 0) {
    const Round window = r / burst_len;
    CounterRng rng(
        round_stream_key(key, RngPurpose::kEnvironment, window), 0);
    if (bernoulli(rng, burst_prob)) eps = burst_eps;
  }
  return eps;
}

double EnvironmentSchedule::expected_eps_at(Round r) const {
  const double eps = segment_eps_at(r);
  if (burst_prob > 0.0 && burst_len > 0) {
    return (1.0 - burst_prob) * eps + burst_prob * burst_eps;
  }
  return eps;
}

EnvironmentSchedule EnvironmentSchedule::resolved(double nominal_eps,
                                                  Round total_rounds) const {
  EnvironmentSchedule out = *this;
  if (out.base_eps == 0.0) out.base_eps = nominal_eps;
  std::vector<EpsSegment> kept;
  kept.reserve(out.segments.size());
  for (EpsSegment seg : out.segments) {
    if (seg.end == 0) seg.end = total_rounds;
    if (seg.begin >= seg.end) continue;  // starts at or past the run's end
    kept.push_back(seg);
  }
  out.segments = std::move(kept);
  return out;
}

std::string EnvironmentSchedule::describe() const {
  if (!enabled()) return "static";
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << '+';
    first = false;
  };
  for (const EpsSegment& seg : segments) {
    sep();
    if (seg.eps_from == seg.eps_to && seg.end == 0) {
      os << "step@" << seg.begin << ":" << seg.eps_to;
    } else {
      // ".." rather than "," between the bounds: this string embeds into
      // unquoted CSV cells.
      os << "ramp[" << seg.begin << "..";
      if (seg.end == 0) {
        os << "end";
      } else {
        os << seg.end;
      }
      os << "):" << seg.eps_from << "->" << seg.eps_to;
    }
  }
  if (burst_prob > 0.0) {
    sep();
    os << "burst(p=" << burst_prob << " len=" << burst_len
       << " eps=" << burst_eps << ")";
  }
  return os.str();
}

EnvironmentSchedule EnvironmentSchedule::parse(std::string_view spec) {
  const auto pieces = split_colon(spec);
  EnvironmentSchedule schedule;
  const std::string_view kind = pieces.front();
  if (kind == "ramp") {
    EpsSegment seg;
    if (pieces.size() == 3) {
      seg.eps_from = parse_number(pieces[1], spec);
      seg.eps_to = parse_number(pieces[2], spec);
    } else if (pieces.size() == 5) {
      seg.begin = parse_round(pieces[1], spec);
      seg.end = parse_round(pieces[2], spec);
      seg.eps_from = parse_number(pieces[3], spec);
      seg.eps_to = parse_number(pieces[4], spec);
    } else {
      bad_spec("ramp takes EPS0:EPS1 or R0:R1:EPS0:EPS1", spec);
    }
    schedule.segments.push_back(seg);
  } else if (kind == "step") {
    if (pieces.size() != 3) bad_spec("step takes R:EPS", spec);
    EpsSegment seg;
    seg.begin = parse_round(pieces[1], spec);
    const double eps = parse_number(pieces[2], spec);
    seg.eps_from = seg.eps_to = eps;
    schedule.segments.push_back(seg);
  } else if (kind == "burst") {
    if (pieces.size() != 4) bad_spec("burst takes PROB:LEN:EPS", spec);
    schedule.burst_prob = parse_number(pieces[1], spec);
    schedule.burst_len = parse_round(pieces[2], spec);
    schedule.burst_eps = parse_number(pieces[3], spec);
  } else {
    bad_spec("unknown schedule kind (ramp | step | burst)", spec);
  }
  schedule.validate();
  return schedule;
}

void ChurnSpec::validate() const {
  check_prob(sleep_prob, "churn sleep probability");
  check_prob(wake_prob, "churn wake probability");
  check_prob(start_asleep, "churn start_asleep probability");
}

std::string ChurnSpec::describe() const {
  if (!enabled()) return "none";
  std::ostringstream os;
  os << "sleep=" << sleep_prob << " wake=" << wake_prob;
  if (start_asleep > 0.0) os << " start_asleep=" << start_asleep;
  return os.str();
}

ChurnSpec ChurnSpec::parse(std::string_view spec) {
  const auto pieces = split_colon(spec);
  if (pieces.size() != 2 && pieces.size() != 3) {
    bad_spec("churn takes SLEEP:WAKE[:START_ASLEEP]", spec);
  }
  ChurnSpec churn;
  churn.sleep_prob = parse_number(pieces[0], spec);
  churn.wake_prob = parse_number(pieces[1], spec);
  if (pieces.size() == 3) churn.start_asleep = parse_number(pieces[2], spec);
  churn.validate();
  return churn;
}

}  // namespace flip
