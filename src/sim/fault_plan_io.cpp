#include <cctype>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "flb/graph/serialize.hpp"
#include "flb/sim/faults.hpp"
#include "flb/util/error.hpp"

/// \file fault_plan_io.cpp
/// Text (de)serialization of FaultPlan — see the format comment in
/// faults.hpp. Kept separate from faults.cpp so the fault *semantics*
/// (resolution, randomness) stay independent of the ingestion path, which
/// is fuzzed.

namespace flb {

namespace {

[[noreturn]] void bad_line(const std::string& line, const char* why) {
  throw Error("read_fault_plan: " + std::string(why) + " in line '" + line +
              "'");
}

double field(std::istringstream& ls, const std::string& line,
             const char* what) {
  double v = 0.0;
  if (!(ls >> v)) bad_line(line, what);
  if (!std::isfinite(v)) bad_line(line, what);
  return v;
}

double opt_field(std::istringstream& ls, const std::string& line,
                 const char* what, double fallback) {
  std::string word;
  if (!(ls >> word)) return fallback;
  if (word == "inf") return kInfiniteTime;
  std::istringstream ws(word);
  double v = 0.0;
  if (!(ws >> v) || !ws.eof()) bad_line(line, what);
  if (std::isnan(v)) bad_line(line, what);
  return v;
}

ProcId proc_field(std::istringstream& ls, const std::string& line) {
  std::uint64_t p = 0;
  if (!(ls >> p)) bad_line(line, "missing or malformed processor id");
  if (p >= kInvalidProc) bad_line(line, "processor id out of range");
  return static_cast<ProcId>(p);
}

void expect_end(std::istringstream& ls, const std::string& line) {
  std::string rest;
  if (ls >> rest) bad_line(line, "trailing fields");
}

}  // namespace

FaultPlan read_fault_plan(std::istream& is) {
  std::string line;
  FLB_REQUIRE(next_line(is, line), "read_fault_plan: empty input");
  {
    std::istringstream ls(line);
    std::string magic;
    int version = 0;
    FLB_REQUIRE(static_cast<bool>(ls >> magic >> version) &&
                    magic == "flb-faultplan" && version == 1,
                "read_fault_plan: expected header 'flb-faultplan 1', got '" +
                    line + "'");
  }

  FaultPlan plan;
  while (next_line(is, line)) {
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    if (directive == "seed") {
      if (!(ls >> plan.seed)) bad_line(line, "missing or malformed seed");
      expect_end(ls, line);
    } else if (directive == "runtime-spread") {
      plan.runtime_spread = field(ls, line, "missing or malformed spread");
      expect_end(ls, line);
    } else if (directive == "checkpoint") {
      plan.checkpoint.interval =
          field(ls, line, "missing or malformed checkpoint interval");
      plan.checkpoint.overhead =
          field(ls, line, "missing or malformed checkpoint overhead");
      plan.checkpoint.min_downstream =
          opt_field(ls, line, "malformed checkpoint min-downstream", 0.0);
      expect_end(ls, line);
    } else if (directive == "heartbeat") {
      HeartbeatConfig& h = plan.heartbeat;
      h.period = field(ls, line, "missing or malformed heartbeat period");
      h.loss_probability =
          field(ls, line, "malformed heartbeat loss probability");
      h.delay_probability =
          field(ls, line, "malformed heartbeat delay probability");
      h.delay_factor = field(ls, line, "malformed heartbeat delay factor");
      h.suspect_after =
          field(ls, line, "malformed heartbeat suspect threshold");
      h.confirm_after =
          field(ls, line, "malformed heartbeat confirm threshold");
      expect_end(ls, line);
    } else if (directive == "message") {
      MessageFaults& m = plan.message;
      m.loss_probability = field(ls, line, "malformed loss probability");
      m.delay_probability = field(ls, line, "malformed delay probability");
      m.delay_factor = field(ls, line, "malformed delay factor");
      double retries = field(ls, line, "malformed max retries");
      if (retries < 0.0 || retries != std::floor(retries) ||
          retries > 1e6)
        bad_line(line, "max retries must be a small non-negative integer");
      m.max_retries = static_cast<std::size_t>(retries);
      m.retry_timeout = field(ls, line, "malformed retry timeout");
      m.backoff = field(ls, line, "malformed backoff");
      expect_end(ls, line);
    } else if (directive == "fail") {
      ProcFailure f;
      f.proc = proc_field(ls, line);
      f.time = field(ls, line, "missing or malformed failure time");
      expect_end(ls, line);
      plan.failures.push_back(f);
    } else if (directive == "rejoin") {
      ProcRejoin r;
      r.proc = proc_field(ls, line);
      r.time = field(ls, line, "missing or malformed rejoin time");
      expect_end(ls, line);
      plan.rejoins.push_back(r);
    } else if (directive == "slowdown") {
      SlowdownFault s;
      s.proc = proc_field(ls, line);
      s.time = field(ls, line, "missing or malformed slowdown time");
      s.factor = field(ls, line, "missing or malformed slowdown factor");
      s.until = opt_field(ls, line, "malformed until", kInfiniteTime);
      expect_end(ls, line);
      plan.slowdowns.push_back(s);
    } else if (directive == "domain") {
      FailureDomain d;
      if (!(ls >> d.name)) bad_line(line, "missing domain name");
      std::uint64_t member = 0;
      while (ls >> member) {
        if (member >= kInvalidProc)
          bad_line(line, "domain member out of range");
        d.members.push_back(static_cast<ProcId>(member));
      }
      if (!ls.eof()) bad_line(line, "malformed domain member");
      if (d.members.empty()) bad_line(line, "domain lists no members");
      plan.domains.push_back(std::move(d));
    } else if (directive == "burst") {
      DomainBurst b;
      if (!(ls >> b.domain)) bad_line(line, "missing burst domain");
      b.time = field(ls, line, "missing or malformed burst time");
      b.window = field(ls, line, "missing or malformed burst window");
      b.probability = opt_field(ls, line, "malformed probability", 1.0);
      b.slowdown_factor = opt_field(ls, line, "malformed slowdown", 0.0);
      b.cascade_probability =
          opt_field(ls, line, "malformed cascade probability", 0.0);
      b.cascade_delay = opt_field(ls, line, "malformed cascade delay", 0.0);
      b.recovery_delay =
          opt_field(ls, line, "malformed recovery delay", 0.0);
      expect_end(ls, line);
      plan.bursts.push_back(std::move(b));
    } else if (directive == "partition") {
      PartitionFault p;
      std::string ends[2];
      if (!(ls >> ends[0] >> ends[1]))
        bad_line(line, "missing partition endpoint");
      for (int e = 0; e < 2; ++e) {
        ProcId& proc = e == 0 ? p.proc_a : p.proc_b;
        std::string& domain = e == 0 ? p.domain_a : p.domain_b;
        if (!ends[e].empty() && std::isdigit(
                static_cast<unsigned char>(ends[e][0]))) {
          std::istringstream ws(ends[e]);
          std::uint64_t id = 0;
          if (!(ws >> id) || !ws.eof())
            bad_line(line, "malformed partition endpoint");
          if (id >= kInvalidProc)
            bad_line(line, "partition endpoint out of range");
          proc = static_cast<ProcId>(id);
        } else {
          domain = ends[e];
        }
      }
      if (ends[0] == ends[1])
        bad_line(line, "a partition needs two distinct endpoints");
      p.time = field(ls, line, "missing or malformed partition time");
      p.until = opt_field(ls, line, "malformed until", kInfiniteTime);
      if (p.until <= p.time)
        bad_line(line, "partition heal instant must be after its onset");
      expect_end(ls, line);
      plan.partitions.push_back(std::move(p));
    } else {
      bad_line(line, "unknown directive");
    }
  }
  return plan;
}

FaultPlan fault_plan_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_fault_plan(is);
}

void write_fault_plan(std::ostream& os, const FaultPlan& plan) {
  const auto precision = os.precision(17);
  os << "flb-faultplan 1\n";
  os << "seed " << plan.seed << "\n";
  if (plan.runtime_spread != 0.0)
    os << "runtime-spread " << plan.runtime_spread << "\n";
  if (plan.checkpoint.enabled() || plan.checkpoint.overhead != 0.0 ||
      plan.checkpoint.min_downstream != 0.0) {
    os << "checkpoint " << plan.checkpoint.interval << " "
       << plan.checkpoint.overhead;
    if (plan.checkpoint.min_downstream != 0.0)
      os << " " << plan.checkpoint.min_downstream;
    os << "\n";
  }
  {
    const HeartbeatConfig defaults;
    const HeartbeatConfig& h = plan.heartbeat;
    if (h.period != defaults.period ||
        h.loss_probability != defaults.loss_probability ||
        h.delay_probability != defaults.delay_probability ||
        h.delay_factor != defaults.delay_factor ||
        h.suspect_after != defaults.suspect_after ||
        h.confirm_after != defaults.confirm_after)
      os << "heartbeat " << h.period << " " << h.loss_probability << " "
         << h.delay_probability << " " << h.delay_factor << " "
         << h.suspect_after << " " << h.confirm_after << "\n";
  }
  {
    const MessageFaults defaults;
    const MessageFaults& m = plan.message;
    if (m.loss_probability != defaults.loss_probability ||
        m.delay_probability != defaults.delay_probability ||
        m.delay_factor != defaults.delay_factor ||
        m.max_retries != defaults.max_retries ||
        m.retry_timeout != defaults.retry_timeout ||
        m.backoff != defaults.backoff)
      os << "message " << m.loss_probability << " " << m.delay_probability
         << " " << m.delay_factor << " " << m.max_retries << " "
         << m.retry_timeout << " " << m.backoff << "\n";
  }
  for (const ProcFailure& f : plan.failures)
    os << "fail " << f.proc << " " << f.time << "\n";
  for (const ProcRejoin& r : plan.rejoins)
    os << "rejoin " << r.proc << " " << r.time << "\n";
  for (const SlowdownFault& s : plan.slowdowns) {
    os << "slowdown " << s.proc << " " << s.time << " " << s.factor;
    if (s.until != kInfiniteTime) os << " " << s.until;
    os << "\n";
  }
  for (const FailureDomain& d : plan.domains) {
    os << "domain " << d.name;
    for (ProcId m : d.members) os << " " << m;
    os << "\n";
  }
  for (const DomainBurst& b : plan.bursts)
    os << "burst " << b.domain << " " << b.time << " " << b.window << " "
       << b.probability << " " << b.slowdown_factor << " "
       << b.cascade_probability << " " << b.cascade_delay << " "
       << b.recovery_delay << "\n";
  for (const PartitionFault& p : plan.partitions) {
    os << "partition ";
    if (p.domain_a.empty())
      os << p.proc_a;
    else
      os << p.domain_a;
    os << " ";
    if (p.domain_b.empty())
      os << p.proc_b;
    else
      os << p.domain_b;
    os << " " << p.time;
    if (p.until != kInfiniteTime) os << " " << p.until;
    os << "\n";
  }
  os.precision(precision);
}

std::string to_fault_plan_text(const FaultPlan& plan) {
  std::ostringstream os;
  write_fault_plan(os, plan);
  return os.str();
}

}  // namespace flb
