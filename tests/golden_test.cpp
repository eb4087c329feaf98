// Golden digests for the paths no other test pins bit for bit: every
// baseline scheduler whose ready list is an indexed heap (its own or
// priority_order's), Sarkar's clustering, the improvers, the exhaustive
// list schedulers (ETF, DLS, ETF-LA), and one online-recovery episode per
// liveness mode of the controller. The values were captured before the
// baselines moved onto the d-ary heaps and before the controller's
// liveness modes shared one loop (the ETF, DLS and ETF-LA rows from each
// algorithm's own ready-list loop); a heap that pops in a different order,
// a selection that prices or breaks a tie differently, or a controller
// that senses, merges or prices anything differently, moves a digest
// here. Schedules hash through schedule_digest, makespans compare as exact
// bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flb/algos/dsc.hpp"
#include "flb/algos/duplication.hpp"
#include "flb/algos/heft.hpp"
#include "flb/algos/mapping.hpp"
#include "flb/algos/sarkar.hpp"
#include "flb/analysis/audit.hpp"
#include "flb/core/flb.hpp"
#include "flb/platform/cost_model.hpp"
#include "flb/runtime/recovery_runtime.hpp"
#include "flb/sched/improve.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sim/faults.hpp"
#include "flb/util/fnv1a.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

using runtime::BeliefEvent;
using runtime::RepairInvocation;
using runtime::RuntimeOptions;
using runtime::RuntimeResult;
using runtime::run_online_recovery;

// --- Baseline schedulers -----------------------------------------------------

/// HEFT/CPOP machine: a clique with three speed classes cycled over the
/// processors.
platform::CostModel mixed_speeds(ProcId procs) {
  std::vector<double> speeds;
  for (ProcId p = 0; p < procs; ++p) speeds.push_back(1.0 + 0.25 * (p % 3));
  platform::CostModel model = platform::CostModel::clique(procs);
  model.set_speeds(std::move(speeds));
  return model;
}

/// A duplication schedule has no schedule_digest: hash every instance as one
/// "task proc start finish" line with hexfloat times.
std::uint64_t dup_digest(const DupSchedule& s) {
  std::ostringstream text;
  text << std::hexfloat;
  for (TaskId t = 0; t < s.num_tasks(); ++t)
    for (const Placement& in : s.instances(t))
      text << t << ' ' << in.proc << ' ' << in.start << ' ' << in.finish
           << '\n';
  return runtime::fnv1a_digest(text.str());
}

struct Outcome {
  Cost makespan;
  std::uint64_t digest;
};

/// Registry names run through make_scheduler; the rest name the list
/// schedulers the registry does not reach (HEFT and CPOP on a mixed-speed
/// clique model, HEFT on a unit-speed clique model, Sarkar clustering with
/// work mapping, DSC clustering with wrap mapping, DSH-style duplication,
/// and the hill-climbing and annealing improvers started from FLB's
/// schedule).
Outcome run_baseline(const std::string& algo, const TaskGraph& g,
                     ProcId procs) {
  if (algo == "DUP") {
    const DupSchedule s = DupScheduler().run(g, procs);
    return {s.makespan(), dup_digest(s)};
  }
  const Schedule s = [&] {
    if (algo == "HEFT" || algo == "CPOP") {
      platform::CostModel model = mixed_speeds(procs);
      return algo == "HEFT" ? heft(g, model) : cpop(g, model);
    }
    if (algo == "HEFT-MODEL") {
      platform::CostModel model = platform::CostModel::clique(procs);
      return heft(g, model);
    }
    if (algo == "SARKAR-WORK") return work_map(g, sarkar_cluster(g), procs);
    if (algo == "DSC-WRAP") return wrap_map(g, dsc_cluster(g), procs);
    if (algo == "IMPROVE")
      return improve_schedule(g, FlbScheduler().run(g, procs)).schedule;
    if (algo == "ANNEAL")
      return anneal_schedule(g, FlbScheduler().run(g, procs)).schedule;
    return make_scheduler(algo)->run(g, procs);
  }();
  return {s.makespan(), schedule_digest(s)};
}

constexpr int kPaper = -1;  // the paper's example graph, not a fuzz graph

struct BaselineGolden {
  const char* algo;
  int graph;  // test::fuzz_graph index, or kPaper
  ProcId procs;
  double makespan;  // exact bits
  std::uint64_t digest;
};

// The paper example on two processors, then the fuzz corpus of
// PlatformGolden.FuzzCorpusBitIdentical on 2, 4 and 8 processors.
const BaselineGolden kBaselines[] = {
    {"MCP", kPaper, 2, 0x1.cp+3, 0x520813c3243ff979ull},
    {"MCP", 0, 2, 0x1.5dfc1d62defb8p+3, 0x3999fd08ee472104ull},
    {"MCP", 0, 4, 0x1.bb6e620c588eep+2, 0x69027dfa45a4c2c6ull},
    {"MCP", 0, 8, 0x1.bb6e620c588eep+2, 0x500888b0f83a7ca4ull},
    {"MCP", 1, 2, 0x1.61d39f15da544p+3, 0x5e5aa89f04b08075ull},
    {"MCP", 1, 4, 0x1.50adb874ac421p+3, 0x3a9d100ea1192917ull},
    {"MCP", 1, 8, 0x1.50adb874ac421p+3, 0x3a9d100ea1192917ull},
    {"MCP", 2, 2, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP", 2, 4, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP", 2, 8, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP", 3, 2, 0x1.c318689a5ddc8p+2, 0x8f9a1c023050a801ull},
    {"MCP", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"MCP", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"MCP", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP", 5, 2, 0x1.9b900296b2625p+4, 0x79734964bc2e9d18ull},
    {"MCP", 5, 4, 0x1.9b900296b2625p+4, 0x9f08f0e69f8e550cull},
    {"MCP", 5, 8, 0x1.9b900296b2625p+4, 0x9f08f0e69f8e550cull},
    {"MCP", 6, 2, 0x1.125544f64761ep+4, 0x93f00f2c6ba878c2ull},
    {"MCP", 6, 4, 0x1.c6c4f8af08d6ap+3, 0xbdc1c1746032fd3cull},
    {"MCP", 6, 8, 0x1.c6c4f8af08d6ap+3, 0xaac6e20594f96f69ull},
    {"MCP", 7, 2, 0x1.c9df4207fe078p+3, 0x98f7f92f6bd57725ull},
    {"MCP", 7, 4, 0x1.16cc1555b65b5p+3, 0xbba1c848311f9fb5ull},
    {"MCP", 7, 8, 0x1.152eb1d3e4894p+3, 0x5891c7f23d92579cull},
    {"MCP-I", kPaper, 2, 0x1.cp+3, 0x520813c3243ff979ull},
    {"MCP-I", 0, 2, 0x1.4cdb5b0459bf6p+3, 0x47548f4db1bac3b2ull},
    {"MCP-I", 0, 4, 0x1.bb6e620c588eep+2, 0xd69512b8675598d3ull},
    {"MCP-I", 0, 8, 0x1.bb6e620c588eep+2, 0x5f85286c56638069ull},
    {"MCP-I", 1, 2, 0x1.5a6033f4eec98p+3, 0xcd998af88d941802ull},
    {"MCP-I", 1, 4, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"MCP-I", 1, 8, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"MCP-I", 2, 2, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP-I", 2, 4, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP-I", 2, 8, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"MCP-I", 3, 2, 0x1.c318689a5ddc8p+2, 0xebaefb754de633b1ull},
    {"MCP-I", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"MCP-I", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"MCP-I", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP-I", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP-I", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"MCP-I", 5, 2, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"MCP-I", 5, 4, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"MCP-I", 5, 8, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"MCP-I", 6, 2, 0x1.125544f64761ep+4, 0x93f00f2c6ba878c2ull},
    {"MCP-I", 6, 4, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"MCP-I", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"MCP-I", 7, 2, 0x1.a556076dbde1dp+3, 0x9529be0c7082ef3eull},
    {"MCP-I", 7, 4, 0x1.151117574ec0fp+3, 0x06c8960be299e507ull},
    {"MCP-I", 7, 8, 0x1.151117574ec0fp+3, 0xbe14c64784867731ull},
    {"FCP", kPaper, 2, 0x1.ap+3, 0xc114dd877f2c9299ull},
    {"FCP", 0, 2, 0x1.5dfc1d62defb8p+3, 0x3999fd08ee472104ull},
    {"FCP", 0, 4, 0x1.bb6e620c588eep+2, 0x95168e3332f137b5ull},
    {"FCP", 0, 8, 0x1.bb6e620c588eep+2, 0x40c9ae7cae033b0full},
    {"FCP", 1, 2, 0x1.61d39f15da544p+3, 0x5e5aa89f04b08075ull},
    {"FCP", 1, 4, 0x1.50adb874ac421p+3, 0x1502d6089c6acdacull},
    {"FCP", 1, 8, 0x1.50adb874ac421p+3, 0xb511cc9714cdf4b6ull},
    {"FCP", 2, 2, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"FCP", 2, 4, 0x1.fa272025984d8p+4, 0x9179fd22ebab1d13ull},
    {"FCP", 2, 8, 0x1.fa272025984d8p+4, 0x9179fd22ebab1d13ull},
    {"FCP", 3, 2, 0x1.c318689a5ddc8p+2, 0x8f9a1c023050a801ull},
    {"FCP", 3, 4, 0x1.c318689a5ddc8p+2, 0x062c6864d57a353eull},
    {"FCP", 3, 8, 0x1.c318689a5ddc8p+2, 0x637c59692b6a3e62ull},
    {"FCP", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"FCP", 4, 4, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"FCP", 4, 8, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"FCP", 5, 2, 0x1.9b900296b2625p+4, 0x79734964bc2e9d18ull},
    {"FCP", 5, 4, 0x1.9b900296b2625p+4, 0x2dd7fe11f5af8819ull},
    {"FCP", 5, 8, 0x1.9b900296b2625p+4, 0x2dd7fe11f5af8819ull},
    {"FCP", 6, 2, 0x1.125544f64761ep+4, 0x93f00f2c6ba878c2ull},
    {"FCP", 6, 4, 0x1.c6c4f8af08d6ap+3, 0x519e4ea4bc9a79d9ull},
    {"FCP", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x4bd1551e90002076ull},
    {"FCP", 7, 2, 0x1.c9df4207fe078p+3, 0x98f7f92f6bd57725ull},
    {"FCP", 7, 4, 0x1.0ecead8f53a5fp+3, 0xc317a14653f53a53ull},
    {"FCP", 7, 8, 0x1.0ecead8f53a5fp+3, 0x71a228b08141bddcull},
    {"DSC-LLB", kPaper, 2, 0x1.cp+3, 0x107511c9371858a7ull},
    {"DSC-LLB", 0, 2, 0x1.4904a6364528p+3, 0x18f463d43fbdde25ull},
    {"DSC-LLB", 0, 4, 0x1.f2069ae073752p+2, 0xe9d057e39296995full},
    {"DSC-LLB", 0, 8, 0x1.bb6e620c588eep+2, 0x8bedfe4dd92b08adull},
    {"DSC-LLB", 1, 2, 0x1.84d3c9351f424p+3, 0xcbbae020270c9bb6ull},
    {"DSC-LLB", 1, 4, 0x1.50adb874ac421p+3, 0x43db2aecfbc422f5ull},
    {"DSC-LLB", 1, 8, 0x1.50adb874ac421p+3, 0xd5a4696bb55bd402ull},
    {"DSC-LLB", 2, 2, 0x1.25b27df774508p+5, 0xf3e14c047bf2ea6full},
    {"DSC-LLB", 2, 4, 0x1.25b27df774508p+5, 0x7ea77ee650d39bceull},
    {"DSC-LLB", 2, 8, 0x1.25b27df774508p+5, 0xfa36c209719a121bull},
    {"DSC-LLB", 3, 2, 0x1.da255f0399078p+2, 0xf94a908b1b01ddbbull},
    {"DSC-LLB", 3, 4, 0x1.da255f0399078p+2, 0x2dc2949ce4386af1ull},
    {"DSC-LLB", 3, 8, 0x1.da255f0399078p+2, 0x32d6e93552d4ae14ull},
    {"DSC-LLB", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"DSC-LLB", 4, 4, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"DSC-LLB", 4, 8, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"DSC-LLB", 5, 2, 0x1.36b8e4deef72ep+4, 0xb4cc54a377663d19ull},
    {"DSC-LLB", 5, 4, 0x1.36b8e4deef72ep+4, 0x3740195f3af7f397ull},
    {"DSC-LLB", 5, 8, 0x1.36b8e4deef72ep+4, 0x3740195f3af7f397ull},
    {"DSC-LLB", 6, 2, 0x1.24b02001edaaap+4, 0xc2c4f64bd305e188ull},
    {"DSC-LLB", 6, 4, 0x1.cee8bb6918a38p+3, 0x77f488c2702b783eull},
    {"DSC-LLB", 6, 8, 0x1.cee8bb6918a38p+3, 0x6869788ae36e6e35ull},
    {"DSC-LLB", 7, 2, 0x1.87816f8263cf3p+3, 0x2d88ea48737f29b1ull},
    {"DSC-LLB", 7, 4, 0x1.71cbef9eda7e3p+3, 0x359d1eb906bce940ull},
    {"DSC-LLB", 7, 8, 0x1.1500fc78c5871p+3, 0x4a3636a000329a30ull},
    {"HLFET", kPaper, 2, 0x1.cp+3, 0x46f5f2b37bf3157eull},
    {"HLFET", 0, 2, 0x1.5966f29088a2ep+3, 0x299094903eb4265dull},
    {"HLFET", 0, 4, 0x1.bb6e620c588eep+2, 0xfe8b1d081fc9d522ull},
    {"HLFET", 0, 8, 0x1.bb6e620c588eep+2, 0x67e179eace9c362cull},
    {"HLFET", 1, 2, 0x1.83bae2661535p+3, 0x20023f8dc5cd266aull},
    {"HLFET", 1, 4, 0x1.50adb874ac421p+3, 0x3a9d100ea1192917ull},
    {"HLFET", 1, 8, 0x1.50adb874ac421p+3, 0x3a9d100ea1192917ull},
    {"HLFET", 2, 2, 0x1.f46b33a0e5fdep+4, 0x8fada6be691e1f6eull},
    {"HLFET", 2, 4, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"HLFET", 2, 8, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"HLFET", 3, 2, 0x1.c318689a5ddc8p+2, 0x8f9a1c023050a801ull},
    {"HLFET", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"HLFET", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"HLFET", 4, 2, 0x1.1d00357e02c5p+4, 0x0752d67a47a0da5cull},
    {"HLFET", 4, 4, 0x1.0e0606b5ebf5p+4, 0x26bddfe71301c7ddull},
    {"HLFET", 4, 8, 0x1.0e0606b5ebf5p+4, 0x26bddfe71301c7ddull},
    {"HLFET", 5, 2, 0x1.7181ed24c000dp+4, 0x2efc895d548a573cull},
    {"HLFET", 5, 4, 0x1.4e3a7ff092f1ap+4, 0x27daa3e3c8fd2474ull},
    {"HLFET", 5, 8, 0x1.4e3a7ff092f1ap+4, 0x27daa3e3c8fd2474ull},
    {"HLFET", 6, 2, 0x1.10e2809f2f359p+4, 0x19a06e3309bdac2dull},
    {"HLFET", 6, 4, 0x1.c6c4f8af08d6ap+3, 0xcec9b2608e2ee967ull},
    {"HLFET", 6, 8, 0x1.c6c4f8af08d6ap+3, 0xd23f1df39d42884aull},
    {"HLFET", 7, 2, 0x1.cc442fe34922cp+3, 0x5e77345afe663aadull},
    {"HLFET", 7, 4, 0x1.152eb1d3e4894p+3, 0xaa248613ef304e9cull},
    {"HLFET", 7, 8, 0x1.152eb1d3e4894p+3, 0x1e26401f2f9e6ab6ull},
    {"ISH", kPaper, 2, 0x1.cp+3, 0x46f5f2b37bf3157eull},
    {"ISH", 0, 2, 0x1.4e0b0ae1fc64ep+3, 0x0a0d6df48b445d04ull},
    {"ISH", 0, 4, 0x1.bb6e620c588eep+2, 0x207731738b4f0c31ull},
    {"ISH", 0, 8, 0x1.bb6e620c588eep+2, 0xb55178d7214d4173ull},
    {"ISH", 1, 2, 0x1.7a0866e5d2adap+3, 0xe6df6d5123869d04ull},
    {"ISH", 1, 4, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"ISH", 1, 8, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"ISH", 2, 2, 0x1.f46b33a0e5fdep+4, 0x8fada6be691e1f6eull},
    {"ISH", 2, 4, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"ISH", 2, 8, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"ISH", 3, 2, 0x1.c318689a5ddc8p+2, 0xebaefb754de633b1ull},
    {"ISH", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"ISH", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"ISH", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ISH", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ISH", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ISH", 5, 2, 0x1.6842220fc3601p+4, 0x60abc2f9fd3bd4c3ull},
    {"ISH", 5, 4, 0x1.6842220fc3601p+4, 0x60abc2f9fd3bd4c3ull},
    {"ISH", 5, 8, 0x1.6842220fc3601p+4, 0x60abc2f9fd3bd4c3ull},
    {"ISH", 6, 2, 0x1.0974d1b77c616p+4, 0x74a24a006e259196ull},
    {"ISH", 6, 4, 0x1.c6c4f8af08d6ap+3, 0xc3fd6fb84ca74de4ull},
    {"ISH", 6, 8, 0x1.c6c4f8af08d6ap+3, 0xc3fd6fb84ca74de4ull},
    {"ISH", 7, 2, 0x1.b38a50a9bb558p+3, 0x6fee4ec5117bb1b7ull},
    {"ISH", 7, 4, 0x1.157c11c0d2a1bp+3, 0xeb2584b683b13c12ull},
    {"ISH", 7, 8, 0x1.157c11c0d2a1bp+3, 0x807db971372c1915ull},
    {"HEFT", kPaper, 2, 0x1.9333333333333p+3, 0xf38ca483444941ccull},
    {"HEFT", 0, 2, 0x1.260e0de311889p+3, 0x02c8e8ec37434d98ull},
    {"HEFT", 0, 4, 0x1.49311325234bp+2, 0xba12c21ebfa3ba23ull},
    {"HEFT", 0, 8, 0x1.296295cdf48acp+2, 0xd2298562854c4a92ull},
    {"HEFT", 1, 2, 0x1.42a918404865ap+3, 0x587d631ac4de477cull},
    {"HEFT", 1, 4, 0x1.e72c2c227ac75p+2, 0x2090a9aaaa2b57e4ull},
    {"HEFT", 1, 8, 0x1.ec422a54c5cb7p+2, 0x9fb005e659b8b9eaull},
    {"HEFT", 2, 2, 0x1.c5d5e0e1569cdp+4, 0xf00fbd069e9381daull},
    {"HEFT", 2, 4, 0x1.9cb221ef05339p+4, 0x4fdad03648c9330eull},
    {"HEFT", 2, 8, 0x1.9789e5090a471p+4, 0x0941bd2969062999ull},
    {"HEFT", 3, 2, 0x1.75d063fc630d8p+2, 0x9a91791afd98ccd6ull},
    {"HEFT", 3, 4, 0x1.2cbaf066e93dbp+2, 0x6590284fbccbb38dull},
    {"HEFT", 3, 8, 0x1.2cbaf066e93dbp+2, 0x4c89d7ccfa49de03ull},
    {"HEFT", 4, 2, 0x1.bcebc56463915p+3, 0x2b6fe25bc5729ea2ull},
    {"HEFT", 4, 4, 0x1.83003a42bbc68p+3, 0x12701064f2c9f064ull},
    {"HEFT", 4, 8, 0x1.75cb32155e036p+3, 0x0cf3959c2a509b75ull},
    {"HEFT", 5, 2, 0x1.025d2f90737fp+4, 0xd42217a20fd6ebd5ull},
    {"HEFT", 5, 4, 0x1.a047076599c92p+3, 0x5400997cf193c042ull},
    {"HEFT", 5, 8, 0x1.b7b8024c31dfp+3, 0xe0cbe55b822cfc91ull},
    {"HEFT", 6, 2, 0x1.d0510db4868c3p+3, 0x286475496764857eull},
    {"HEFT", 6, 4, 0x1.56e849bee91bp+3, 0x107685e53ad4ba03ull},
    {"HEFT", 6, 8, 0x1.33e85327fa47ap+3, 0xf882d888e7d26bcdull},
    {"HEFT", 7, 2, 0x1.724057af32fd9p+3, 0xfd9f79c127292876ull},
    {"HEFT", 7, 4, 0x1.e29a70b43def8p+2, 0x5e2cc860cc3ca5a8ull},
    {"HEFT", 7, 8, 0x1.bee31678e6e26p+2, 0x39ad75d47396b779ull},
    {"CPOP", kPaper, 2, 0x1.cp+3, 0x7d7aa5ab5185054bull},
    {"CPOP", 0, 2, 0x1.351c1b861463p+3, 0xc6418212d5e08ae5ull},
    {"CPOP", 0, 4, 0x1.4a5fa2af8cee4p+2, 0xb43fd393ed9dfc4bull},
    {"CPOP", 0, 8, 0x1.2c619ec8ea9e8p+2, 0x613d8724dee78e76ull},
    {"CPOP", 1, 2, 0x1.3dc4ba5fba102p+3, 0x881991c46cec6cd7ull},
    {"CPOP", 1, 4, 0x1.139bb7bac076cp+3, 0xa6cea28027a6f042ull},
    {"CPOP", 1, 8, 0x1.caf5fa7955d7cp+2, 0x47b92d3c55159f8eull},
    {"CPOP", 2, 2, 0x1.c5d5e0e1569cdp+4, 0x75e7b383c81fcc22ull},
    {"CPOP", 2, 4, 0x1.9cb221ef05339p+4, 0xfb4f735bc51759aaull},
    {"CPOP", 2, 8, 0x1.9789e5090a471p+4, 0xc559c093f3c8bea5ull},
    {"CPOP", 3, 2, 0x1.972bcaa8996c6p+2, 0x26b57e352d96e501ull},
    {"CPOP", 3, 4, 0x1.534f28e1d52fap+2, 0x30fc4220a443b2b9ull},
    {"CPOP", 3, 8, 0x1.534f28e1d52fap+2, 0x864c4f6f91071383ull},
    {"CPOP", 4, 2, 0x1.bcebc56463915p+3, 0x2b6fe25bc5729ea2ull},
    {"CPOP", 4, 4, 0x1.83003a42bbc68p+3, 0x12701064f2c9f064ull},
    {"CPOP", 4, 8, 0x1.75cb32155e036p+3, 0x0cf3959c2a509b75ull},
    {"CPOP", 5, 2, 0x1.025d2f90737fp+4, 0x0af3d2c130bf4f61ull},
    {"CPOP", 5, 4, 0x1.dfe9cdfc377a3p+3, 0x9cc3aa9a93eb7ac8ull},
    {"CPOP", 5, 8, 0x1.db7282209a5ep+3, 0x2319af1edd65ef46ull},
    {"CPOP", 6, 2, 0x1.e8fd12003933bp+3, 0x79fae4357af6bf8cull},
    {"CPOP", 6, 4, 0x1.66dae5b483dc8p+3, 0x9663cd978cdb3ec5ull},
    {"CPOP", 6, 8, 0x1.6044196c14d08p+3, 0xfcdbdf4d9d03be1bull},
    {"CPOP", 7, 2, 0x1.74a2854b47cafp+3, 0x0aea8c3c87e56f66ull},
    {"CPOP", 7, 4, 0x1.0963a4fd74122p+3, 0xa9e3cc01c93b9d81ull},
    {"CPOP", 7, 8, 0x1.ad8f08cbd2765p+2, 0x0d02af0c04f29067ull},
    {"HEFT-MODEL", kPaper, 2, 0x1.ap+3, 0xc114dd877f2c9299ull},
    {"HEFT-MODEL", 0, 2, 0x1.4cdb5b0459bf6p+3, 0x47548f4db1bac3b2ull},
    {"HEFT-MODEL", 0, 4, 0x1.bb6e620c588eep+2, 0xd69512b8675598d3ull},
    {"HEFT-MODEL", 0, 8, 0x1.bb6e620c588eep+2, 0x5f85286c56638069ull},
    {"HEFT-MODEL", 1, 2, 0x1.5a6033f4eec98p+3, 0xcd998af88d941802ull},
    {"HEFT-MODEL", 1, 4, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"HEFT-MODEL", 1, 8, 0x1.50adb874ac421p+3, 0x6742bb39f34db00eull},
    {"HEFT-MODEL", 2, 2, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"HEFT-MODEL", 2, 4, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"HEFT-MODEL", 2, 8, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"HEFT-MODEL", 3, 2, 0x1.c318689a5ddc8p+2, 0xebaefb754de633b1ull},
    {"HEFT-MODEL", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"HEFT-MODEL", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"HEFT-MODEL", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"HEFT-MODEL", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"HEFT-MODEL", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"HEFT-MODEL", 5, 2, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"HEFT-MODEL", 5, 4, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"HEFT-MODEL", 5, 8, 0x1.2cbdf19897f83p+4, 0x9c2205a351108f96ull},
    {"HEFT-MODEL", 6, 2, 0x1.125544f64761ep+4, 0x93f00f2c6ba878c2ull},
    {"HEFT-MODEL", 6, 4, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"HEFT-MODEL", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"HEFT-MODEL", 7, 2, 0x1.a556076dbde1dp+3, 0x9529be0c7082ef3eull},
    {"HEFT-MODEL", 7, 4, 0x1.151117574ec0fp+3, 0x06c8960be299e507ull},
    {"HEFT-MODEL", 7, 8, 0x1.151117574ec0fp+3, 0xbe14c64784867731ull},
    {"SARKAR-WORK", kPaper, 2, 0x1.ep+3, 0x3b5c5a0702dc97caull},
    {"SARKAR-WORK", 0, 2, 0x1.64b261401dd5ep+3, 0x3f8709632f549cecull},
    {"SARKAR-WORK", 0, 4, 0x1.1e55f54463e0ep+3, 0x0a821bc3c97107f8ull},
    {"SARKAR-WORK", 0, 8, 0x1.cc078128b959ap+2, 0x2a59c87557bdf430ull},
    {"SARKAR-WORK", 1, 2, 0x1.934b471676bp+3, 0x7b2c92aad2616234ull},
    {"SARKAR-WORK", 1, 4, 0x1.6f611d660e585p+3, 0xc24262187214a716ull},
    {"SARKAR-WORK", 1, 8, 0x1.6f611d660e585p+3, 0xac8b01a5fc41fe81ull},
    {"SARKAR-WORK", 2, 2, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"SARKAR-WORK", 2, 4, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"SARKAR-WORK", 2, 8, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"SARKAR-WORK", 3, 2, 0x1.03a1d1a769c23p+3, 0x149ee93b48c7be35ull},
    {"SARKAR-WORK", 3, 4, 0x1.c93f50e95642ep+2, 0xf49e64a4582721a3ull},
    {"SARKAR-WORK", 3, 8, 0x1.c93f50e95642ep+2, 0xd237faadaa356fc1ull},
    {"SARKAR-WORK", 4, 2, 0x1.4c2f5ffa8d061p+4, 0x2a1be02245f28ce9ull},
    {"SARKAR-WORK", 4, 4, 0x1.3c9bf9a70f64cp+4, 0x29030e08b0e16d79ull},
    {"SARKAR-WORK", 4, 8, 0x1.3c9bf9a70f64cp+4, 0x29030e08b0e16d79ull},
    {"SARKAR-WORK", 5, 2, 0x1.70ec604a9049cp+4, 0x580317d768b5f935ull},
    {"SARKAR-WORK", 5, 4, 0x1.70ec604a9049cp+4, 0xea538bbbc617e2fcull},
    {"SARKAR-WORK", 5, 8, 0x1.70ec604a9049cp+4, 0xea538bbbc617e2fcull},
    {"SARKAR-WORK", 6, 2, 0x1.2d248bfccd1f4p+4, 0xfabcd9f6fcef0d6cull},
    {"SARKAR-WORK", 6, 4, 0x1.d18088f947673p+3, 0x1048ef7c323cd3f3ull},
    {"SARKAR-WORK", 6, 8, 0x1.d18088f947673p+3, 0x1048ef7c323cd3f3ull},
    {"SARKAR-WORK", 7, 2, 0x1.e53fc8e885e6ep+3, 0xe90d36f509e5ae39ull},
    {"SARKAR-WORK", 7, 4, 0x1.4bcd984b31bdap+3, 0x7b6b19a1c5245e9dull},
    {"SARKAR-WORK", 7, 8, 0x1.4bcd984b31bdap+3, 0xa1a337f208fc1d9aull},
    {"DUP", kPaper, 2, 0x1.8p+3, 0x3c3e3861e88ccfbbull},
    {"DUP", 0, 2, 0x1.4cdb5b0459bf6p+3, 0x257406a8e6c89e97ull},
    {"DUP", 0, 4, 0x1.b853605e67c4ep+2, 0xf82521c3e620dd6aull},
    {"DUP", 0, 8, 0x1.b853605e67c4ep+2, 0x0d78a0c598648ad9ull},
    {"DUP", 1, 2, 0x1.528d9f912513cp+3, 0x47350baf6c276586ull},
    {"DUP", 1, 4, 0x1.2c07471245002p+3, 0xb78fde0ed940ca01ull},
    {"DUP", 1, 8, 0x1.2903fd01b48b5p+3, 0xb268b362636b1493ull},
    {"DUP", 2, 2, 0x1.8cd547084a558p+4, 0x5ca85cb80ca7646full},
    {"DUP", 2, 4, 0x1.8568415b43a98p+4, 0x4ba10e6fa3fa8940ull},
    {"DUP", 2, 8, 0x1.8568415b43a98p+4, 0xcd1aee71c9c9a78dull},
    {"DUP", 3, 2, 0x1.c318689a5ddc8p+2, 0xb063c9a59f1ee6e4ull},
    {"DUP", 3, 4, 0x1.c318689a5ddc8p+2, 0xfc71b472e434067dull},
    {"DUP", 3, 8, 0x1.c318689a5ddc8p+2, 0x00b8e2535d6123fcull},
    {"DUP", 4, 2, 0x1.0e0606b5ebf5p+4, 0xfcb38d12eee44264ull},
    {"DUP", 4, 4, 0x1.0e0606b5ebf5p+4, 0x998620ea70f11526ull},
    {"DUP", 4, 8, 0x1.0e0606b5ebf5p+4, 0x998620ea70f11526ull},
    {"DUP", 5, 2, 0x1.257929fa9d165p+4, 0xc674980180a76823ull},
    {"DUP", 5, 4, 0x1.1faa93bc8790ap+4, 0xfa58e029c82a5a07ull},
    {"DUP", 5, 8, 0x1.1faa93bc8790ap+4, 0xfa58e029c82a5a07ull},
    {"DUP", 6, 2, 0x1.03ecc4c9994d4p+4, 0x2a93cd5df425df88ull},
    {"DUP", 6, 4, 0x1.c361b06333a8cp+3, 0x7dd91209cc93253dull},
    {"DUP", 6, 8, 0x1.c361b06333a8cp+3, 0xfcfe11456bcc671aull},
    {"DUP", 7, 2, 0x1.99d6bdac79f8p+3, 0x2ce479e9c839d0caull},
    {"DUP", 7, 4, 0x1.096d0b7017088p+3, 0xc417855fbc92b673ull},
    {"DUP", 7, 8, 0x1.de37ab91380cdp+2, 0x70b38803db77dd6full},
};

// The other users of schedule_with_fixed_assignment: wrap mapping of DSC
// clusters and the two improvers, which re-time every candidate assignment
// through it. Captured before the mappers and the improvers took their
// tasks from priority_order.
const BaselineGolden kFixedAssignment[] = {
    {"DSC-WRAP", kPaper, 2, 0x1.ep+3, 0x9405d74c71dd25eaull},
    {"DSC-WRAP", 0, 2, 0x1.830a3f9143c7dp+3, 0x56c6f43d79490b92ull},
    {"DSC-WRAP", 0, 4, 0x1.281116573d6f4p+3, 0xf0dd4ef17942d829ull},
    {"DSC-WRAP", 0, 8, 0x1.df217a511637fp+2, 0x8e0d8465c9749295ull},
    {"DSC-WRAP", 1, 2, 0x1.055974467f59cp+4, 0x041b2e9a7c22803cull},
    {"DSC-WRAP", 1, 4, 0x1.055974467f59cp+4, 0x548065f84cddbf91ull},
    {"DSC-WRAP", 1, 8, 0x1.6ccac38cf137cp+3, 0x330ee7e7e970c690ull},
    {"DSC-WRAP", 2, 2, 0x1.db47a845c4162p+4, 0x1ad814a27b37e5c4ull},
    {"DSC-WRAP", 2, 4, 0x1.fa272025984d8p+4, 0x9179fd22ebab1d13ull},
    {"DSC-WRAP", 2, 8, 0x1.25b27df774508p+5, 0x4c5eef2a2bc0f541ull},
    {"DSC-WRAP", 3, 2, 0x1.4f79aad1b5e39p+3, 0xcadb11e9773e7fceull},
    {"DSC-WRAP", 3, 4, 0x1.0aab5202390fap+3, 0xfcb1cead46f76c88ull},
    {"DSC-WRAP", 3, 8, 0x1.da255f0399078p+2, 0xb2ea113dcf145e08ull},
    {"DSC-WRAP", 4, 2, 0x1.29a87bc25724p+4, 0x484e76dabd84a2daull},
    {"DSC-WRAP", 4, 4, 0x1.0e0606b5ebf5p+4, 0xb867c85967f11fabull},
    {"DSC-WRAP", 4, 8, 0x1.0e0606b5ebf5p+4, 0xb867c85967f11fabull},
    {"DSC-WRAP", 5, 2, 0x1.4bc7c571a3823p+4, 0x8fba24e3879eaf20ull},
    {"DSC-WRAP", 5, 4, 0x1.7445bbb81c01ep+4, 0x43d5327b7cc456f5ull},
    {"DSC-WRAP", 5, 8, 0x1.7445bbb81c01ep+4, 0x43d5327b7cc456f5ull},
    {"DSC-WRAP", 6, 2, 0x1.347b4eed1ae5ap+4, 0xcff4b60d59891147ull},
    {"DSC-WRAP", 6, 4, 0x1.00574e03dfb45p+4, 0x987caa89659dd99dull},
    {"DSC-WRAP", 6, 8, 0x1.cee8bb6918a38p+3, 0xf703cd5e82bbe440ull},
    {"DSC-WRAP", 7, 2, 0x1.21f07116fe0c2p+4, 0x9cc6d32287bc9f0dull},
    {"DSC-WRAP", 7, 4, 0x1.c3ba8266ce852p+3, 0x38152e8f2d7380ceull},
    {"DSC-WRAP", 7, 8, 0x1.3892dd57c1f4p+3, 0x27e47e85f5593ff6ull},
    {"IMPROVE", kPaper, 2, 0x1.cp+3, 0x46f5f2b37bf3157eull},
    {"IMPROVE", 0, 2, 0x1.5587b024382d5p+3, 0x64c308a96fcc8079ull},
    {"IMPROVE", 0, 4, 0x1.c9bb883d0ce0cp+2, 0xb94236417c9466c8ull},
    {"IMPROVE", 0, 8, 0x1.c6bc7f4216cdp+2, 0x3bea47b9331ab499ull},
    {"IMPROVE", 1, 2, 0x1.5fe7bec73a3dep+3, 0xaaf989b211cc3c44ull},
    {"IMPROVE", 1, 4, 0x1.581aa02f16dbep+3, 0xe75bef61ec1501acull},
    {"IMPROVE", 1, 8, 0x1.581aa02f16dbep+3, 0xbdd62ab4f2ba5ff4ull},
    {"IMPROVE", 2, 2, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"IMPROVE", 2, 4, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"IMPROVE", 2, 8, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"IMPROVE", 3, 2, 0x1.c318689a5ddc8p+2, 0x8f9a1c023050a801ull},
    {"IMPROVE", 3, 4, 0x1.c318689a5ddc8p+2, 0xdfb68101adec0ba6ull},
    {"IMPROVE", 3, 8, 0x1.c318689a5ddc8p+2, 0x3b8c71ff80cecc6aull},
    {"IMPROVE", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"IMPROVE", 4, 4, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"IMPROVE", 4, 8, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"IMPROVE", 5, 2, 0x1.4bc7c571a3823p+4, 0x8fba24e3879eaf20ull},
    {"IMPROVE", 5, 4, 0x1.4bc7c571a3823p+4, 0x8fba24e3879eaf20ull},
    {"IMPROVE", 5, 8, 0x1.4bc7c571a3823p+4, 0x8fba24e3879eaf20ull},
    {"IMPROVE", 6, 2, 0x1.14bfc71ebd917p+4, 0x1fcef646447222e5ull},
    {"IMPROVE", 6, 4, 0x1.c6c4f8af08d6ap+3, 0xfb17e8d720aa95a4ull},
    {"IMPROVE", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x0e1e72041997a8afull},
    {"IMPROVE", 7, 2, 0x1.98eb1e79cfd5ap+3, 0x5f56511ad2162906ull},
    {"IMPROVE", 7, 4, 0x1.09f1bc280361dp+3, 0x471a89363eb5c65eull},
    {"IMPROVE", 7, 8, 0x1.09662ad11d90ep+3, 0x1df5aa81a53bcc9bull},
    {"ANNEAL", kPaper, 2, 0x1.ap+3, 0x355bb6805024b653ull},
    {"ANNEAL", 0, 2, 0x1.55792d59fcbf8p+3, 0x033980cdd600db62ull},
    {"ANNEAL", 0, 4, 0x1.be6d6b074ea2cp+2, 0x7ac3e55c2e463f5cull},
    {"ANNEAL", 0, 8, 0x1.bb6e620c588eep+2, 0x7b0a846293761bddull},
    {"ANNEAL", 1, 2, 0x1.5f4511acac571p+3, 0xea2112caba9eb7c5ull},
    {"ANNEAL", 1, 4, 0x1.5069057cbc80cp+3, 0x534e2d456908ee41ull},
    {"ANNEAL", 1, 8, 0x1.5069057cbc80cp+3, 0xc58563cd00453b0cull},
    {"ANNEAL", 2, 2, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"ANNEAL", 2, 4, 0x1.adeace849c45ep+4, 0x1459270e81709740ull},
    {"ANNEAL", 2, 8, 0x1.b7d09ff38925p+4, 0x67331add5af57a96ull},
    {"ANNEAL", 3, 2, 0x1.c318689a5ddc8p+2, 0x8f9a1c023050a801ull},
    {"ANNEAL", 3, 4, 0x1.c318689a5ddc8p+2, 0xdfb68101adec0ba6ull},
    {"ANNEAL", 3, 8, 0x1.c318689a5ddc8p+2, 0x3b8c71ff80cecc6aull},
    {"ANNEAL", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ANNEAL", 4, 4, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"ANNEAL", 4, 8, 0x1.0e0606b5ebf5p+4, 0xe5f12be1064cadbfull},
    {"ANNEAL", 5, 2, 0x1.358e0cf2c986cp+4, 0xb0e9acd711c12154ull},
    {"ANNEAL", 5, 4, 0x1.358e0cf2c986cp+4, 0x201aa137b4d0e078ull},
    {"ANNEAL", 5, 8, 0x1.4bc7c571a3823p+4, 0xf4ce2861dadfaad9ull},
    {"ANNEAL", 6, 2, 0x1.086f7ef8d44bap+4, 0xe6beed8824987353ull},
    {"ANNEAL", 6, 4, 0x1.c018bd0039884p+3, 0xb4f2f2a8d08eefc5ull},
    {"ANNEAL", 6, 8, 0x1.c2dcc0b60d392p+3, 0x918ece3efbdf14f4ull},
    {"ANNEAL", 7, 2, 0x1.90fb45505443fp+3, 0xd9b74a5bf62b7f24ull},
    {"ANNEAL", 7, 4, 0x1.1ae66e483fc46p+3, 0xc98d563ff58a9b57ull},
    {"ANNEAL", 7, 8, 0x1.152eb1d3e4894p+3, 0x16a1430e06a0a43cull},
};

// The exhaustive list schedulers (ETF, DLS and ETF-LA price every ready
// task on every processor each step) on the same graphs.
const BaselineGolden kExhaustive[] = {
    {"ETF", kPaper, 2, 0x1.cp+3, 0x46f5f2b37bf3157eull},
    {"ETF", 0, 2, 0x1.49177bf41f449p+3, 0x623f002b311bc615ull},
    {"ETF", 0, 4, 0x1.c80eabc634618p+2, 0x12a65e9a29be41c6ull},
    {"ETF", 0, 8, 0x1.c6bc7f4216cdp+2, 0x195a9811c099af5full},
    {"ETF", 1, 2, 0x1.5800f41d1b646p+3, 0x6ca7b6b5c85af595ull},
    {"ETF", 1, 4, 0x1.3670f364c0c88p+3, 0x93348591cf7c55f4ull},
    {"ETF", 1, 8, 0x1.3670f364c0c88p+3, 0x93348591cf7c55f4ull},
    {"ETF", 2, 2, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"ETF", 2, 4, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"ETF", 2, 8, 0x1.fa272025984d8p+4, 0x4c73476b928eca2eull},
    {"ETF", 3, 2, 0x1.c318689a5ddc8p+2, 0xebaefb754de633b1ull},
    {"ETF", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"ETF", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"ETF", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ETF", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ETF", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"ETF", 5, 2, 0x1.2a37db85ef14ap+4, 0x3dc075dfb5357e8cull},
    {"ETF", 5, 4, 0x1.2a37db85ef14ap+4, 0x3dc075dfb5357e8cull},
    {"ETF", 5, 8, 0x1.2a37db85ef14ap+4, 0x3dc075dfb5357e8cull},
    {"ETF", 6, 2, 0x1.08385d41873ccp+4, 0x0f443a9e7908b663ull},
    {"ETF", 6, 4, 0x1.c6c4f8af08d6ap+3, 0x4c63c7c9ae46ba9dull},
    {"ETF", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x4c63c7c9ae46ba9dull},
    {"ETF", 7, 2, 0x1.8a104cf3794d2p+3, 0xb98f80166998f330ull},
    {"ETF", 7, 4, 0x1.1cfe3f9c91ab2p+3, 0x7b70a1f4eaba90dfull},
    {"ETF", 7, 8, 0x1.02bf97a682b29p+3, 0x6904c4a5f8510536ull},
    {"DLS", kPaper, 2, 0x1.cp+3, 0x46f5f2b37bf3157eull},
    {"DLS", 0, 2, 0x1.5966f29088a2ep+3, 0x299094903eb4265dull},
    {"DLS", 0, 4, 0x1.bb6e620c588eep+2, 0x114c71aff8912646ull},
    {"DLS", 0, 8, 0x1.bb6e620c588eep+2, 0x294cd5ecf45999fcull},
    {"DLS", 1, 2, 0x1.5921bf782a917p+3, 0x31e4d868b1e6a900ull},
    {"DLS", 1, 4, 0x1.50adb874ac421p+3, 0xdfe9454468bd97b9ull},
    {"DLS", 1, 8, 0x1.50adb874ac421p+3, 0xdfe9454468bd97b9ull},
    {"DLS", 2, 2, 0x1.f46b33a0e5fdep+4, 0x8fada6be691e1f6eull},
    {"DLS", 2, 4, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"DLS", 2, 8, 0x1.1578668ac126p+5, 0x4d0ae4a253d2663cull},
    {"DLS", 3, 2, 0x1.c318689a5ddc8p+2, 0xebaefb754de633b1ull},
    {"DLS", 3, 4, 0x1.c318689a5ddc8p+2, 0xa1d936b82b048f5dull},
    {"DLS", 3, 8, 0x1.c318689a5ddc8p+2, 0xf729ec8cf153a363ull},
    {"DLS", 4, 2, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"DLS", 4, 4, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"DLS", 4, 8, 0x1.0e0606b5ebf5p+4, 0x124a798bcd525b72ull},
    {"DLS", 5, 2, 0x1.6842220fc3601p+4, 0x8c186e4102585622ull},
    {"DLS", 5, 4, 0x1.6842220fc3601p+4, 0x8c186e4102585622ull},
    {"DLS", 5, 8, 0x1.6842220fc3601p+4, 0x8c186e4102585622ull},
    {"DLS", 6, 2, 0x1.072f54f6f7d6ap+4, 0xc1885a5110f64f4cull},
    {"DLS", 6, 4, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"DLS", 6, 8, 0x1.c6c4f8af08d6ap+3, 0x60c2e5b8a16b6c36ull},
    {"DLS", 7, 2, 0x1.98324d925aa49p+3, 0x4946d8dccacfa62full},
    {"DLS", 7, 4, 0x1.157c11c0d2a1bp+3, 0xe377d7e30f3d7e2dull},
    {"DLS", 7, 8, 0x1.157c11c0d2a1bp+3, 0x8cf1184539229c93ull},
    {"ETF-LA", kPaper, 2, 0x1.cp+3, 0x0ea0f3ba21cbeb7bull},
    {"ETF-LA", 0, 2, 0x1.63bce3600a8e2p+3, 0x58d5312b437dacd3ull},
    {"ETF-LA", 0, 4, 0x1.ed70f4e472c16p+2, 0x4732c94f77a6bb8eull},
    {"ETF-LA", 0, 8, 0x1.cff4a4a4cbd88p+2, 0x721e7511ee925700ull},
    {"ETF-LA", 1, 2, 0x1.7d2d00bf6ca6p+3, 0x6075b95efdb3d9ffull},
    {"ETF-LA", 1, 4, 0x1.608a521064079p+3, 0xc30c5bf2a37cd27full},
    {"ETF-LA", 1, 8, 0x1.608a521064079p+3, 0xc30c5bf2a37cd27full},
    {"ETF-LA", 2, 2, 0x1.25b27df774508p+5, 0x54e4ca6102ae6cbbull},
    {"ETF-LA", 2, 4, 0x1.25b27df774508p+5, 0x54e4ca6102ae6cbbull},
    {"ETF-LA", 2, 8, 0x1.25b27df774508p+5, 0x54e4ca6102ae6cbbull},
    {"ETF-LA", 3, 2, 0x1.0e5e28bdfa59ap+3, 0xd8629c8301a00181ull},
    {"ETF-LA", 3, 4, 0x1.e18b0c7b1b9b8p+2, 0x0701ccdd9dd5b0ddull},
    {"ETF-LA", 3, 8, 0x1.dc108845e69cep+2, 0x39388d506794850cull},
    {"ETF-LA", 4, 2, 0x1.1a0ac7faac21ap+4, 0x7f9234045669b11full},
    {"ETF-LA", 4, 4, 0x1.1a0ac7faac21ap+4, 0x7f9234045669b11full},
    {"ETF-LA", 4, 8, 0x1.1a0ac7faac21ap+4, 0x7f9234045669b11full},
    {"ETF-LA", 5, 2, 0x1.42dd749064b3p+4, 0x9fa3c689a1af1636ull},
    {"ETF-LA", 5, 4, 0x1.42dd749064b3p+4, 0x9fa3c689a1af1636ull},
    {"ETF-LA", 5, 8, 0x1.42dd749064b3p+4, 0x9fa3c689a1af1636ull},
    {"ETF-LA", 6, 2, 0x1.0979d987fb7f8p+4, 0x4c8c0e6f01ed8de8ull},
    {"ETF-LA", 6, 4, 0x1.cc71c1884fac4p+3, 0x595334b6ec89cc30ull},
    {"ETF-LA", 6, 8, 0x1.cc71c1884fac4p+3, 0x595334b6ec89cc30ull},
    {"ETF-LA", 7, 2, 0x1.e229ac7fc817dp+3, 0xd4205492d23b101cull},
    {"ETF-LA", 7, 4, 0x1.52cca78150f42p+3, 0xbacd0eb71783784cull},
    {"ETF-LA", 7, 8, 0x1.50fb85f86e3c6p+3, 0x3d35f1cf097d40bdull},
};

void expect_bit_identical(std::span<const BaselineGolden> rows) {
  for (const BaselineGolden& row : rows) {
    const TaskGraph g =
        row.graph == kPaper
            ? paper_example_graph()
            : test::fuzz_graph(static_cast<std::size_t>(row.graph));
    const Outcome out = run_baseline(row.algo, g, row.procs);
    EXPECT_EQ(out.makespan, row.makespan)
        << row.algo << " on graph " << row.graph << " P=" << row.procs;
    EXPECT_EQ(out.digest, row.digest)
        << row.algo << " on graph " << row.graph << " P=" << row.procs;
  }
}

TEST(BaselineGolden, HeapBackedSchedulersBitIdentical) {
  expect_bit_identical(kBaselines);
}

TEST(BaselineGolden, ExhaustiveSchedulersBitIdentical) {
  expect_bit_identical(kExhaustive);
}

TEST(BaselineGolden, FixedAssignmentUsersBitIdentical) {
  expect_bit_identical(kFixedAssignment);
}

/// A clustering hashed as one "task cluster start finish" line per task,
/// times in hexfloat.
std::uint64_t clustering_digest(const Clustering& c) {
  std::ostringstream text;
  text << std::hexfloat;
  for (TaskId t = 0; t < c.cluster_of.size(); ++t)
    text << t << ' ' << c.cluster_of[t] << ' ' << c.start[t] << ' '
         << c.finish[t] << '\n';
  return runtime::fnv1a_digest(text.str());
}

struct ClusteringGolden {
  int graph;  // test::fuzz_graph index, or kPaper
  ClusterId clusters;
  double length;  // exact bits
  std::uint64_t digest;
};

// Sarkar's own clustering (cluster_of, start and finish of every task) on
// the paper example and fuzz graphs 0-11. Each candidate merge is judged by
// a bottom-level list schedule of the clustered graph, so a change in that
// order moves a row here even where work mapping hides it.
const ClusteringGolden kSarkar[] = {
    {kPaper, 3, 0x1.6p+3, 0x1109a7c5c8597980ull},
    {0, 6, 0x1.cc078128b959ap+2, 0x08cd1c6cfd7680b0ull},
    {1, 5, 0x1.6f611d660e585p+3, 0x1fce9acf3bf2702dull},
    {2, 1, 0x1.adeace849c45ep+4, 0x1dede103c0c7ff13ull},
    {3, 5, 0x1.c93f50e95642ep+2, 0x989b2b67c07231f4ull},
    {4, 4, 0x1.3c9bf9a70f64cp+4, 0xe1ba05bef21fb36aull},
    {5, 4, 0x1.70ec604a9049cp+4, 0x716138746f32e60bull},
    {6, 4, 0x1.d18088f947673p+3, 0xb938bfcce5fd9fa4ull},
    {7, 7, 0x1.4bcd984b31bdap+3, 0xd899f0faf55874c1ull},
    {8, 5, 0x1.e063bc1c5e818p+4, 0xbd93f73338da8c95ull},
    {9, 14, 0x1.729444f455de8p+3, 0x9433e9480371e2c8ull},
    {10, 3, 0x1.288d32274b221p+4, 0x96ad532d801331d1ull},
    {11, 2, 0x1.01c7b85a4ca27p+4, 0x0b32547f3fad46d6ull},
};

TEST(BaselineGolden, SarkarClusteringBitIdentical) {
  for (const ClusteringGolden& row : kSarkar) {
    const TaskGraph g =
        row.graph == kPaper
            ? paper_example_graph()
            : test::fuzz_graph(static_cast<std::size_t>(row.graph));
    const Clustering c = sarkar_cluster(g);
    EXPECT_EQ(c.num_clusters, row.clusters) << "graph " << row.graph;
    EXPECT_EQ(c.schedule_length(), row.length) << "graph " << row.graph;
    EXPECT_EQ(clustering_digest(c), row.digest) << "graph " << row.graph;
  }
}

// --- Recovery runtime --------------------------------------------------------

/// A fault-plan fixture from the repository's data/ directory.
FaultPlan fixture(const std::string& file) {
  std::ifstream in(std::string(FLB_SOURCE_DIR) + "/data/" + file);
  EXPECT_TRUE(in.good()) << "missing data/" << file;
  return read_fault_plan(in);
}

/// The CI audit job's episode graph: flb_lint --workload Random --tasks 120
/// (seed 1, CCR 1), scheduled by FLB on 8 processors.
struct AuditEpisode {
  TaskGraph g = make_workload("Random", 120, WorkloadParams{});
  Schedule nominal = FlbScheduler().run(g, 8);
};

struct RuntimeGolden {
  std::uint64_t event_digest;
  std::uint64_t schedule_digest;
  std::uint64_t belief_digest;
  std::size_t repairs;
};

void expect_golden(const RuntimeResult& r, const RuntimeGolden& want,
                   const std::string& name) {
  EXPECT_TRUE(r.complete) << name;
  EXPECT_EQ(r.event_digest, want.event_digest) << name;
  EXPECT_EQ(r.schedule_digest, want.schedule_digest) << name;
  EXPECT_EQ(r.belief_digest, want.belief_digest) << name;
  EXPECT_EQ(r.repairs.size(), want.repairs) << name;
}

/// Oracle mode keeps its record shape: no belief stream at all (digest 0,
/// not the digest of an empty stream), and no reaction carries beliefs or
/// suspects.
void expect_oracle_shape(const RuntimeResult& r) {
  EXPECT_EQ(r.belief_digest, 0u);
  EXPECT_TRUE(r.beliefs.empty());
  for (const RepairInvocation& inv : r.repairs) {
    EXPECT_TRUE(inv.batch_beliefs.empty());
    EXPECT_EQ(inv.suspects, 0u);
    EXPECT_FALSE(inv.speculative);
  }
}

TEST(RuntimeGolden, OracleModeFixture) {
  const AuditEpisode ep;
  const RuntimeResult r =
      run_online_recovery(ep.g, ep.nominal, fixture("audit_online.fplan"));
  expect_golden(r,
                {0x7c4ae1ce331b173cull, 0xe613a5da91426708ull, 0x0ull, 4},
                "audit_online oracle");
  expect_oracle_shape(r);
}

TEST(RuntimeGolden, DetectorModeFixtureWithAndWithoutSpeculation) {
  const AuditEpisode ep;
  const FaultPlan plan = fixture("audit_detector.fplan");
  RuntimeOptions options;
  options.use_detector = true;
  expect_golden(run_online_recovery(ep.g, ep.nominal, plan, options),
                {0xbaa8ca551184db1aull, 0xaf657c147b1d751bull,
                 0xb95c074d112fd7edull, 15},
                "audit_detector speculative");
  options.speculate = false;
  expect_golden(run_online_recovery(ep.g, ep.nominal, plan, options),
                {0xbaa8ca551184db1aull, 0x6293bf287a057c23ull,
                 0x1616c19dc6cac3b2ull, 3},
                "audit_detector confirm-then-repair");
}

TEST(RuntimeGolden, SelfTuneWithAdaptiveCheckpointing) {
  const AuditEpisode ep;
  RuntimeOptions options;
  options.use_detector = true;
  options.self_tune = true;
  options.tune_window = 20.0;
  options.adapt_checkpoint = true;
  const RuntimeResult r = run_online_recovery(
      ep.g, ep.nominal, fixture("audit_detector.fplan"), options);
  expect_golden(r,
                {0xbaa8ca551184db1aull, 0xb6dfef520f0beaaeull,
                 0xc1b37a0e0c3aae52ull, 9},
                "audit_detector self-tune + adaptive checkpoint");
  // Both policies must act, or the golden pins nothing of them.
  EXPECT_GT(r.suppressed_alarms, 0u);
  std::size_t adapted = 0;
  for (const RepairInvocation& inv : r.repairs)
    if (inv.checkpoint_interval > 0.0) ++adapted;
  EXPECT_GT(adapted, 0u);
}

TEST(RuntimeGolden, GossipModePartitionFixture) {
  const AuditEpisode ep;
  RuntimeOptions options;
  options.use_detector = true;
  options.use_gossip = true;
  expect_golden(run_online_recovery(ep.g, ep.nominal,
                                    fixture("audit_partition.fplan"), options),
                {0xa9d130a0f8fe0c37ull, 0xd7a521d448b8af63ull,
                 0x6861d14449b86954ull, 2},
                "audit_partition gossip");
}

/// Oracle mode senses link events directly: processor 3 fails and rejoins,
/// then loses every link to the rest of the machine for a window.
struct PartitionEpisode {
  PartitionEpisode() {
    const Cost span = nominal.makespan();
    plan.failures.push_back({3, 0.1 * span});
    plan.rejoins.push_back({3, 0.25 * span});
    for (const ProcId a : {0u, 1u, 2u})
      plan.partitions.push_back({a, 3, "", "", 0.4 * span, 0.7 * span});
  }

  TaskGraph g = make_workload("Random", 120, WorkloadParams{0.5, 7});
  Schedule nominal = FlbScheduler().run(g, 4);
  FaultPlan plan;
};

// The controller must route around the cut (an unreachable-but-alive
// processor) from the observed outages alone.
TEST(RuntimeGolden, OracleModePartitionEpisode) {
  const PartitionEpisode ep;
  const TaskGraph& g = ep.g;
  const FaultPlan& plan = ep.plan;
  const RuntimeResult r = run_online_recovery(g, ep.nominal, plan);
  expect_golden(r,
                {0xf10aea25dadb010cull, 0x09dccfafa4b59d84ull, 0x0ull, 4},
                "oracle partition");
  expect_oracle_shape(r);
  // The episode must exercise the cut, or the golden pins nothing of it.
  std::size_t cut_reactions = 0, kills_on_3 = 0;
  for (const RepairInvocation& inv : r.repairs) {
    if (inv.unreachable > 0) ++cut_reactions;
    for (const SimEvent& e : inv.batch)
      if (e.kind == SimEventKind::kTaskKilled && e.proc == 3) ++kills_on_3;
  }
  EXPECT_EQ(cut_reactions, 1u);
  EXPECT_EQ(kills_on_3, 1u);

  const analysis::LintReport audit = analysis::audit_runtime(g, plan, r);
  EXPECT_TRUE(audit.clean());
  for (const analysis::Diagnostic& d : audit.diagnostics)
    if (d.severity == analysis::Severity::kError)
      ADD_FAILURE() << d.rule << ": " << d.message;
}

// The controller hashes each installed schedule once, so the final digest
// is the last installed repair's rather than a second hash of the final
// schedule. Over the six episodes above, a fault-free one and one whose
// last reaction is deferred, it must still be the digest of the final
// schedule.
TEST(Runtime, FinalDigestIsLastInstalledRepair) {
  const AuditEpisode ep;
  const PartitionEpisode cut;
  RuntimeOptions detector;
  detector.use_detector = true;
  RuntimeOptions confirm = detector;
  confirm.speculate = false;
  RuntimeOptions tuned = detector;
  tuned.self_tune = true;
  tuned.tune_window = 20.0;
  tuned.adapt_checkpoint = true;
  RuntimeOptions gossip = detector;
  gossip.use_gossip = true;
  const FaultPlan online = fixture("audit_online.fplan");
  const FaultPlan noisy = fixture("audit_detector.fplan");
  const FaultPlan partition = fixture("audit_partition.fplan");

  // Three processors: p1 dies and its work migrates, then p0 and p2 die for
  // good, leaving nothing to repair onto.
  const TaskGraph g3 = test::fuzz_graph(4);
  const Schedule nominal3 = FlbScheduler().run(g3, 3);
  FaultPlan blackout;
  blackout.failures.push_back({1, 0.2 * nominal3.makespan()});
  blackout.failures.push_back({0, 0.5 * nominal3.makespan()});
  blackout.failures.push_back({2, 0.5 * nominal3.makespan()});

  struct Episode {
    std::string name;
    const Schedule* nominal;
    RuntimeResult result;
  };
  std::vector<Episode> episodes;
  episodes.push_back({"audit_online oracle", &ep.nominal,
                      run_online_recovery(ep.g, ep.nominal, online)});
  episodes.push_back({"audit_detector speculative", &ep.nominal,
                      run_online_recovery(ep.g, ep.nominal, noisy, detector)});
  episodes.push_back({"audit_detector confirm-then-repair", &ep.nominal,
                      run_online_recovery(ep.g, ep.nominal, noisy, confirm)});
  episodes.push_back({"audit_detector self-tune", &ep.nominal,
                      run_online_recovery(ep.g, ep.nominal, noisy, tuned)});
  episodes.push_back(
      {"audit_partition gossip", &ep.nominal,
       run_online_recovery(ep.g, ep.nominal, partition, gossip)});
  episodes.push_back({"oracle partition", &cut.nominal,
                      run_online_recovery(cut.g, cut.nominal, cut.plan)});
  episodes.push_back({"fault-free", &ep.nominal,
                      run_online_recovery(ep.g, ep.nominal, FaultPlan{})});
  episodes.push_back({"deferred last", &nominal3,
                      run_online_recovery(g3, nominal3, blackout)});

  for (const Episode& e : episodes) {
    const RuntimeResult& r = e.result;
    EXPECT_EQ(r.schedule_digest, schedule_digest(r.schedule)) << e.name;
    const auto installed =
        std::find_if(r.repairs.rbegin(), r.repairs.rend(),
                     [](const RepairInvocation& inv) { return !inv.deferred; });
    if (installed != r.repairs.rend())
      EXPECT_EQ(r.schedule_digest, installed->schedule_digest) << e.name;
    else
      EXPECT_EQ(r.schedule_digest, schedule_digest(*e.nominal)) << e.name;
  }
  // The last two episodes cover what they are named for.
  EXPECT_TRUE(episodes[6].result.repairs.empty());
  const RuntimeResult& deferred = episodes[7].result;
  ASSERT_GE(deferred.repairs.size(), 2u);
  EXPECT_TRUE(deferred.repairs.back().deferred);
  EXPECT_FALSE(deferred.repairs.front().deferred);
}

// --- Episode records ---------------------------------------------------------

/// Every field of an episode's record: each RepairInvocation with its
/// provenance, and every scalar of the RuntimeResult and of its final
/// execution, times and costs as exact bits. The RuntimeGolden rows above
/// pin only the logs, the final schedule and the repair count; this digest
/// also moves when a horizon, a retry, a speculation's bill or a false
/// alarm does.
std::uint64_t episode_record_digest(const RuntimeResult& r) {
  Fnv1a h;
  auto bits = [&](double v) { h.add_u64(std::bit_cast<std::uint64_t>(v)); };
  auto count = [&](std::uint64_t v) { h.add_u64(v); };
  auto event = [&](const SimEvent& e) {
    bits(e.time);
    count(static_cast<std::uint64_t>(e.kind));
    count(e.proc);
    count(e.task);
    count(e.task2);
    bits(e.value);
    count(e.proc2);
  };
  auto belief = [&](const BeliefEvent& b) {
    bits(b.time);
    count(static_cast<std::uint64_t>(b.kind));
    count(b.proc);
    bits(b.last_heard);
    bits(b.score);
  };
  count(r.repairs.size());
  for (const RepairInvocation& inv : r.repairs) {
    bits(inv.observed_at);
    bits(inv.horizon);
    count(inv.events);
    count(static_cast<std::uint64_t>(inv.used));
    count(inv.survivors);
    count(inv.migrated);
    count(inv.reexecuted);
    bits(inv.makespan);
    count(inv.retry_attempt);
    count(inv.deferred);
    count(inv.schedule_digest);
    count(inv.suspects);
    count(inv.speculative);
    count(inv.promoted);
    count(inv.cancelled);
    bits(inv.checkpoint_interval);
    bits(inv.failure_rate);
    count(inv.unreachable);
    bits(inv.suspect_scale);
    count(inv.batch.size());
    for (const SimEvent& e : inv.batch) event(e);
    count(inv.batch_beliefs.size());
    for (const BeliefEvent& b : inv.batch_beliefs) belief(b);
  }
  count(r.events_observed);
  count(r.degraded);
  bits(r.makespan);
  count(r.complete);
  count(r.event_digest);
  count(r.schedule_digest);
  count(r.belief_digest);
  count(r.false_alarms);
  count(r.confirmations);
  bits(r.speculative_waste);
  count(r.speculative_tasks);
  bits(r.mean_detection_latency);
  count(r.suppressed_alarms);
  count(r.suspect_trace.size());
  for (const auto& [time, threshold] : r.suspect_trace) {
    bits(time);
    bits(threshold);
  }
  const SimResult& x = r.execution;
  bits(x.makespan);
  count(x.messages);
  bits(x.network_busy);
  count(x.retries);
  count(x.dropped_messages);
  count(x.rejoins);
  bits(x.work_lost);
  bits(x.dead_proc_idle);
  count(x.unfinished.size());
  count(x.dropped_edges.size());
  bits(x.work_saved);
  bits(x.checkpoint_overhead);
  count(x.checkpoints_taken);
  count(x.rerouted_messages);
  bits(x.reroute_extra);
  count(x.partition_dropped);
  return h.value();
}

/// Generated worlds for the audit graph, numbered by seed: a lossy detector
/// and one kill, whose speculations are cancelled while a hedge still runs
/// (with a second kill, at seed 73, also one that kill ends after the
/// replay's pause, which the speculation's bill must skip as the complete
/// replay does); a retrying message model
/// whose drops surface only after their retry timeouts; and lossy
/// heartbeats under confirm-then-repair, whose false alarms make rounds of
/// passive knowledge only.
FaultPlan speculation_world(Cost span, std::uint64_t seed,
                            bool second_kill = false) {
  FaultPlan w;
  w.seed = seed;
  w.heartbeat.period = 1.5;
  w.heartbeat.loss_probability = 0.25;
  w.heartbeat.delay_probability = 0.1;
  w.heartbeat.suspect_after = 2.0;
  w.heartbeat.confirm_after = 5.0;
  w.failures.push_back({static_cast<ProcId>(1 + seed % 7),
                        span * (0.2 + 0.01 * static_cast<double>(seed % 30))});
  if (second_kill)
    w.failures.push_back(
        {static_cast<ProcId>(1 + (seed + 3) % 7),
         span * (0.45 + 0.01 * static_cast<double>(seed % 20))});
  return w;
}

FaultPlan retry_world(Cost span, std::uint64_t seed) {
  FaultPlan w;
  w.seed = seed;
  w.message.loss_probability = 0.35;
  w.message.max_retries = 2;
  w.message.retry_timeout = 1.5;
  const auto victim = static_cast<ProcId>(1 + seed % 7);
  w.failures.push_back({victim, span * 0.3});
  w.rejoins.push_back({victim, span * 0.5});
  return w;
}

FaultPlan passive_world(Cost span, std::uint64_t seed) {
  FaultPlan w;
  w.seed = seed;
  w.heartbeat.period = 1.5;
  w.heartbeat.loss_probability = 0.3;
  w.heartbeat.suspect_after = 2.0;
  w.heartbeat.confirm_after = 5.0;
  w.failures.push_back({static_cast<ProcId>(1 + seed % 7), span * 0.4});
  return w;
}

struct RecordGolden {
  std::string name;
  std::uint64_t digest;
};

TEST(RuntimeGolden, EpisodeRecordsBitIdentical) {
  const AuditEpisode ep;
  const PartitionEpisode cut;
  const Cost span = ep.nominal.makespan();
  RuntimeOptions detector;
  detector.use_detector = true;
  RuntimeOptions confirm = detector;
  confirm.speculate = false;
  RuntimeOptions tuned = detector;
  tuned.self_tune = true;
  tuned.tune_window = 20.0;
  tuned.adapt_checkpoint = true;
  RuntimeOptions gossip = detector;
  gossip.use_gossip = true;
  const FaultPlan online = fixture("audit_online.fplan");
  const FaultPlan noisy = fixture("audit_detector.fplan");
  const FaultPlan partition = fixture("audit_partition.fplan");

  // Three processors: p1 dies and its work migrates, then p0 and p2 die for
  // good — an episode that never completes.
  const TaskGraph g3 = test::fuzz_graph(4);
  const Schedule nominal3 = FlbScheduler().run(g3, 3);
  FaultPlan blackout;
  blackout.failures.push_back({1, 0.2 * nominal3.makespan()});
  blackout.failures.push_back({0, 0.5 * nominal3.makespan()});
  blackout.failures.push_back({2, 0.5 * nominal3.makespan()});
  // The same blackout sensed through heartbeats: the last round widens its
  // belief window geometrically while no belief can come, so the detector
  // must not walk the silent beats of the dead.
  FaultPlan silent = blackout;
  silent.heartbeat.period = 0.5;
  RuntimeOptions gossip1 = gossip;
  gossip1.quorum = 1;

  std::vector<std::pair<RecordGolden, RuntimeResult>> episodes;
  auto add = [&](std::string name, std::uint64_t digest, RuntimeResult r) {
    episodes.push_back({{std::move(name), digest}, std::move(r)});
  };
  add("audit_online oracle", 0x02b0cef3a3cc904bull,
      run_online_recovery(ep.g, ep.nominal, online));
  add("audit_detector speculative", 0xb81248fb43095c5dull,
      run_online_recovery(ep.g, ep.nominal, noisy, detector));
  add("audit_detector confirm-then-repair", 0xec98bf323c51a085ull,
      run_online_recovery(ep.g, ep.nominal, noisy, confirm));
  add("audit_detector self-tune", 0x9e0048b6d29bc649ull,
      run_online_recovery(ep.g, ep.nominal, noisy, tuned));
  add("audit_partition gossip", 0x3c3b2bb8c08465c5ull,
      run_online_recovery(ep.g, ep.nominal, partition, gossip));
  add("oracle partition", 0x43f24bb54e7eb90bull,
      run_online_recovery(cut.g, cut.nominal, cut.plan));
  add("speculation seed 15", 0x6799eb3ff143fba9ull,
      run_online_recovery(ep.g, ep.nominal, speculation_world(span, 15),
                          detector));
  add("speculation seed 1", 0x59670ab278b18a56ull,
      run_online_recovery(ep.g, ep.nominal, speculation_world(span, 1),
                          detector));
  add("speculation seed 73, second kill", 0x3ca6b40cd649c04bull,
      run_online_recovery(ep.g, ep.nominal,
                          speculation_world(span, 73, true), detector));
  add("retry seed 1", 0x1548aa7b529b3e62ull,
      run_online_recovery(ep.g, ep.nominal, retry_world(span, 1)));
  add("passive seed 1", 0x1ddecdce90a95c05ull,
      run_online_recovery(ep.g, ep.nominal, passive_world(span, 1), confirm));
  add("deferred last", 0x8f0d0cf4223c2588ull,
      run_online_recovery(g3, nominal3, blackout));
  add("blackout detector", 0x9cc57dc8b23dfb26ull,
      run_online_recovery(g3, nominal3, silent, detector));
  add("blackout gossip quorum 1", 0x48ab14fe0c6f57d0ull,
      run_online_recovery(g3, nominal3, silent, gossip1));

  for (const auto& [want, r] : episodes)
    EXPECT_EQ(episode_record_digest(r), want.digest) << want.name;

  // The generated episodes cover what they are named for.
  EXPECT_GT(episodes[6].second.speculative_tasks, 0u);
  EXPECT_GT(episodes[7].second.speculative_tasks, 0u);
  EXPECT_GT(episodes[8].second.speculative_tasks, 0u);
  std::size_t drops = 0;
  for (const RepairInvocation& inv : episodes[9].second.repairs)
    for (const SimEvent& e : inv.batch)
      if (e.kind == SimEventKind::kMessageDropped) ++drops;
  EXPECT_GT(drops, 0u);
  const RuntimeResult& passive = episodes[10].second;
  std::size_t reacted = 0;
  for (const RepairInvocation& inv : passive.repairs)
    reacted += inv.batch_beliefs.size();
  EXPECT_GT(passive.false_alarms, 0u);
  EXPECT_GT(passive.beliefs.size(), reacted);
  for (std::size_t i = 11; i < episodes.size(); ++i)
    EXPECT_FALSE(episodes[i].second.complete) << episodes[i].first.name;
  EXPECT_TRUE(episodes[11].second.repairs.back().deferred);
}

}  // namespace
}  // namespace flb
