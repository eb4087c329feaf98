#include "flb/sched/scheduler.hpp"

#include "flb/algos/dls.hpp"
#include "flb/algos/etf.hpp"
#include "flb/algos/etf_lookahead.hpp"
#include "flb/algos/fcp.hpp"
#include "flb/algos/hlfet.hpp"
#include "flb/algos/llb.hpp"
#include "flb/algos/mcp.hpp"
#include "flb/core/flb.hpp"
#include "flb/util/error.hpp"

namespace flb {

std::vector<std::string> scheduler_names() {
  // Canonical paper order (Fig. 4 legend).
  return {"MCP", "ETF", "DSC-LLB", "FCP", "FLB"};
}

std::vector<std::string> extended_scheduler_names() {
  // The paper's five plus the additional baselines this library ships:
  // HLFET (classic static-level list scheduling), DLS (Sih & Lee),
  // MCP-I (Wu & Gajski's original insertion-based MCP), ISH (Kruatrachue
  // & Lewis's insertion heuristic).
  return {"MCP",   "ETF", "DSC-LLB", "FCP", "FLB",
          "HLFET", "DLS", "MCP-I",   "ISH", "ETF-LA"};
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "FLB") {
    FlbOptions options;
    options.seed = seed;
    return std::make_unique<FlbScheduler>(options);
  }
  if (name == "ETF") return std::make_unique<EtfScheduler>();
  if (name == "ETF-LA") return std::make_unique<EtfLookaheadScheduler>();
  if (name == "MCP") return std::make_unique<McpScheduler>(seed);
  if (name == "MCP-I")
    return std::make_unique<McpScheduler>(seed, /*insertion=*/true);
  if (name == "FCP") return std::make_unique<FcpScheduler>();
  if (name == "DSC-LLB") return std::make_unique<DscLlbScheduler>();
  if (name == "DLS") return std::make_unique<DlsScheduler>();
  if (name == "HLFET") return std::make_unique<HlfetScheduler>();
  FLB_REQUIRE(name == "ISH",
              "make_scheduler: unknown algorithm '" + name + "'");
  return std::make_unique<HlfetScheduler>(/*insertion=*/true);
}

}  // namespace flb
