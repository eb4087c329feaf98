#include "flb/graph/stg.hpp"

#include <cmath>
#include <istream>
#include <sstream>
#include <vector>

#include "flb/graph/serialize.hpp"
#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"

namespace flb {

TaskGraph read_stg(std::istream& is, const WorkloadParams& params) {
  std::string line;
  FLB_REQUIRE(next_line(is, line), "read_stg: empty input");
  std::size_t n = 0;
  {
    std::istringstream ls(line);
    FLB_REQUIRE(static_cast<bool>(ls >> n) && n > 0,
                "read_stg: first line must be the positive task count");
  }
  // Ids 0 .. n + 1 must all be valid TaskIds; checked before n + 2 is
  // formed, so a count near the top of std::size_t cannot wrap it.
  FLB_REQUIRE(n <= kInvalidTask - 2,
              "read_stg: task count " + std::to_string(n) +
                  " does not fit the 32-bit task ids");
  const std::size_t total = n + 2;  // dummy source and sink included

  // Rows grow as lines are read, so a header count alone allocates nothing.
  struct Row {
    double cost;
    std::vector<std::size_t> preds;
  };
  std::vector<Row> rows;
  double total_cost = 0.0;

  for (std::size_t i = 0; i < total; ++i) {
    FLB_REQUIRE(next_line(is, line),
                "read_stg: truncated input, expected " +
                    std::to_string(total) + " task lines");
    std::istringstream ls(line);
    std::size_t id = 0, npred = 0;
    double cost = 0.0;
    FLB_REQUIRE(static_cast<bool>(ls >> id >> cost >> npred),
                "read_stg: malformed task line '" + line + "'");
    FLB_REQUIRE(id == i, "read_stg: task ids must be 0.." +
                             std::to_string(total - 1) + " in order, got " +
                             std::to_string(id));
    FLB_REQUIRE(std::isfinite(cost), "read_stg: non-finite processing time "
                                     "on task line '" + line + "'");
    FLB_REQUIRE(cost >= 0.0, "read_stg: negative processing time");
    // Checked before the list is sized: distinct predecessors precede the
    // task, so there are at most i of them.
    FLB_REQUIRE(npred <= i,
                "read_stg: task " + std::to_string(id) + " lists " +
                    std::to_string(npred) + " predecessors, but only " +
                    std::to_string(i) +
                    " task ids precede it (a predecessor id must precede "
                    "the task)");
    total_cost += cost;
    Row& row = rows.emplace_back();
    row.cost = cost;
    row.preds.resize(npred);
    for (std::size_t k = 0; k < npred; ++k) {
      FLB_REQUIRE(static_cast<bool>(ls >> row.preds[k]),
                  "read_stg: task " + std::to_string(id) + " lists " +
                      std::to_string(npred) + " predecessors but fewer given");
      FLB_REQUIRE(row.preds[k] < i,
                  "read_stg: predecessor id must precede the task (STG files "
                  "are topologically ordered)");
    }
  }

  // Communication costs: mean = ccr * average computation cost, so the
  // resulting graph's CCR matches params.ccr in expectation.
  double avg_cost = total_cost / static_cast<double>(total);
  Rng rng(params.seed);
  auto comm = [&]() -> Cost {
    Cost mean = params.ccr * avg_cost;
    return params.random_weights ? draw_weight(rng, mean) : mean;
  };

  TaskGraphBuilder b;
  b.set_name("STG(n=" + std::to_string(n) + ")");
  for (std::size_t i = 0; i < total; ++i) b.add_task(rows[i].cost);
  for (std::size_t i = 0; i < total; ++i)
    for (std::size_t pred : rows[i].preds)
      b.add_edge(static_cast<TaskId>(pred), static_cast<TaskId>(i), comm());
  return std::move(b).build();
}

TaskGraph stg_from_text(const std::string& text,
                        const WorkloadParams& params) {
  std::istringstream is(text);
  return read_stg(is, params);
}

}  // namespace flb
