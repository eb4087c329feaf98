#include "flb/platform/cost_model.hpp"

#include <cmath>
#include <utility>

#include "flb/util/error.hpp"

namespace flb::platform {

Availability Availability::recovery(Cost release,
                                    const std::vector<bool>& admitted,
                                    const std::vector<Cost>& available_from) {
  FLB_REQUIRE(admitted.size() == available_from.size(),
              "Availability::recovery: admitted/available_from size mismatch");
  const std::size_t procs = admitted.size();
  Availability a;
  a.release = release;
  a.alive = admitted;
  a.proc_release.assign(procs, release);
  a.cold_before.assign(procs, 0.0);
  for (std::size_t p = 0; p < procs; ++p)
    if (admitted[p] && available_from[p] > 0.0 &&
        available_from[p] != kInfiniteTime) {
      a.proc_release[p] = std::max(release, available_from[p]);
      a.cold_before[p] = available_from[p];
    }
  return a;
}

CostModel::CostModel(CommMode mode, ProcId procs, const Topology* topo)
    : mode_(mode), procs_(procs), topo_(topo) {
  if (topo_ != nullptr) hops_ = topo_->hop_table();
  if (mode_ == CommMode::kLinkBusy) link_free_.assign(topo_->num_links(), 0.0);
}

CostModel CostModel::clique(ProcId num_procs) {
  FLB_REQUIRE(num_procs >= 1, "CostModel: at least one processor required");
  return CostModel(CommMode::kClique, num_procs, nullptr);
}

CostModel CostModel::routed(const Topology& topology) {
  return CostModel(CommMode::kRoutedHops, topology.num_nodes(), &topology);
}

CostModel CostModel::link_busy(const Topology& topology) {
  return CostModel(CommMode::kLinkBusy, topology.num_nodes(), &topology);
}

void CostModel::set_availability(Availability a) {
  auto instant = [](Cost c) { return std::isfinite(c) && c >= 0.0; };
  FLB_REQUIRE(a.alive.empty() || a.alive.size() == procs_,
              "CostModel: alive mask must cover every processor");
  FLB_REQUIRE(a.proc_release.empty() || a.proc_release.size() == procs_,
              "CostModel: per-processor release must cover every processor");
  FLB_REQUIRE(a.cold_before.empty() || a.cold_before.size() == procs_,
              "CostModel: cold-cache horizon must cover every processor");
  FLB_REQUIRE(instant(a.release),
              "CostModel: release must be finite and non-negative");
  for (Cost r : a.proc_release)
    FLB_REQUIRE(instant(r), "CostModel: per-processor release times must be "
                            "finite and non-negative");
  for (Cost c : a.cold_before)
    FLB_REQUIRE(instant(c), "CostModel: cold-cache horizons must be finite "
                            "and non-negative");
  avail_ = std::move(a);
}

void CostModel::set_speeds(std::vector<double> speeds) {
  FLB_REQUIRE(speeds.empty() || speeds.size() == procs_,
              "CostModel::set_speeds: speeds must cover every processor");
  double inv_sum = 0.0;
  for (double s : speeds) {
    FLB_REQUIRE(std::isfinite(s) && s > 0.0,
                "CostModel::set_speeds: speeds must be finite and positive");
    inv_sum += 1.0 / s;
  }
  speeds_ = std::move(speeds);
  mean_inverse_speed_ =
      speeds_.empty() ? 1.0 : inv_sum / static_cast<double>(speeds_.size());
}

// The rule simulate() applies to SimOptions::work_override.
void CostModel::set_work(std::vector<Cost> work) {
  for (Cost w : work)
    FLB_REQUIRE(w == kUndefinedTime || (std::isfinite(w) && w >= 0.0),
                "CostModel::set_work: entries must be finite and "
                "non-negative (or kUndefinedTime)");
  work_ = std::move(work);
}

void CostModel::set_extra_time(std::vector<Cost> extra) {
  for (Cost e : extra)
    FLB_REQUIRE(std::isfinite(e) && e >= 0.0,
                "CostModel::set_extra_time: entries must be finite and "
                "non-negative");
  extra_ = std::move(extra);
}

void CostModel::validate(const TaskGraph& g) const {
  FLB_REQUIRE(work_.empty() || work_.size() == g.num_tasks(),
              "CostModel: work override must cover every task");
  FLB_REQUIRE(extra_.empty() || extra_.size() == g.num_tasks(),
              "CostModel: extra time must cover every task");
  bool admitted = false;
  for (ProcId p = 0; p < procs_ && !admitted; ++p) admitted = alive(p);
  FLB_REQUIRE(admitted, "CostModel: at least one processor must be admitted");
}

Cost CostModel::probe_route(ProcId src, ProcId dst, Cost bytes,
                            Cost depart) const {
  Cost clock = depart;
  for (std::size_t link : topo_->route(src, dst)) {
    const Cost begin = std::max(clock, link_free_[link]);
    clock = begin + bytes;
  }
  return clock;
}

void CostModel::arrivals(ProcId src, Cost bytes, Cost finish,
                         std::span<Cost> out) const {
  FLB_ASSERT(out.size() == procs_);
  switch (mode_) {
    case CommMode::kClique:
      std::fill(out.begin(), out.end(), finish + bytes);
      break;
    case CommMode::kRoutedHops:
      for (ProcId p = 0; p < procs_; ++p)
        out[p] = finish + bytes * routed_hops(src, p);
      break;
    case CommMode::kLinkBusy:
      // Prefix closure: the route to e.node is the route to e.parent plus
      // e.link, and the tree lists parents first, so out[e.parent] already
      // holds the clock probe_route() would carry into that last hop.
      out[src] = finish;
      for (const Topology::TreeEdge& e : topo_->route_tree(src))
        out[e.node] = std::max(out[e.parent], link_free_[e.link]) + bytes;
      break;
  }
  out[src] = arrival(src, src, bytes, finish);
}

void CostModel::inputs_ready_row(const TaskGraph& g, const Schedule& s,
                                 TaskId t, std::span<Cost> ready,
                                 std::span<Cost> row) const {
  FLB_ASSERT(ready.size() == procs_ && row.size() == procs_);
  for (const Adj& in : g.predecessors(t)) {
    arrivals(s.proc(in.node), in.comm, s.finish(in.node), row);
    for (ProcId p = 0; p < procs_; ++p) ready[p] = std::max(ready[p], row[p]);
  }
}

std::pair<ProcId, Cost> CostModel::min_est(const TaskGraph& g,
                                           const Schedule& s, TaskId t,
                                           std::span<Cost> est,
                                           std::span<Cost> row) const {
  for (ProcId p = 0; p < procs_; ++p)
    est[p] = std::max(s.proc_ready_time(p), admission(p));
  inputs_ready_row(g, s, t, est, row);
  ProcId best = kInvalidProc;
  Cost best_est = kInfiniteTime;
  for (ProcId p = 0; p < procs_; ++p)
    if (alive(p) && est[p] < best_est) {
      best_est = est[p];
      best = p;
    }
  return {best, best_est};
}

Cost CostModel::commit_inputs(const TaskGraph& g, const Schedule& s, TaskId t,
                              ProcId p, Cost floor) {
  for (const Adj& in : g.predecessors(t))
    floor = std::max(floor, commit_arrival(s.proc(in.node), p, in.comm,
                                           s.finish(in.node)));
  return floor;
}

Cost CostModel::commit(ProcId src, ProcId dst, Cost bytes, Cost depart) {
  if (src == dst || mode_ != CommMode::kLinkBusy)
    return comm(src, dst, bytes, depart);
  // Store-and-forward over the deterministic route: each hop takes the
  // full message time; links serialize in commit order. Identical
  // arithmetic to the probe, so a probe followed immediately by a commit
  // returns the same instant.
  Cost clock = depart;
  for (std::size_t link : topo_->route(src, dst)) {
    const Cost begin = std::max(clock, link_free_[link]);
    link_free_[link] = begin + bytes;
    occupancies_.push_back({link, begin, begin + bytes});
    clock = begin + bytes;
  }
  return clock;
}

void CostModel::reset_links() {
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  occupancies_.clear();
}

}  // namespace flb::platform
