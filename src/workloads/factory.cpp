#include <cmath>
#include <cstddef>

#include "flb/util/error.hpp"
#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"

// Size-targeted workload construction for the benchmark harness. The paper
// adjusts each problem's structural size so its task graph has about
// V = 2000 nodes; these helpers invert each family's V formula.

namespace flb {

namespace {

// n with n(n+1)/2 - 1 closest to target from below (never overshooting by
// a whole diagonal): n = floor((-1 + sqrt(1 + 8(target+1))) / 2).
std::size_t matrix_dim_for(std::size_t target) {
  double n = (-1.0 + std::sqrt(1.0 + 8.0 * (static_cast<double>(target) + 1))) / 2.0;
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(n)));
}

}  // namespace

TaskGraph perturb_weights(const TaskGraph& g, double spread,
                          std::uint64_t seed) {
  FLB_REQUIRE(spread >= 0.0 && spread < 1.0,
              "perturb_weights: spread must be in [0, 1)");
  Rng rng(seed);
  TaskGraphBuilder b;
  b.set_name(g.name());
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    b.add_task(g.comp(t) * rng.uniform(1.0 - spread, 1.0 + spread));
  for (const Edge& e : g.edges())
    b.add_edge(e.from, e.to,
               e.comm * rng.uniform(1.0 - spread, 1.0 + spread));
  return std::move(b).build();
}

std::vector<std::string> workload_names() {
  return {"LU", "Laplace", "Stencil", "FFT", "Gauss", "Cholesky", "Random"};
}

TaskGraph make_workload(const std::string& name, std::size_t target_tasks,
                        const WorkloadParams& params) {
  FLB_REQUIRE(target_tasks >= 8, "make_workload: target_tasks too small");
  if (name == "LU") {
    return lu_graph(matrix_dim_for(target_tasks), params);
  }
  if (name == "Gauss") {
    return gauss_graph(matrix_dim_for(target_tasks), params);
  }
  if (name == "Laplace") {
    // Ten sweeps of an m x m grid plus one check per sweep:
    // V = 10 (m^2 + 1).
    const std::size_t iters = 10;
    double per_sweep =
        static_cast<double>(target_tasks) / static_cast<double>(iters) - 1.0;
    auto m = static_cast<std::size_t>(
        std::llround(std::sqrt(std::max(4.0, per_sweep))));
    return laplace_graph(std::max<std::size_t>(2, m), iters, params);
  }
  if (name == "Stencil") {
    // Roughly square space-time extent: V = width * steps.
    auto width = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(target_tasks))));
    width = std::max<std::size_t>(1, width);
    auto steps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(target_tasks) / static_cast<double>(width))));
    return stencil_graph(width, steps, params);
  }
  if (name == "FFT") {
    // Pick the power of two whose V = points * (log2(points) + 1) is
    // closest to the target.
    std::size_t best_points = 2;
    std::size_t best_diff = static_cast<std::size_t>(-1);
    for (std::size_t points = 2; points <= (std::size_t{1} << 24);
         points <<= 1) {
      std::size_t stages = 0;
      for (std::size_t v = points; v > 1; v >>= 1) ++stages;
      std::size_t v = points * (stages + 1);
      std::size_t diff = v > target_tasks ? v - target_tasks : target_tasks - v;
      if (diff < best_diff) {
        best_diff = diff;
        best_points = points;
      }
      if (v > 4 * target_tasks) break;
    }
    return fft_graph(best_points, params);
  }
  if (name == "Cholesky") {
    // V(T) = T + T(T-1) + sum_{k} C(T-1-k, 2) ~ T^3/6 + T^2/2; pick the T
    // whose count lands closest to the target.
    std::size_t best_t = 1, best_diff = static_cast<std::size_t>(-1);
    for (std::size_t t = 1; t <= 200; ++t) {
      std::size_t v = t + t * (t - 1);
      for (std::size_t k = 0; k + 2 < t; ++k)
        v += (t - 1 - k) * (t - 2 - k) / 2;
      std::size_t diff = v > target_tasks ? v - target_tasks : target_tasks - v;
      if (diff < best_diff) {
        best_diff = diff;
        best_t = t;
      }
      if (v > 4 * target_tasks) break;
    }
    return cholesky_graph(best_t, params);
  }
  FLB_REQUIRE(name == "Random",
              "make_workload: unknown workload '" + name + "'");
  auto width = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             std::sqrt(static_cast<double>(target_tasks) / 2.0))));
  auto layers = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(target_tasks) / static_cast<double>(width))));
  return random_layered_graph(layers, width, 0.3, params);
}

}  // namespace flb
