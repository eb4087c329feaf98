// flb::serve tests: the scheduling service must be byte-identical to
// sequential FLB at every worker count, and the serving digest must agree
// with the pinned pre-refactor goldens.

#include "flb/serve/serve.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "flb/core/flb.hpp"
#include "flb/sched/validator.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/paper_example.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

// The request corpus: the paper's Figure-1 example plus eight graphs from
// the deterministic fuzz registry, with varied processor counts.
struct Corpus {
  std::vector<TaskGraph> graphs;
  std::vector<ProcId> procs;
};

Corpus make_corpus() {
  Corpus c;
  c.graphs.push_back(paper_example_graph());
  c.procs.push_back(2);
  for (std::size_t i = 0; i < 8; ++i) {
    c.graphs.push_back(test::fuzz_graph(i));
    c.procs.push_back(static_cast<ProcId>(2 + (i % 3) * 3));  // 2, 5, 8
  }
  return c;
}

std::vector<std::uint64_t> sequential_digests(const Corpus& c) {
  std::vector<std::uint64_t> out;
  FlbScheduler flb;
  for (std::size_t i = 0; i < c.graphs.size(); ++i)
    out.push_back(schedule_digest(flb.run(c.graphs[i], c.procs[i])));
  return out;
}

TEST(ServeDigestTest, PaperExampleMatchesPinnedGolden) {
  TaskGraph g = paper_example_graph();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  // Same golden as the clique row in tests/platform_test.cpp: the serving
  // digest is the same FNV-1a arithmetic, so pre-refactor goldens carry.
  EXPECT_EQ(schedule_digest(s), 5113259804641662334ull);
}

TEST(ServeDigestTest, RunIntoIsBitIdenticalToRun) {
  FlbScheduler flb;
  Schedule buffer(1, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    const ProcId p = static_cast<ProcId>(2 + i % 4);
    const std::uint64_t fresh = schedule_digest(flb.run(g, p));
    flb.run_into(g, p, buffer);
    EXPECT_EQ(schedule_digest(buffer), fresh) << "graph " << i;
    // A second run into the warm buffer must reproduce it exactly.
    flb.run_into(g, p, buffer);
    EXPECT_EQ(schedule_digest(buffer), fresh) << "graph " << i;
  }
}

TEST(ScheduleServiceTest, DrainCompletesEverythingIdentically) {
  const Corpus c = make_corpus();
  const std::vector<std::uint64_t> expected = sequential_digests(c);

  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ScheduleService::Options opts;
    opts.num_threads = threads;
    serve::ScheduleService service(opts);
    for (std::size_t i = 0; i < c.graphs.size(); ++i)
      EXPECT_EQ(service.submit(c.graphs[i], c.procs[i]), i);
    service.drain();

    serve::ServiceStats st = service.stats();
    EXPECT_EQ(st.submitted, c.graphs.size());
    EXPECT_EQ(st.completed, c.graphs.size());
    ASSERT_EQ(service.size(), c.graphs.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const serve::ScheduleResult& r = service.result(i);
      EXPECT_EQ(r.digest, expected[i])
          << "request " << i << " diverged at " << threads << " workers";
      EXPECT_GT(r.makespan, 0.0);
      EXPECT_GE(r.latency_ms, r.run_ms);
      EXPECT_FALSE(r.schedule.has_value());
    }
    service.close();
  }
}

TEST(ScheduleServiceTest, TinyQueueEngagesBackpressure) {
  // One slow worker, capacity-1 queue, a burst of submissions: the producer
  // must block at least once (submitting is orders of magnitude faster than
  // scheduling a ~100-task graph).
  std::vector<TaskGraph> graphs;
  for (std::size_t i = 0; i < 10; ++i) {
    WorkloadParams params;
    params.seed = 42 + i;
    graphs.push_back(random_dag(120, 0.2, params));
  }
  serve::ScheduleService::Options opts;
  opts.num_threads = 1;
  opts.queue_capacity = 1;
  serve::ScheduleService service(opts);
  for (const TaskGraph& g : graphs) (void)service.submit(g, 4);
  service.drain();
  serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, graphs.size());
  EXPECT_GT(st.backpressure_waits, 0u);
  service.close();
}

TEST(ScheduleServiceTest, CloseIsIdempotentAndDrains) {
  TaskGraph g = test::fuzz_graph(3);
  serve::ScheduleService::Options opts;
  opts.num_threads = 2;
  serve::ScheduleService service(opts);
  (void)service.submit(g, 4);
  (void)service.submit(g, 4);
  service.close();
  service.close();  // must be a no-op
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.result(0).digest, service.result(1).digest);
}

// submit() rejects a zero-processor request before counting it; the
// requests around it complete, and the service drains and closes.
TEST(ScheduleServiceTest, RejectsZeroProcessorRequest) {
  const Corpus c = make_corpus();
  const std::vector<std::uint64_t> expected = sequential_digests(c);
  serve::ScheduleService::Options opts;
  opts.num_threads = 2;
  serve::ScheduleService service(opts);
  EXPECT_EQ(service.submit(c.graphs[0], c.procs[0]), 0u);
  EXPECT_THROW((void)service.submit(c.graphs[1], 0), Error);
  EXPECT_EQ(service.submit(c.graphs[2], c.procs[2]), 1u);
  service.drain();
  const serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(service.result(0).digest, expected[0]);
  EXPECT_EQ(service.result(1).digest, expected[2]);
  service.close();
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(ScheduleServiceTest, KeepSchedulesOption) {
  const Corpus c = make_corpus();
  serve::ScheduleService::Options opts;
  opts.num_threads = 2;
  opts.keep_schedules = true;
  serve::ScheduleService service(opts);
  for (std::size_t i = 0; i < c.graphs.size(); ++i)
    (void)service.submit(c.graphs[i], c.procs[i]);
  service.drain();
  // Request 0 is the paper example on two processors.
  ASSERT_TRUE(service.result(0).schedule.has_value());
  EXPECT_EQ(schedule_digest(*service.result(0).schedule),
            5113259804641662334ull);
  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    const serve::ScheduleResult& r = service.result(i);
    ASSERT_TRUE(r.schedule.has_value()) << "request " << i;
    const Schedule& s = *r.schedule;
    EXPECT_EQ(schedule_digest(s), r.digest) << "request " << i;
    EXPECT_EQ(s.makespan(), r.makespan) << "request " << i;
    EXPECT_TRUE(validate_schedule(c.graphs[i], s).empty())
        << test::violations_to_string(c.graphs[i], s);
  }
  service.close();
}

}  // namespace
}  // namespace flb
