// Self-test of the benchmark's own helpers: the percentile rule, span self
// times, and oracle agreement with TMan on a tiny dataset.
//
//   perfbench_selftest [--work-dir <dir>]
//
// Exits 0 when every check passes; prints each failed check.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tman.h"
#include "oracle.h"
#include "queries.h"
#include "spans.h"
#include "stats.h"
#include "traj/generator.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    failures++;
    fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; i--) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  using perfbench::TailPercentile;
  Check(perfbench::NearestRank(200, 95) == 190, "rank of p95 in 200");
  Check(perfbench::NearestRank(100, 50) == 50, "rank of p50 in 100");
  Check(perfbench::NearestRank(1, 50) == 1, "rank of p50 in 1");
  Check(perfbench::NearestRank(201, 95) == 191, "rank of p95 in 201");
  Check(perfbench::TailSupported(200, 95), "p95 supported with 200");
  Check(!perfbench::TailSupported(199, 95), "p95 unsupported with 199");
  Check(!perfbench::TailSupported(0, 95), "p95 unsupported with 0");
  Check(perfbench::TailSupported(20, 50), "p50 supported with 20");
  Check(!perfbench::TailSupported(19, 50), "p50 unsupported with 19");
  Check(!TailPercentile(Range(199), 95).has_value(), "no p95 of 199");
  const auto p95 = TailPercentile(Range(200), 95);
  Check(p95.has_value() && *p95 == 190, "p95 of 1..200 is 190");
  const auto p95_400 = TailPercentile(Range(400), 95);
  Check(p95_400.has_value() && *p95_400 == 380, "p95 of 1..400 is 380");
  Check(perfbench::Median(Range(5)) == 3, "median of 1..5");
  Check(perfbench::Median(Range(4)) == 2.5, "median of 1..4");
  Check(perfbench::Median({}) == 0, "median of nothing");
  Check(std::fabs(perfbench::GeoMean({2, 8}) - 4) < 1e-12, "geomean of 2, 8");
  Check(std::fabs(perfbench::GeoMean({5}) - 5) < 1e-12, "geomean of 5");
  Check(perfbench::GeoMean({}) == 0, "geomean of nothing");
  Check(perfbench::GeoMean({3, 0}) == 0, "geomean with a zero");
}

void TestSelfTimes() {
  using perfbench::Span;
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // grandchild [15,25) under the first child; a child sticking out of its
  // parent is clipped; a zero-length child covers nothing.
  std::vector<Span> spans = {
      {"root", -1, 0, 0, 100, 0},  {"a", 0, 0, 10, 30, 0},
      {"b", 0, 0, 20, 50, 0},      {"a1", 1, 0, 15, 25, 0},
      {"c", 0, 0, 90, 130, 0},     {"d", 0, 0, 60, 60, 0},
      {"other", -1, 1, 200, 210, 0},
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Check(self[0] == 100 - 40 - 10, "root self = duration - union(children)");
  Check(self[1] == 20 - 10, "child self minus grandchild");
  Check(self[2] == 30, "leaf self = duration");
  Check(self[3] == 10, "grandchild self");
  Check(self[5] == 0, "empty span self");
  Check(self[6] == 10, "separate root");

  // Sequential children inside a root: self times sum to the root.
  std::vector<Span> seq = {{"query.trq", -1, 0, 0, 1000, 0},
                           {"plan", 0, 0, 5, 105, 0},
                           {"execute", 0, 0, 105, 905, 0},
                           {"decode", 2, 0, 200, 600, 0}};
  const std::vector<int64_t> s2 = perfbench::SelfTimesNs(seq);
  int64_t sum = 0;
  for (int64_t v : s2) sum += v;
  Check(sum == 1000, "self times of a query sum to its wall time");
  Check(s2[0] == 100 && s2[2] == 400, "unattributed and scan self times");
}

void TestOracleAgreement(const std::string& work_dir) {
  using namespace tman;
  using perfbench::Query;
  using perfbench::QType;
  const traj::DatasetSpec spec = traj::TDriveLikeSpec();
  const std::vector<traj::Trajectory> data = traj::Generate(spec, 300, 7);
  const perfbench::Oracle oracle(&data);

  obs::MetricsRegistry registry;
  core::TManOptions options = bench::DefaultOptions(spec);
  options.kv.metrics = &registry;
  const std::string dir = work_dir + "/selftest-store";
  std::filesystem::remove_all(dir);
  std::unique_ptr<core::TMan> tman;
  Status s = core::TMan::Open(options, dir, &tman);
  if (s.ok()) s = tman->BulkLoad(data);
  if (s.ok()) s = tman->Flush();
  Check(s.ok(), "tiny store loads: " + s.ToString());
  if (!s.ok()) return;

  const auto tw = traj::RandomTimeWindows(spec, 4, perfbench::kTrqSeconds, 1);
  const auto sw = traj::RandomSpaceWindows(spec, 4, 8000, 2);
  Random rnd(3);
  std::vector<Query> queries;
  for (int i = 0; i < 4; i++) {
    queries.push_back(perfbench::MakeTRQ(tw[i]));
    queries.push_back(perfbench::MakeSRQ(sw[i]));
    queries.push_back(perfbench::MakeSTRQ(
        sw[i], traj::TimeWindow{spec.t0, spec.t0 + spec.horizon_seconds}));
    queries.push_back(perfbench::MakeIDT(data[rnd.Uniform(data.size())], &rnd));
    queries.push_back(perfbench::MakeSimilarity(QType::kThreshold, &data[i]));
    queries.push_back(perfbench::MakeSimilarity(QType::kTopK, &data[i + 10]));
  }
  perfbench::SpanLog spans;
  size_t nonempty = 0;
  for (size_t i = 0; i < queries.size(); i++) {
    const Query& q = queries[i];
    const std::string name = perfbench::TypeName(q.type);
    const perfbench::Answer expected = perfbench::Expected(oracle, data.size(), q);
    if (!expected.tids.empty() || !expected.distances.empty()) nonempty++;

    std::vector<traj::Trajectory> api;
    core::QueryStats stats;
    s = perfbench::CallApi(tman.get(), q, &api, &stats);
    Check(s.ok() && perfbench::ToAnswer(q, api).Matches(expected),
          "api " + name + " agrees with the oracle");

    std::vector<traj::Trajectory> replayed;
    int32_t root = -1;
    s = perfbench::Replay(tman.get(), q, &replayed, &spans,
                          static_cast<uint32_t>(i), &root);
    Check(s.ok() && perfbench::ToAnswer(q, replayed).Matches(expected),
          "replay " + name + " agrees with the oracle");
  }
  Check(nonempty >= queries.size() / 2, "most oracle answers are non-empty");

  // Each TMan answer must differ from a wrong one: drop the first result
  // and the comparison fails.
  std::vector<traj::Trajectory> all;
  s = tman->TemporalRangeQuery(spec.t0, spec.t0 + spec.horizon_seconds, &all);
  Check(s.ok() && all.size() == data.size(), "full-range TRQ returns all");
  const Query full = perfbench::MakeTRQ(
      traj::TimeWindow{spec.t0, spec.t0 + spec.horizon_seconds});
  if (!all.empty()) all.pop_back();
  Check(!perfbench::ToAnswer(full, all).Matches(
            perfbench::Expected(oracle, data.size(), full)),
        "a missing row is detected");
  Check(perfbench::Expected(oracle, 10, full).tids.size() == 10,
        "oracle prefix covers only the first n trajectories");
  tman.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = ".bench_out";
  if (argc == 3 && std::string(argv[1]) == "--work-dir") work_dir = argv[2];
  std::filesystem::create_directories(work_dir);
  TestPercentileRule();
  TestSelfTimes();
  TestOracleAgreement(work_dir);
  if (failures > 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  printf("perfbench self-test: all checks passed\n");
  return 0;
}
