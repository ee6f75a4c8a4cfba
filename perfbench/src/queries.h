#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/query_stats.h"
#include "core/tman.h"
#include "geo/geometry.h"
#include "geo/similarity.h"
#include "oracle.h"
#include "spans.h"
#include "traj/generator.h"
#include "traj/trajectory.h"

namespace perfbench {

// The six paper queries, in metric-suffix order.
enum class QType { kTRQ, kSRQ, kSTRQ, kIDT, kThreshold, kTopK };
constexpr int kNumQTypes = 6;

// Metric suffix: "trq", "srq", "strq", "idt", "threshold", "topk".
const char* TypeName(QType type);

// Query parameters shared by every workload.
constexpr int64_t kTrqSeconds = 6 * 3600;
constexpr double kSrqMeters = 2000;
constexpr double kStrqMeters = 4000;
constexpr int64_t kStrqSeconds = 24 * 3600;
constexpr int64_t kIdtSeconds = 24 * 3600;
constexpr tman::geo::SimilarityMeasure kMeasure =
    tman::geo::SimilarityMeasure::kHausdorff;
constexpr double kThresholdDegrees = 0.02;
constexpr size_t kTopK = 10;

struct Query {
  QType type = QType::kTRQ;
  int64_t ts = 0;
  int64_t te = 0;
  tman::geo::MBR rect;
  std::string oid;
  // Query trajectory of a similarity query; owned by the workload's data.
  const tman::traj::Trajectory* probe = nullptr;
};

Query MakeTRQ(const tman::traj::TimeWindow& w);
Query MakeSRQ(const tman::traj::SpaceWindow& w);
Query MakeSTRQ(const tman::traj::SpaceWindow& s, const tman::traj::TimeWindow& t);
// An IDT query on `t`'s object whose 24 h window contains t's start.
Query MakeIDT(const tman::traj::Trajectory& t, tman::Random* rnd);
Query MakeSimilarity(QType type, const tman::traj::Trajectory* probe);

// What a query returned, in the oracle's form.
struct Answer {
  std::vector<std::string> tids;   // range and threshold queries
  std::vector<double> distances;   // top-k

  bool Matches(const Answer& expected) const;
};

Answer ToAnswer(const Query& q,
                const std::vector<tman::traj::Trajectory>& results);
Answer Expected(const Oracle& oracle, size_t n, const Query& q);

// Runs `q` through the public TMan query API.
tman::Status CallApi(tman::core::TMan* tman, const Query& q,
                     std::vector<tman::traj::Trajectory>* out,
                     tman::core::QueryStats* stats);

// Runs `q` through the layers' public functions, one span per call:
//   query.<type>            root, timed from outside
//     plan                  QueryPlanner::Plan*
//     execute               Executor::Execute
//       decode | refine     DecodeTrajectoriesSink | ThresholdVerifySink
// Top-k plans its radius rounds inside TMan, so it gets the root span
// around the API call only. Returns the root span id in *root.
tman::Status Replay(tman::core::TMan* tman, const Query& q,
                    std::vector<tman::traj::Trajectory>* out, SpanLog* log,
                    uint32_t query_id, int32_t* root);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
