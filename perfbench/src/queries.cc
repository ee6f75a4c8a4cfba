#include "queries.h"

#include <memory>

#include "core/executor.h"
#include "core/filters.h"
#include "core/planner.h"
#include "geo/douglas_peucker.h"

namespace perfbench {

using tman::Status;
using tman::core::QueryPlan;
using tman::traj::Trajectory;

const char* TypeName(QType type) {
  switch (type) {
    case QType::kTRQ:
      return "trq";
    case QType::kSRQ:
      return "srq";
    case QType::kSTRQ:
      return "strq";
    case QType::kIDT:
      return "idt";
    case QType::kThreshold:
      return "threshold";
    case QType::kTopK:
      return "topk";
  }
  return "unknown";
}

Query MakeTRQ(const tman::traj::TimeWindow& w) {
  Query q;
  q.type = QType::kTRQ;
  q.ts = w.ts;
  q.te = w.te;
  return q;
}

Query MakeSRQ(const tman::traj::SpaceWindow& w) {
  Query q;
  q.type = QType::kSRQ;
  q.rect = w.rect;
  return q;
}

Query MakeSTRQ(const tman::traj::SpaceWindow& s,
               const tman::traj::TimeWindow& t) {
  Query q;
  q.type = QType::kSTRQ;
  q.rect = s.rect;
  q.ts = t.ts;
  q.te = t.te;
  return q;
}

Query MakeIDT(const Trajectory& t, tman::Random* rnd) {
  Query q;
  q.type = QType::kIDT;
  q.oid = t.oid;
  q.ts = t.start_time() - static_cast<int64_t>(rnd->Uniform(kIdtSeconds));
  q.te = q.ts + kIdtSeconds;
  return q;
}

Query MakeSimilarity(QType type, const Trajectory* probe) {
  Query q;
  q.type = type;
  q.probe = probe;
  return q;
}

bool Answer::Matches(const Answer& expected) const {
  return tids == expected.tids &&
         SameDistances(distances, expected.distances);
}

Answer ToAnswer(const Query& q, const std::vector<Trajectory>& results) {
  Answer a;
  if (q.type == QType::kTopK) {
    a.distances = SortedDistances(results, *q.probe, kMeasure);
  } else {
    a.tids = SortedTids(results);
  }
  return a;
}

Answer Expected(const Oracle& oracle, size_t n, const Query& q) {
  Answer a;
  switch (q.type) {
    case QType::kTRQ:
      a.tids = oracle.TemporalRange(n, q.ts, q.te);
      break;
    case QType::kSRQ:
      a.tids = oracle.SpatialRange(n, q.rect);
      break;
    case QType::kSTRQ:
      a.tids = oracle.SpatioTemporalRange(n, q.rect, q.ts, q.te);
      break;
    case QType::kIDT:
      a.tids = oracle.IDTemporal(n, q.oid, q.ts, q.te);
      break;
    case QType::kThreshold:
      a.tids = oracle.Threshold(n, *q.probe, kMeasure, kThresholdDegrees);
      break;
    case QType::kTopK:
      a.distances = oracle.TopKDistances(n, *q.probe, kMeasure, kTopK);
      break;
  }
  return a;
}

Status CallApi(tman::core::TMan* tman, const Query& q,
               std::vector<Trajectory>* out, tman::core::QueryStats* stats) {
  switch (q.type) {
    case QType::kTRQ:
      return tman->TemporalRangeQuery(q.ts, q.te, out, stats);
    case QType::kSRQ:
      return tman->SpatialRangeQuery(q.rect, out, stats);
    case QType::kSTRQ:
      return tman->SpatioTemporalRangeQuery(q.rect, q.ts, q.te, out, stats);
    case QType::kIDT:
      return tman->IDTemporalQuery(q.oid, q.ts, q.te, out, stats);
    case QType::kThreshold:
      return tman->ThresholdSimilarityQuery(*q.probe, kMeasure,
                                            kThresholdDegrees, out, stats);
    case QType::kTopK:
      return tman->TopKSimilarityQuery(*q.probe, kMeasure, kTopK, out, stats);
  }
  return Status::InvalidArgument("unknown query type");
}

namespace {

Status Plan(tman::core::TMan* tman, const Query& q, QueryPlan* plan) {
  const tman::core::QueryPlanner* planner = tman->planner();
  switch (q.type) {
    case QType::kTRQ:
      return planner->PlanTemporalRange(q.ts, q.te, plan);
    case QType::kSRQ:
      return planner->PlanSpatialRange(q.rect, plan);
    case QType::kSTRQ:
      return planner->PlanSpatioTemporalRange(q.rect, q.ts, q.te, plan);
    case QType::kIDT:
      return planner->PlanIDTemporal(q.oid, q.ts, q.te, plan);
    case QType::kThreshold:
    case QType::kTopK:
      break;
  }
  return Status::InvalidArgument("not a range query");
}

}  // namespace

Status Replay(tman::core::TMan* tman, const Query& q,
              std::vector<Trajectory>* out, SpanLog* log, uint32_t query_id,
              int32_t* root) {
  *root = log->Begin(std::string("query.") + TypeName(q.type), -1, query_id);
  if (q.type == QType::kTopK) {
    Status s = CallApi(tman, q, out, nullptr);
    log->End(*root);
    return s;
  }

  // Feature extraction for the threshold filter runs before planning in the
  // API as well; it stays in the root's unattributed time.
  std::unique_ptr<tman::kv::ScanFilter> similarity_filter;
  if (q.type == QType::kThreshold) {
    similarity_filter = std::make_unique<tman::core::SimilarityFilter>(
        tman::geo::ExtractDPFeatures(q.probe->points,
                                     tman->options().max_dp_features),
        kThresholdDegrees);
  }

  const int32_t plan_span = log->Begin("plan", *root, query_id);
  QueryPlan plan;
  Status s = q.type == QType::kThreshold
                 ? tman->planner()->PlanSimilarityCandidates(
                       q.probe->ComputeMBR(), kThresholdDegrees,
                       std::move(similarity_filter), "similarity:threshold",
                       &plan)
                 : Plan(tman, q, &plan);
  log->End(plan_span);

  if (s.ok()) {
    tman::core::QueryStats stats;
    const int32_t exec_span = log->Begin("execute", *root, query_id);
    if (q.type == QType::kThreshold) {
      tman::core::ThresholdVerifySink verify(q.probe, kMeasure,
                                             kThresholdDegrees, out, &stats);
      TimedSink timed(&verify);
      s = tman->executor()->Execute(plan, &timed, &stats);
      if (s.ok()) s = verify.status();
      log->End(exec_span);
      timed.AddSpan(log, "refine", exec_span, query_id);
    } else {
      tman::core::DecodeTrajectoriesSink decode(out);
      TimedSink timed(&decode);
      s = tman->executor()->Execute(plan, &timed, &stats);
      if (s.ok()) s = decode.status();
      log->End(exec_span);
      timed.AddSpan(log, "decode", exec_span, query_id);
    }
  }
  log->End(*root);
  return s;
}

}  // namespace perfbench
