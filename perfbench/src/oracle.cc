#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using tman::geo::MBR;
using tman::traj::Trajectory;

namespace {

// Largest distance from a point of `points` to the rectangle `rect`. Every
// point must be matched to some point inside `rect`'s trajectory, so this
// bounds the Hausdorff (and Fréchet) distance from below; it is the
// per-point refinement of the MBR lower bound.
double PointsToMbrBound(const std::vector<tman::geo::TimedPoint>& points,
                        const MBR& rect) {
  double worst = 0;
  for (const auto& p : points) {
    const double dx = std::max({0.0, rect.min_x - p.x, p.x - rect.max_x});
    const double dy = std::max({0.0, rect.min_y - p.y, p.y - rect.max_y});
    worst = std::max(worst, dx * dx + dy * dy);
  }
  return std::sqrt(worst);
}

// Lower bound on the distance between the query and data trajectory i.
double LowerBound(const Trajectory& query, const MBR& qmbr,
                  const Trajectory& t, const MBR& tmbr) {
  return std::max(PointsToMbrBound(query.points, tmbr),
                  PointsToMbrBound(t.points, qmbr));
}

}  // namespace

Oracle::Oracle(const std::vector<Trajectory>* data) : data_(data) {
  mbrs_.reserve(data->size());
  for (uint32_t i = 0; i < data->size(); i++) {
    mbrs_.push_back((*data)[i].ComputeMBR());
    by_oid_[(*data)[i].oid].push_back(i);
  }
}

std::vector<std::string> Oracle::TemporalRange(size_t n, int64_t ts,
                                               int64_t te) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; i++) {
    if ((*data_)[i].IntersectsTimeRange(ts, te)) out.push_back((*data_)[i].tid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Oracle::SpatialRange(size_t n,
                                              const MBR& rect) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; i++) {
    if (!mbrs_[i].Intersects(rect)) continue;
    if (tman::geo::PolylineIntersectsRect((*data_)[i].points, rect)) {
      out.push_back((*data_)[i].tid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Oracle::SpatioTemporalRange(size_t n,
                                                     const MBR& rect,
                                                     int64_t ts,
                                                     int64_t te) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; i++) {
    const Trajectory& t = (*data_)[i];
    if (!t.IntersectsTimeRange(ts, te) || !mbrs_[i].Intersects(rect)) continue;
    if (tman::geo::PolylineIntersectsRect(t.points, rect)) {
      out.push_back(t.tid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Oracle::IDTemporal(size_t n, const std::string& oid,
                                            int64_t ts, int64_t te) const {
  std::vector<std::string> out;
  auto it = by_oid_.find(oid);
  if (it == by_oid_.end()) return out;
  for (uint32_t i : it->second) {
    if (i < n && (*data_)[i].IntersectsTimeRange(ts, te)) {
      out.push_back((*data_)[i].tid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Oracle::Threshold(
    size_t n, const Trajectory& query, tman::geo::SimilarityMeasure measure,
    double threshold) const {
  const MBR qmbr = query.ComputeMBR();
  std::vector<std::string> out;
  for (size_t i = 0; i < n; i++) {
    if (tman::geo::MBRLowerBound(qmbr, mbrs_[i]) > threshold) continue;
    if (LowerBound(query, qmbr, (*data_)[i], mbrs_[i]) > threshold) continue;
    if (tman::geo::ExactDistance(measure, query.points, (*data_)[i].points) <=
        threshold) {
      out.push_back((*data_)[i].tid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> Oracle::TopKDistances(size_t n, const Trajectory& query,
                                          tman::geo::SimilarityMeasure measure,
                                          size_t k) const {
  const MBR qmbr = query.ComputeMBR();
  std::vector<std::pair<double, size_t>> bounds;
  bounds.reserve(n);
  for (size_t i = 0; i < n; i++) {
    if ((*data_)[i].tid == query.tid) continue;
    bounds.emplace_back(tman::geo::MBRLowerBound(qmbr, mbrs_[i]), i);
  }
  std::sort(bounds.begin(), bounds.end());
  std::vector<double> best;  // ascending, at most k
  for (const auto& [bound, i] : bounds) {
    if (best.size() == k && bound > best.back()) break;
    if (best.size() == k &&
        LowerBound(query, qmbr, (*data_)[i], mbrs_[i]) > best.back()) {
      continue;
    }
    const double d =
        tman::geo::ExactDistance(measure, query.points, (*data_)[i].points);
    if (best.size() == k && d >= best.back()) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), d), d);
    if (best.size() > k) best.pop_back();
  }
  return best;
}

std::vector<std::string> SortedTids(const std::vector<Trajectory>& results) {
  std::vector<std::string> tids;
  tids.reserve(results.size());
  for (const Trajectory& t : results) tids.push_back(t.tid);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<double> SortedDistances(const std::vector<Trajectory>& results,
                                    const Trajectory& query,
                                    tman::geo::SimilarityMeasure measure) {
  std::vector<double> d;
  d.reserve(results.size());
  for (const Trajectory& t : results) {
    d.push_back(tman::geo::ExactDistance(measure, query.points, t.points));
  }
  std::sort(d.begin(), d.end());
  return d;
}

bool SameDistances(const std::vector<double>& a, const std::vector<double>& b,
                   double tolerance) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (std::fabs(a[i] - b[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace perfbench
