#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/geometry.h"
#include "geo/similarity.h"
#include "traj/trajectory.h"

namespace perfbench {

// Brute-force answers over the generated trajectories, used to check every
// answer the benchmark receives. Each query looks only at data[0, n), so an
// incremental load is checked against the trajectories inserted so far.
// Range answers are sorted trajectory ids; top-k answers are the k smallest
// exact distances (identities may differ on ties).
class Oracle {
 public:
  explicit Oracle(const std::vector<tman::traj::Trajectory>* data);

  std::vector<std::string> TemporalRange(size_t n, int64_t ts,
                                         int64_t te) const;
  std::vector<std::string> SpatialRange(size_t n,
                                        const tman::geo::MBR& rect) const;
  std::vector<std::string> SpatioTemporalRange(size_t n,
                                               const tman::geo::MBR& rect,
                                               int64_t ts, int64_t te) const;
  std::vector<std::string> IDTemporal(size_t n, const std::string& oid,
                                      int64_t ts, int64_t te) const;
  // Similarity answers prune with the MBR lower bound, then a per-point
  // refinement of it, before each exact distance. Both bounds hold for the
  // Hausdorff and Fréchet measures.
  std::vector<std::string> Threshold(size_t n,
                                     const tman::traj::Trajectory& query,
                                     tman::geo::SimilarityMeasure measure,
                                     double threshold) const;
  // The query trajectory itself is not a candidate (TMan's top-k skips its
  // own id). Candidates go in ascending MBR lower-bound order; the search
  // stops once the bound exceeds the k-th best exact distance.
  std::vector<double> TopKDistances(size_t n,
                                    const tman::traj::Trajectory& query,
                                    tman::geo::SimilarityMeasure measure,
                                    size_t k) const;

 private:
  const std::vector<tman::traj::Trajectory>* data_;
  std::vector<tman::geo::MBR> mbrs_;
  std::unordered_map<std::string, std::vector<uint32_t>> by_oid_;
};

// Sorted trajectory ids of a result set.
std::vector<std::string> SortedTids(
    const std::vector<tman::traj::Trajectory>& results);

// Sorted exact distances from `query` to each result.
std::vector<double> SortedDistances(
    const std::vector<tman::traj::Trajectory>& results,
    const tman::traj::Trajectory& query, tman::geo::SimilarityMeasure measure);

// Element-wise equality within `tolerance`.
bool SameDistances(const std::vector<double>& a, const std::vector<double>& b,
                   double tolerance = 1e-12);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
