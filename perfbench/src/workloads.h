#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string work_dir;  // region stores live here while the run lasts
  std::string out_dir;   // results and span files
  std::string git_sha;   // source revision, recorded with the results
  std::string source_sha256;  // digest of the benchmarked sources
};

// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

// Runs one workload and fills `report`. An untraced run reports the
// end-to-end metrics; a traced run reports the per-layer ones. Returns
// false when the run could not complete (the report says why).
bool RunWorkload(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
