// TMan end-to-end benchmark: command-line entry point.
//
//   tman_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--git-sha <sha>]
//                  [--source-sha256 <digest>]
//
// Prints one info line, then as its last line the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// The same record, with host and input details, is written to
// <out-dir>/<workload>-seed<n>-trace<t>.json; region stores live under
// <out-dir>/work while the run lasts.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: tman_perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> [--out-dir <dir>] "
          "[--git-sha <sha>] [--source-sha256 <digest>]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    fprintf(stderr, " %s", name.c_str());
  }
  fprintf(stderr, "\n");
}

bool ParseInt(const char* text, long long min, long long max, long long* out) {
  char* end = nullptr;
  const long long v = strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.out_dir = ".bench_out";
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, 1LL << 62, &v)) {
      config.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds" && ParseInt(value, 1, 60, &v)) {
      config.seconds = static_cast<int>(v);
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &v)) {
      config.trace = v == 1;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      config.git_sha = value;
    } else if (flag == "--source-sha256") {
      config.source_sha256 = value;
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) {
    Usage();
    return 2;
  }
  config.work_dir = config.out_dir + "/work/" + config.workload + "-seed" +
                    std::to_string(config.seed);
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);

  perfbench::Report report;
  const bool completed = perfbench::RunWorkload(config, &report);
  std::filesystem::remove_all(config.work_dir, ec);

  const std::string detail = report.DetailJson();
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json";
  if (FILE* f = fopen(path.c_str(), "w")) {
    fprintf(f, "%s\n", detail.c_str());
    fclose(f);
  }
  for (const std::string& e : report.errors()) {
    fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  if (!completed) return 1;
  printf("%s\n", detail.c_str());
  printf("%s\n", report.ResultJson().c_str());
  return 0;
}
