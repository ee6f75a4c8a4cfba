#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "bench_util.h"
#include "common/random.h"
#include "core/record.h"
#include "core/tman.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "queries.h"
#include "spans.h"
#include "stats.h"
#include "traj/generator.h"

namespace perfbench {

namespace {

using tman::Status;
using tman::core::QueryStats;
using tman::core::TMan;
using tman::traj::Trajectory;

constexpr int kSetupReps = 3;         // set-ups per untraced run (median)
constexpr int kIngestSetupReps = 9;   // its set-up is short, so more of them
constexpr size_t kMinSamples = 200;   // per query type, so p95 is supported
constexpr size_t kWarmupRounds = 5;   // untimed rounds before measuring
constexpr size_t kMinTraceRounds = 20;
constexpr size_t kPoolRounds = 1000;  // distinct queries per type
constexpr size_t kBatch = 100;        // ingest batch size
constexpr size_t kIngestMaxPasses = 8;
// Measuring stops here even if a sample floor is unmet, so the process
// always ends well inside its time limit.
constexpr double kHardLimitSeconds = 140;

const int64_t kProcessStartNs = NowNs();

double SinceStart() { return (NowNs() - kProcessStartNs) / 1e9; }
double Ms(int64_t ns) { return ns / 1e6; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

size_t CountPoints(const std::vector<Trajectory>& data, size_t n) {
  size_t points = 0;
  for (size_t i = 0; i < n; i++) points += data[i].points.size();
  return points;
}

// One open TMan with its metrics registry (the registry outlives it).
struct Store {
  std::unique_ptr<tman::obs::MetricsRegistry> registry;
  std::unique_ptr<TMan> tman;

  void Close() {
    tman.reset();
    registry.reset();
  }
};

// bench::DefaultOptions(TDriveLikeSpec()): 4 regions per table, 8 MiB block
// cache per region store, a metrics registry attached, telemetry server off.
tman::core::TManOptions BenchOptions(tman::obs::MetricsRegistry* registry) {
  tman::core::TManOptions options =
      tman::bench::DefaultOptions(tman::traj::TDriveLikeSpec());
  options.kv.metrics = registry;
  options.telemetry_port = -1;
  return options;
}

Status OpenStore(const std::string& dir, Store* store) {
  store->Close();
  std::filesystem::remove_all(dir);
  store->registry = std::make_unique<tman::obs::MetricsRegistry>();
  return TMan::Open(BenchOptions(store->registry.get()), dir, &store->tman);
}

// Wall and process CPU time of each set-up in a run. setup_s is the median
// CPU time: on a shared host it varies far less between runs than wall time,
// and work moved into set-up raises it all the same.
class SetupTimes {
 public:
  void Begin() {
    wall_start_ = NowNs();
    cpu_start_ = ProcessCpuNs();
  }
  void End() {
    cpu_s_.push_back((ProcessCpuNs() - cpu_start_) / 1e9);
    wall_s_.push_back((NowNs() - wall_start_) / 1e9);
  }
  void Report(perfbench::Report* report) const {
    report->Info("setup_wall_s", Median(wall_s_));
    report->Info("setups", static_cast<double>(cpu_s_.size()));
    report->Metric("setup_s", Median(cpu_s_), "s");
  }

 private:
  int64_t wall_start_ = 0;
  int64_t cpu_start_ = 0;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

// Tears down the previous set-up before the next one is timed, so a
// set-up's time holds neither closing and deleting the old store nor
// freeing the old data.
void ReleaseStore(const std::string& dir, Store* store,
                  std::vector<Trajectory>* data) {
  store->Close();
  std::filesystem::remove_all(dir);
  std::vector<Trajectory>().swap(*data);
}

// Counters read around a measured phase.
struct Counters {
  uint64_t lfu_hits = 0;
  uint64_t lfu_misses = 0;
  uint64_t redis_loads = 0;
  uint64_t block_hits = 0;
  uint64_t block_misses = 0;
  std::vector<uint64_t> region_rows;  // primary table, per region
  uint64_t region_writes = 0;         // primary table, all regions
};

Counters Snapshot(TMan* tman) {
  Counters c;
  c.lfu_hits = tman->index_cache()->lfu_hits();
  c.lfu_misses = tman->index_cache()->lfu_misses();
  c.redis_loads = tman->index_cache()->redis_loads();
  const tman::kv::DB::Stats db = tman->primary_table()->GetStorageStats();
  c.block_hits = db.block_cache_hits;
  c.block_misses = db.block_cache_misses;
  for (const auto& region : tman->primary_table()->GetPerRegionStats()) {
    c.region_rows.push_back(region.rows_scanned_total);
    c.region_writes += region.writes_total;
  }
  return c;
}

// Wall and process CPU time of each call of one operation type, in ms.
struct OpTimes {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;

  void Add(int64_t wall_ns, int64_t cpu_ns) {
    wall_ms.push_back(Ms(wall_ns));
    cpu_ms.push_back(Ms(cpu_ns));
  }
};

// Times and accumulated QueryStats of one query type.
struct TypeLog {
  OpTimes times;
  QueryStats stats;
};

void Accumulate(const QueryStats& s, QueryStats* total) {
  total->windows += s.windows;
  total->windows_coalesced += s.windows_coalesced;
  total->candidates += s.candidates;
  total->results += s.results;
  total->elements_visited += s.elements_visited;
  total->exact_distance_computations += s.exact_distance_computations;
}

// An answer waiting for the oracle, checked after measuring ends.
struct PendingCheck {
  Query query;
  size_t n;  // the oracle looks at data[0, n)
  Answer got;
  const char* path;
};

class Runner {
 public:
  Runner(Report* report, std::vector<PendingCheck>* checks)
      : report_(report), checks_(checks) {}

  // Times one public API call from outside.
  void Api(TMan* tman, const Query& q, size_t n, TypeLog* log) {
    std::vector<Trajectory> out;
    QueryStats stats;
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    const Status s = CallApi(tman, q, &out, &stats);
    const int64_t end = NowNs();
    const int64_t cpu_end = ProcessCpuNs();
    report_->Attempted();
    if (!s.ok()) {
      report_->Failed(std::string("api ") + TypeName(q.type) + ": " +
                      s.ToString());
      return;
    }
    if (log != nullptr) {
      log->times.Add(end - start, cpu_end - cpu_start);
      Accumulate(stats, &log->stats);
    }
    checks_->push_back(PendingCheck{q, n, ToAnswer(q, out), "api"});
  }

  // Replays one query with spans; returns its traced wall time.
  int64_t Traced(TMan* tman, const Query& q, size_t n, SpanLog* spans) {
    std::vector<Trajectory> out;
    int32_t root = -1;
    const Status s = Replay(tman, q, &out, spans, next_query_id_++, &root);
    report_->Attempted();
    if (!s.ok()) {
      report_->Failed(std::string("replay ") + TypeName(q.type) + ": " +
                      s.ToString());
      return 0;
    }
    checks_->push_back(PendingCheck{q, n, ToAnswer(q, out), "replay"});
    return spans->spans()[root].duration_ns();
  }

 private:
  Report* report_;
  std::vector<PendingCheck>* checks_;
  uint32_t next_query_id_ = 0;
};

void CheckAnswers(const Oracle& oracle, const std::vector<PendingCheck>& checks,
                  Report* report) {
  for (const PendingCheck& c : checks) {
    if (!c.got.Matches(Expected(oracle, c.n, c.query))) {
      report->Failed(std::string(c.path) + " " + TypeName(c.query.type) +
                     ": answer differs from the brute-force oracle");
    }
  }
}

// Per operation type ("trq", .., "insert"): the times of its calls.
using LatencyLog = std::map<std::string, OpTimes>;

LatencyLog Latencies(const std::map<QType, TypeLog>& logs) {
  LatencyLog out;
  for (const auto& [type, log] : logs) out[TypeName(type)] = log.times;
  return out;
}

// IDT answers in well under a millisecond, so its tail is mostly scheduling
// noise; like the paper it is judged by its median only.
bool HasTailMetric(const std::string& op) { return op != "idt"; }

// The median and 95th percentile of `ms` for operation `name`, recorded in
// the results file as <name><suffix>_p50_ms and _p95_ms; the p95 goes into
// `p95s` only for types judged by their tail.
void AddPercentiles(const std::string& name, const std::string& suffix,
                    const std::vector<double>& ms, std::vector<double>* p50s,
                    std::vector<double>* p95s, Report* report) {
  p50s->push_back(Median(ms));
  report->Info(name + suffix + "_p50_ms", p50s->back());
  const auto p95 = TailPercentile(ms, 95);
  if (!p95) {
    report->Inconsistent(name + ": too few samples for p95 (" +
                         std::to_string(ms.size()) + ")");
    return;
  }
  report->Info(name + suffix + "_p95_ms", *p95);
  if (HasTailMetric(name)) p95s->push_back(*p95);
}

// The end-to-end metrics are geometric means over the workload's operation
// types of each type's median and 95th percentile, so every workload reports
// the same metrics and a relative change of any one type moves them by the
// same share whatever its size. They are taken of the process CPU time of
// each call, which on a shared host varies far less between runs than its
// wall time; the wall-time figures go to the results file with each type's
// own.
void AddLatencyMetrics(const LatencyLog& ops, Report* report) {
  std::vector<double> cpu_p50s;
  std::vector<double> cpu_p95s;
  std::vector<double> wall_p50s;
  std::vector<double> wall_p95s;
  for (const auto& [name, times] : ops) {
    report->Info(name + "_samples", static_cast<double>(times.wall_ms.size()));
    AddPercentiles(name, "", times.wall_ms, &wall_p50s, &wall_p95s, report);
    AddPercentiles(name, "_cpu", times.cpu_ms, &cpu_p50s, &cpu_p95s, report);
  }
  report->Info("op_p50_ms", GeoMean(wall_p50s));
  report->Info("op_p95_ms", GeoMean(wall_p95s));
  report->Metric("op_cpu_p50_ms", GeoMean(cpu_p50s), "ms");
  report->Metric("op_cpu_p95_ms", GeoMean(cpu_p95s), "ms");
}

// Counts from QueryStats over all measured queries, normalized per query;
// each type's own counts go to the results file.
void AddPlanCountMetrics(const std::map<QType, TypeLog>& logs,
                         Report* report) {
  QueryStats total;
  double queries = 0;
  for (const auto& [type, log] : logs) {
    const double n = static_cast<double>(log.times.wall_ms.size());
    if (n == 0) continue;
    queries += n;
    Accumulate(log.stats, &total);
    const std::string t = TypeName(type);
    report->Info("planner.windows_per_query." + t, log.stats.windows / n);
    report->Info("planner.elements_visited_per_query." + t,
                 log.stats.elements_visited / n);
    report->Info("pushdown.candidates_per_result." + t,
                 Ratio(log.stats.candidates, log.stats.results));
  }
  if (queries == 0) {
    report->Inconsistent("no measured queries");
    return;
  }
  report->Metric("planner.windows_per_query", total.windows / queries,
                 "count");
  report->Metric("planner.elements_visited_per_query",
                 total.elements_visited / queries, "count");
  report->Metric("planner.windows_coalesced_per_query",
                 total.windows_coalesced / queries, "count");
  report->Metric("pushdown.candidates_per_result",
                 Ratio(total.candidates, total.results), "ratio");
  report->Metric("refine.exact_distance_per_query",
                 total.exact_distance_computations / queries, "count");
}

// after - before, field by field.
Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  d.lfu_hits = after.lfu_hits - before.lfu_hits;
  d.lfu_misses = after.lfu_misses - before.lfu_misses;
  d.redis_loads = after.redis_loads - before.redis_loads;
  d.block_hits = after.block_hits - before.block_hits;
  d.block_misses = after.block_misses - before.block_misses;
  const size_t regions =
      std::min(before.region_rows.size(), after.region_rows.size());
  for (size_t i = 0; i < regions; i++) {
    d.region_rows.push_back(after.region_rows[i] - before.region_rows[i]);
  }
  d.region_writes = after.region_writes - before.region_writes;
  return d;
}

void AddTo(const Counters& d, Counters* sum) {
  sum->lfu_hits += d.lfu_hits;
  sum->lfu_misses += d.lfu_misses;
  sum->redis_loads += d.redis_loads;
  sum->block_hits += d.block_hits;
  sum->block_misses += d.block_misses;
  sum->region_rows.resize(std::max(sum->region_rows.size(),
                                   d.region_rows.size()));
  for (size_t i = 0; i < d.region_rows.size(); i++) {
    sum->region_rows[i] += d.region_rows[i];
  }
  sum->region_writes += d.region_writes;
}

// Read-side counters `d` gathered over `queries` queries.
void AddReadCounterMetrics(const Counters& d, double queries,
                           Report* report) {
  const double hits = d.lfu_hits;
  const double misses = d.lfu_misses;
  report->Metric("index_cache.hit_ratio", Ratio(hits, hits + misses),
                 "ratio");
  report->Metric("index_cache.redis_loads_per_query",
                 Ratio(d.redis_loads, queries), "count");
  const double bhits = d.block_hits;
  const double bmisses = d.block_misses;
  report->Metric("kvstore.block_cache_hit_ratio", Ratio(bhits, bhits + bmisses),
                 "ratio");
  report->Metric("kvstore.block_cache_misses_per_query",
                 Ratio(bmisses, queries), "count");
  double total = 0;
  double max_rows = 0;
  for (uint64_t rows : d.region_rows) {
    total += rows;
    max_rows = std::max<double>(max_rows, rows);
  }
  report->Metric("cluster.rows_scanned_per_query", Ratio(total, queries),
                 "count");
  report->Metric(
      "cluster.region_rows_max_over_mean",
      Ratio(max_rows, total / std::max<size_t>(d.region_rows.size(), 1)),
      "ratio");
}

// Self times per layer from the replayed query spans, per query over every
// type but top-k (one opaque API call, all of it unattributed); each type's
// own figures go to the results file. For every type the four self times
// add up to the traced wall time; that identity is checked.
void AddSelfTimeMetrics(const SpanLog& log, Report* report) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  static const char* const kLayers[] = {"planner", "scan", "decode_refine",
                                        "unattributed"};
  struct Totals {
    uint64_t queries = 0;
    int64_t wall = 0;
    std::map<std::string, int64_t> self;  // layer -> ns
  };
  std::map<std::string, Totals> by_type;
  int64_t sink_ns = 0;
  uint64_t sink_rows = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    int32_t root = static_cast<int32_t>(i);
    while (spans[root].parent >= 0) root = spans[root].parent;
    const std::string& root_name = spans[root].name;
    if (root_name.rfind("query.", 0) != 0) continue;
    Totals& t = by_type[root_name.substr(6)];
    const Span& s = spans[i];
    if (s.parent < 0) {
      t.queries++;
      t.wall += s.duration_ns();
      t.self["unattributed"] += self[i];
    } else if (s.name == "plan") {
      t.self["planner"] += self[i];
    } else if (s.name == "execute") {
      t.self["scan"] += self[i];
    } else {  // decode | refine
      t.self["decode_refine"] += self[i];
      sink_ns += self[i];
      sink_rows += s.items;
    }
  }
  Totals all;
  for (const auto& [type, t] : by_type) {
    int64_t sum = 0;
    for (const auto& [layer, ns] : t.self) sum += ns;
    if (sum != t.wall) {
      report->Inconsistent("self times of " + type +
                           " do not sum to the traced wall time");
    }
    const double n = static_cast<double>(t.queries);
    report->Info("trace.wall_ms." + type, Ms(t.wall) / n);
    if (type == "topk") continue;
    for (const auto& [layer, ns] : t.self) {
      report->Info(layer + ".self_ms." + type, Ms(ns) / n);
      all.self[layer] += ns;
    }
    all.queries += t.queries;
    all.wall += t.wall;
  }
  if (all.queries == 0) {
    report->Inconsistent("no traced query splits into layers");
    return;
  }
  const double n = static_cast<double>(all.queries);
  for (const char* layer : kLayers) {
    report->Metric(std::string(layer) + ".self_ms_per_query",
                   Ms(all.self[layer]) / n, "ms");
  }
  report->Metric("trace.wall_ms_per_query", Ms(all.wall) / n, "ms");
  report->Metric("decode_refine.us_per_row", Ratio(sink_ns / 1e3, sink_rows),
                 "us");
}

int64_t SumLatencyNs(const std::map<QType, TypeLog>& logs) {
  double ms = 0;
  for (const auto& [type, log] : logs) {
    for (double v : log.times.wall_ms) ms += v;
  }
  return static_cast<int64_t>(ms * 1e6);
}

void AddOverheadMetric(int64_t untraced_ns, int64_t traced_ns,
                       Report* report) {
  report->Metric("trace.overhead_pct",
                 100.0 * Ratio(traced_ns - untraced_ns, untraced_ns), "%");
}

void WriteSpans(const RunConfig& config, const SpanLog& spans,
                Report* report) {
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".jsonl";
  if (spans.WriteJsonLines(path)) {
    report->Info("spans_file", path);
  } else {
    report->Inconsistent("cannot write " + path);
  }
}

void AddInputInfo(const tman::core::TManOptions& options, size_t trajectories,
                  size_t points, uint64_t dataset_bytes, Report* report) {
  report->Info("trajectories", static_cast<double>(trajectories));
  report->Info("points", static_cast<double>(points));
  report->Info("dataset_bytes", static_cast<double>(dataset_bytes));
  report->Info("block_cache_bytes_per_region",
               static_cast<double>(options.kv.block_cache_bytes));
  report->Info("primary_block_cache_bytes",
               static_cast<double>(options.kv.block_cache_bytes *
                                   options.num_shards));
  report->Info("regions_per_table", options.num_shards);
}

// Replays the per-trajectory encoders Insert runs (temporal and spatial
// index values, record encoding) outside the store, with one span per batch
// and stage.
class EncoderReplay {
 public:
  explicit EncoderReplay(const tman::core::TManOptions& options)
      : options_(options), tr_(options.tr), tshape_(options.tshape) {}

  void Run(const std::vector<Trajectory>& data, size_t begin, size_t end,
           uint32_t batch_id, SpanLog* spans, Report* report) {
    uint64_t produced = 0;
    const int32_t index_span = spans->Begin("ingest.index", -1, batch_id);
    for (size_t i = begin; i < end; i++) {
      const Trajectory& t = data[i];
      produced += tr_.Encode(t.start_time(), t.end_time());
      norm_.clear();
      for (const auto& p : t.points) {
        const tman::geo::Point np =
            options_.bounds.Normalize(tman::geo::Point{p.x, p.y});
        norm_.push_back(tman::geo::TimedPoint{np.x, np.y, p.t});
      }
      produced += tshape_.Encode(norm_).quad_code;
    }
    spans->End(index_span);
    const int32_t encode_span = spans->Begin("ingest.encode", -1, batch_id);
    for (size_t i = begin; i < end; i++) {
      value_.clear();
      if (!tman::core::EncodeRecord(data[i], options_.max_dp_features,
                                    &value_)) {
        report->Failed("EncodeRecord failed for " + data[i].tid);
      }
      produced += value_.size();
    }
    spans->End(encode_span);
    if (produced == 0) report->Inconsistent("encoders produced nothing");
  }

 private:
  const tman::core::TManOptions options_;
  const tman::index::TRIndex tr_;
  const tman::index::TShapeIndex tshape_;
  std::vector<tman::geo::TimedPoint> norm_;
  std::string value_;
};

// Write-side metrics of the store as loaded so far: the encoder replay's
// spans in `spans`, the primary table's writes and TMan's storage counters.
void AddWriteMetrics(TMan* tman, size_t trajectories, size_t points,
                     const SpanLog& spans, Report* report) {
  const double trajs = static_cast<double>(trajectories);
  const tman::core::StorageStats storage = tman->GetStorageStats();
  int64_t index_ns = 0;
  int64_t encode_ns = 0;
  for (const Span& s : spans.spans()) {
    if (s.name == "ingest.index") index_ns += s.duration_ns();
    if (s.name == "ingest.encode") encode_ns += s.duration_ns();
  }
  report->Metric("ingest.index_us_per_traj", index_ns / 1e3 / trajs, "us");
  report->Metric("ingest.encode_us_per_traj", encode_ns / 1e3 / trajs, "us");
  report->Metric("cluster.writes_per_traj",
                 Snapshot(tman).region_writes / trajs, "count");
  report->Metric("reencode.count",
                 static_cast<double>(tman->reencode_count()), "count");
  report->Metric("reencode.rows_rewritten_per_traj",
                 tman->rows_rewritten() / trajs, "count");
  report->Metric("kvstore.flush_count",
                 static_cast<double>(storage.flush_count), "count");
  // User bytes: the raw (x, y, t) points written, 24 bytes each.
  report->Metric("kvstore.compaction_bytes_written_per_user_byte",
                 storage.compaction_bytes_written /
                     (points * 3.0 * sizeof(double)),
                 "B/B");
  report->Metric("kvstore.stall_count",
                 static_cast<double>(storage.stall_count), "count");
  report->Info("kvstore.stall_ms", storage.stall_micros / 1e3);
  report->Metric("kvstore.wal_syncs", static_cast<double>(storage.wal_syncs),
                 "count");
}

// ---------------------------------------------------------------------------
// range-cold and similarity-hot: a bulk-loaded store, then the workload's
// query types in rotation from one closed-loop client.

struct QueryWorkload {
  size_t trajectories;
  std::vector<QType> rotation;
};

// pool[round][slot] is the query of rotation slot `slot` in `round`.
std::vector<std::vector<Query>> MakeQueryPool(
    const std::vector<QType>& rotation, const std::vector<Trajectory>& data,
    uint64_t seed) {
  const tman::traj::DatasetSpec spec = tman::traj::TDriveLikeSpec();
  const auto trq = tman::traj::RandomTimeWindows(spec, kPoolRounds,
                                                 kTrqSeconds, seed + 1);
  const auto srq =
      tman::traj::RandomSpaceWindows(spec, kPoolRounds, kSrqMeters, seed + 2);
  const auto strq_space =
      tman::traj::RandomSpaceWindows(spec, kPoolRounds, kStrqMeters, seed + 3);
  const auto strq_time = tman::traj::RandomTimeWindows(spec, kPoolRounds,
                                                       kStrqSeconds, seed + 4);
  tman::Random rnd(seed + 5);
  // Similarity probes: a fresh data trajectory for every query.
  std::vector<size_t> perm(data.size());
  for (size_t i = 0; i < perm.size(); i++) perm[i] = i;
  for (size_t i = perm.size(); i > 1; i--) {
    std::swap(perm[i - 1], perm[rnd.Uniform(i)]);
  }
  size_t next_probe = 0;

  std::vector<std::vector<Query>> pool(kPoolRounds);
  for (size_t r = 0; r < kPoolRounds; r++) {
    for (QType type : rotation) {
      switch (type) {
        case QType::kTRQ:
          pool[r].push_back(MakeTRQ(trq[r]));
          break;
        case QType::kSRQ:
          pool[r].push_back(MakeSRQ(srq[r]));
          break;
        case QType::kSTRQ:
          pool[r].push_back(MakeSTRQ(strq_space[r], strq_time[r]));
          break;
        case QType::kIDT:
          pool[r].push_back(MakeIDT(data[rnd.Uniform(data.size())], &rnd));
          break;
        case QType::kThreshold:
        case QType::kTopK:
          pool[r].push_back(
              MakeSimilarity(type, &data[perm[next_probe++ % perm.size()]]));
          break;
      }
    }
  }
  return pool;
}

bool RunQueryWorkload(const QueryWorkload& w, const RunConfig& config,
                      Report* report) {
  const std::string dir = config.work_dir + "/store";
  const tman::traj::DatasetSpec spec = tman::traj::TDriveLikeSpec();
  std::vector<Trajectory> data;
  Store store;
  SetupTimes setup;
  const int reps = config.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; rep++) {
    ReleaseStore(dir, &store, &data);
    setup.Begin();
    data = tman::traj::Generate(spec, w.trajectories, config.seed);
    Status s = OpenStore(dir, &store);
    if (s.ok()) s = store.tman->BulkLoad(data);
    if (s.ok()) s = store.tman->Flush();
    if (s.ok()) s = store.tman->CompactAll();
    if (!s.ok()) {
      report->Failed("setup: " + s.ToString());
      return false;
    }
    setup.End();
  }
  TMan* tman = store.tman.get();
  const size_t n = data.size();
  const size_t points = CountPoints(data, n);
  const uint64_t dataset_bytes = tman->StorageBytes();
  AddInputInfo(tman->options(), n, points, dataset_bytes, report);

  SpanLog spans;
  if (config.trace) {
    // The encoders BulkLoad ran, replayed in batches as Insert would.
    EncoderReplay encoders(tman->options());
    for (size_t begin = 0; begin < n; begin += kBatch) {
      encoders.Run(data, begin, std::min(n, begin + kBatch),
                   static_cast<uint32_t>(begin / kBatch), &spans, report);
    }
    AddWriteMetrics(tman, n, points, spans, report);
  }

  const Oracle oracle(&data);
  const auto pool = MakeQueryPool(w.rotation, data, config.seed);
  std::vector<PendingCheck> checks;
  Runner runner(report, &checks);
  for (size_t r = 0; r < kWarmupRounds; r++) {
    for (const Query& q : pool[kPoolRounds - 1 - r]) {
      runner.Api(tman, q, n, nullptr);
    }
  }

  std::map<QType, TypeLog> logs;
  const Counters before = Snapshot(tman);
  const double budget = config.trace ? config.seconds / 2.0 : config.seconds;
  const size_t min_rounds = config.trace ? kMinTraceRounds : kMinSamples;
  const int64_t start = NowNs();
  size_t rounds = 0;
  while (true) {
    for (const Query& q : pool[rounds % kPoolRounds]) {
      runner.Api(tman, q, n, &logs[q.type]);
    }
    rounds++;
    const double elapsed = (NowNs() - start) / 1e9;
    if (elapsed >= budget && rounds >= min_rounds) break;
    if (SinceStart() > kHardLimitSeconds) break;
  }
  const Counters after = Snapshot(tman);
  report->Info("rounds", static_cast<double>(rounds));

  if (!config.trace) {
    setup.Report(report);
    AddLatencyMetrics(Latencies(logs), report);
    report->Metric("stored_bytes_per_point",
                   static_cast<double>(dataset_bytes) / points, "B/point");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Replay the same queries with spans around each layer's public call.
    int64_t traced_ns = 0;
    for (size_t r = 0; r < rounds; r++) {
      for (const Query& q : pool[r % kPoolRounds]) {
        traced_ns += runner.Traced(tman, q, n, &spans);
      }
    }
    const double queries = static_cast<double>(rounds * w.rotation.size());
    AddPlanCountMetrics(logs, report);
    AddReadCounterMetrics(Delta(after, before), queries, report);
    AddSelfTimeMetrics(spans, report);
    // The untraced side is the sum of the API calls the replay mirrors.
    AddOverheadMetric(SumLatencyNs(logs), traced_ns, report);
    WriteSpans(config, spans, report);
  }
  CheckAnswers(oracle, checks, report);
  store.Close();
  std::filesystem::remove_all(dir);
  return true;
}

// ---------------------------------------------------------------------------
// ingest-mixed: the trajectories fed to TMan::Insert in batches of 100 into
// an empty store, with one STRQ and one IDT after each batch.

constexpr size_t kIngestTrajectories = 20000;

bool RunIngestWorkload(const RunConfig& config, Report* report) {
  const std::string dir = config.work_dir + "/store";
  const tman::traj::DatasetSpec spec = tman::traj::TDriveLikeSpec();
  std::vector<Trajectory> data;
  Store store;
  SetupTimes setup;
  const int reps = config.trace ? 1 : kIngestSetupReps;
  for (int rep = 0; rep < reps; rep++) {
    ReleaseStore(dir, &store, &data);
    setup.Begin();
    data = tman::traj::Generate(spec, kIngestTrajectories, config.seed);
    const Status s = OpenStore(dir, &store);
    if (!s.ok()) {
      report->Failed("setup: " + s.ToString());
      return false;
    }
    setup.End();
  }
  const size_t n = data.size();
  const Oracle oracle(&data);
  const size_t batches = (n + kBatch - 1) / kBatch;
  const size_t pool = batches * kIngestMaxPasses;
  const auto strq_space =
      tman::traj::RandomSpaceWindows(spec, pool, kStrqMeters, config.seed + 3);
  const auto strq_time = tman::traj::RandomTimeWindows(
      spec, pool, kStrqSeconds, config.seed + 4);
  tman::Random rnd(config.seed + 5);

  std::vector<PendingCheck> checks;
  Runner runner(report, &checks);
  EncoderReplay encoders(store.tman->options());
  std::map<QType, TypeLog> logs;
  OpTimes inserts;
  int64_t insert_ns = 0;
  size_t inserted_total = 0;
  SpanLog spans;
  int64_t traced_ns = 0;
  Counters read_counters;  // around the traced run's API queries
  size_t api_queries = 0;
  size_t passes = 0;
  size_t query_index = 0;
  const int64_t start = NowNs();
  while (true) {
    if (passes > 0) {
      const Status s = OpenStore(dir, &store);
      if (!s.ok()) {
        report->Failed("open: " + s.ToString());
        return false;
      }
    }
    TMan* tman = store.tman.get();
    for (size_t b = 0; b < batches; b++) {
      const size_t begin = b * kBatch;
      const size_t end = std::min(n, begin + kBatch);
      const std::vector<Trajectory> batch(data.begin() + begin,
                                          data.begin() + end);
      if (config.trace) {
        encoders.Run(data, begin, end, static_cast<uint32_t>(b), &spans,
                     report);
      }
      const int32_t insert_span =
          config.trace ? spans.Begin("ingest.insert", -1, b) : -1;
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      const Status s = tman->Insert(batch);
      const int64_t t1 = NowNs();
      const int64_t cpu1 = ProcessCpuNs();
      if (insert_span >= 0) spans.End(insert_span);
      report->Attempted();
      if (!s.ok()) {
        report->Failed("insert: " + s.ToString());
        continue;
      }
      inserts.Add(t1 - t0, cpu1 - cpu0);
      insert_ns += t1 - t0;
      inserted_total += end - begin;

      const size_t k = query_index++ % pool;
      const Query queries[] = {
          MakeSTRQ(strq_space[k], strq_time[k]),
          MakeIDT(data[rnd.Uniform(end)], &rnd)};
      for (const Query& q : queries) {
        if (!config.trace) {
          runner.Api(tman, q, end, &logs[q.type]);
          continue;
        }
        // Alternate which side runs first so neither gets the warmer cache.
        if (b % 2 == 1) traced_ns += runner.Traced(tman, q, end, &spans);
        const Counters before = Snapshot(tman);
        runner.Api(tman, q, end, &logs[q.type]);
        AddTo(Delta(Snapshot(tman), before), &read_counters);
        api_queries++;
        if (b % 2 == 0) traced_ns += runner.Traced(tman, q, end, &spans);
      }
    }
    passes++;
    const double elapsed = (NowNs() - start) / 1e9;
    if (config.trace || passes >= kIngestMaxPasses ||
        elapsed >= config.seconds || SinceStart() > kHardLimitSeconds / 2) {
      break;
    }
  }
  TMan* tman = store.tman.get();
  report->Info("passes", static_cast<double>(passes));

  if (config.trace) {
    // Write-side counters of the (single) pass, before the final flush.
    AddWriteMetrics(tman, inserted_total, CountPoints(data, inserted_total),
                    spans, report);
    AddReadCounterMetrics(read_counters, static_cast<double>(api_queries),
                          report);
    AddPlanCountMetrics(logs, report);
    AddSelfTimeMetrics(spans, report);
    AddOverheadMetric(SumLatencyNs(logs), traced_ns, report);
    WriteSpans(config, spans, report);
  }

  Status s = tman->Flush();
  if (s.ok()) s = tman->CompactAll();
  if (!s.ok()) report->Failed("final flush/compact: " + s.ToString());
  const size_t points = CountPoints(data, n);
  const uint64_t stored = tman->StorageBytes();
  AddInputInfo(tman->options(), n, points, stored, report);
  if (!config.trace) {
    setup.Report(report);
    report->Info("ingest_traj_per_s", inserted_total / (insert_ns / 1e9));
    LatencyLog ops = Latencies(logs);
    ops["insert"] = inserts;  // per batch of kBatch trajectories
    AddLatencyMetrics(ops, report);
    report->Metric("stored_bytes_per_point",
                   static_cast<double>(stored) / points, "B/point");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  CheckAnswers(oracle, checks, report);
  store.Close();
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"range-cold",
                                                 "similarity-hot",
                                                 "ingest-mixed"};
  return names;
}

bool RunWorkload(const RunConfig& config, Report* report) {
  report->Info("workload", config.workload);
  report->Info("seed", static_cast<double>(config.seed));
  report->Info("seconds", config.seconds);
  report->Info("trace", config.trace ? 1 : 0);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  report->Info("nproc", nproc);
  report->Info("git_sha", config.git_sha);
  report->Info("source_sha256", config.source_sha256);
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
  report->Info("client", "one closed-loop thread");
  bool ok = false;
  if (config.workload == "range-cold") {
    ok = RunQueryWorkload(
        QueryWorkload{20000,
                      {QType::kTRQ, QType::kSRQ, QType::kSTRQ, QType::kIDT}},
        config, report);
  } else if (config.workload == "similarity-hot") {
    ok = RunQueryWorkload(
        QueryWorkload{2500, {QType::kThreshold, QType::kTopK}}, config,
        report);
  } else if (config.workload == "ingest-mixed") {
    ok = RunIngestWorkload(config, report);
  } else {
    report->Inconsistent("unknown workload " + config.workload);
  }
  report->Info("run_seconds", SinceStart());
  return ok;
}

}  // namespace perfbench
