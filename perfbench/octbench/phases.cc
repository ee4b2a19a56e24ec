#include "octbench/phases.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/existing_tree.h"
#include "cct/cct.h"
#include "core/scoring.h"
#include "core/similarity.h"
#include "ctcr/ctcr.h"
#include "data/catalog.h"
#include "data/datasets.h"
#include "data/preprocess.h"
#include "data/query_log.h"
#include "data/search_engine.h"
#include "delta/delta_builder.h"
#include "delta/delta_log.h"
#include "delta/maintainer.h"
#include "obs/metrics.h"
#include "router/route_index.h"
#include "router/router.h"
#include "serve/tree_store.h"
#include "store/version_log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace octbench {
namespace {

using namespace oct;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Score epsilon of the delta equivalence check (the value the repository's
/// delta_rebuild bench gates on).
constexpr double kEquivalenceEpsilon = 0.05;
/// Every this-many route requests is checked against RouteSerial.
constexpr size_t kOracleStride = 8;
/// Requests timed one by one for the serial and search ledgers.
constexpr size_t kLedgerSample = 2000;
/// Thread shape, the same for every workload: CTCR, CCT and the delta
/// builder each get a 2-thread pool, the router 2 workers, the closed loop
/// 2 clients. Callers block while their pool works and clients while a
/// worker routes, so runnable threads stay at or below 4.
constexpr size_t kPoolThreads = 2;
constexpr size_t kRouterWorkers = 2;
constexpr size_t kClients = 2;
constexpr double kScale = 0.08;
constexpr size_t kSetupReps = 15;
constexpr size_t kDistinctQueries = 600;
constexpr size_t kOpsPerPump = 4;
/// ReferenceLoopMs() on the reference host: a 4-core Xeon KVM guest at
/// 2.0 GHz, in its faster state.
constexpr double kReferenceMs = 4.5;
/// Host reference readings taken at each idle point of a run, and the
/// cores the parallel reading runs on (nproc on the reference host).
constexpr size_t kReadingsPerPoint = 2;
constexpr size_t kHostThreads = 4;

/// Operation accounting: every operation counts as attempted; a failed one
/// (error, shed, degraded answer, oracle mismatch) also counts as failed
/// and makes the run incorrect.
class OpTally {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "octbench: FAIL %s\n", why.c_str());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Everything a workload generates before timing starts: the catalog and
/// search engine, the raw query log, and the route query streams.
struct Bed {
  std::unique_ptr<data::Catalog> catalog;
  std::unique_ptr<data::SearchEngine> engine;
  CategoryTree existing;
  std::vector<data::LoggedQuery> raw_log;
  data::PreprocessOptions pre;
  /// Distinct route queries, most popular first.
  std::vector<data::Query> queries;
  /// Indices into `queries`, in send order.
  std::vector<uint32_t> stream;
};

/// Requests churn-B's reader sends while one churn slice runs.
size_t ReaderRequestsPerCycle(const WorkloadSpec& spec) {
  return static_cast<size_t>(spec.reader_rps *
                             static_cast<double>(spec.pumps_per_cycle) *
                             spec.pump_period_ms / 1e3);
}

/// `n` query indices in proportion to `weights` (largest remainder), so a
/// stream's mix is exact rather than sampled.
std::vector<uint32_t> Apportion(const std::vector<double>& weights, size_t n) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<uint32_t> out;
  std::vector<std::pair<double, uint32_t>> remainders;
  for (uint32_t k = 0; k < weights.size(); ++k) {
    const double share = weights[k] / total * static_cast<double>(n);
    const size_t whole = static_cast<size_t>(share);
    out.insert(out.end(), whole, k);
    remainders.emplace_back(share - static_cast<double>(whole), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; out.size() < n && i < remainders.size(); ++i) {
    out.push_back(remainders[i].second);
  }
  return out;
}

/// Mirrors data::TryMakeDataset up to (not including) preprocessing, which
/// the build slices time. The dataset and the route query mix are fixed by
/// the workload; the seed sets the order the route stream is sent in.
std::unique_ptr<Bed> SetUp(const WorkloadSpec& spec, const Similarity& sim,
                           uint64_t seed) {
  auto bed = std::make_unique<Bed>();
  const data::DatasetSpec ds = data::SpecFor(spec.dataset);
  const auto scaled = [&](size_t n, size_t floor) {
    return std::max<size_t>(
        floor, static_cast<size_t>(static_cast<double>(n) * kScale));
  };
  const size_t num_items = scaled(ds.num_items, 2'000);
  const size_t raw_queries = scaled(ds.num_raw_queries, 150);

  bed->catalog = std::make_unique<data::Catalog>(data::Catalog::Generate(
      ds.electronics ? data::ElectronicsSchema() : data::FashionSchema(),
      num_items, ds.seed));
  data::SearchOptions search;
  search.seed = ds.seed * 31 + 7;
  search.top_k = std::clamp<size_t>(num_items / 60, 60, 800);
  bed->engine = std::make_unique<data::SearchEngine>(bed->catalog.get(), search);
  bed->existing = baselines::BuildExistingTree(*bed->catalog);

  data::QueryLogOptions log;
  log.num_queries = raw_queries;
  log.seed = ds.seed * 131 + 17;
  log.top_query_daily = std::max(1'000.0, 2.5 * static_cast<double>(raw_queries));
  bed->raw_log = data::GenerateQueryLog(*bed->catalog, log);

  bed->pre.relevance_threshold = data::DefaultRelevanceThreshold(sim.variant());
  bed->pre.uniform_weights = ds.uniform_weights;

  // The route queries are fixed by the dataset; the seed only sets the
  // order they are sent in, so every seed routes the same request mix.
  data::QueryLogOptions route_log;
  route_log.num_queries = kDistinctQueries;
  route_log.seed = ds.seed * 1009 + 20240806;
  std::vector<data::LoggedQuery> logged =
      data::GenerateQueryLog(*bed->catalog, route_log);
  std::stable_sort(logged.begin(), logged.end(),
                   [](const data::LoggedQuery& a, const data::LoggedQuery& b) {
                     return a.AverageDaily() > b.AverageDaily();
                   });
  for (data::LoggedQuery& entry : logged) {
    bed->queries.push_back(std::move(entry.query));
  }

  std::vector<double> weights(bed->queries.size(), 1.0);
  size_t n = 0;
  if (spec.reader_rps > 0.0) {
    // Uniform mix: head-query caching and batch dedup cannot help.
    n = ReaderRequestsPerCycle(spec) * spec.cycles;
  } else {
    const ZipfSampler zipf(bed->queries.size(), route_log.zipf_exponent);
    for (size_t k = 0; k < weights.size(); ++k) weights[k] = zipf.Pmf(k);
    n = spec.cycles * spec.routes_per_cycle;
  }
  bed->stream = Apportion(weights, n);
  Rng draw(seed ^ 0x5bd1e995u);
  draw.Shuffle(&bed->stream);
  return bed;
}

bool SameRanking(const router::RouteResult& a, const router::RouteResult& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].node != b.ranked[i].node ||
        a.ranked[i].jaccard != b.ranked[i].jaccard ||
        a.ranked[i].path != b.ranked[i].path) {
      return false;
    }
  }
  return true;
}

/// One timed route as the client saw it.
struct RouteSample {
  double total_us = 0.0;
  bool answered = false;
  bool ok = false;
  /// The ledger phases that make up total_us (the traced run reports them).
  double late_us = 0.0;     // open loop: send time - due time
  double queue_us = 0.0;    // RouteResult::queue_seconds
  double resolve_us = 0.0;  // RouteResult::resolve_seconds
  double score_us = 0.0;    // RouteResult::score_seconds
};

/// Tail-churn generator. Ops follow a fixed pattern of 3 new long-tail
/// queries over freshly listed items (every third shares items with the
/// previous one, forming small components), 4 re-weights of earlier tail
/// queries and 3 removals, so the tail neither grows nor shrinks and every
/// seed does the same amount of work. The seed picks which queries are
/// re-weighted or removed, and the weights.
class TailChurn {
 public:
  struct Op {
    bool remove = false;
    std::string label;
    CandidateSet set;
  };

  TailChurn(size_t universe, uint64_t seed)
      : next_item_(static_cast<ItemId>(universe)), rng_(seed) {}

  std::vector<Op> Next(size_t n) {
    static constexpr char kPattern[] = "NRXNRXNRXR";
    std::vector<Op> ops;
    std::unordered_set<std::string> touched;  // One op per query per pump.
    for (size_t i = 0; i < n; ++i) {
      const char kind = kPattern[step_++ % (sizeof(kPattern) - 1)];
      Op op;
      size_t pick = live_.size();
      if (kind != 'N' && !live_.empty()) {
        pick = rng_.NextBelow(live_.size());
        if (!touched.insert(live_[pick].label).second) pick = live_.size();
      }
      if (pick == live_.size()) {
        op = NewQuery();
      } else if (kind == 'X') {
        op.remove = true;
        op.label = live_[pick].label;
        live_[pick] = std::move(live_.back());
        live_.pop_back();
      } else {
        CandidateSet& set = live_[pick];
        set.weight += 0.1 + 0.01 * static_cast<double>(rng_.NextBelow(10));
        std::vector<ItemId> items(set.items.begin(), set.items.end());
        items.push_back(next_item_++);
        set.items = ItemSet(std::move(items));
        op.label = set.label;
        op.set = set;
      }
      touched.insert(op.label);
      ops.push_back(std::move(op));
    }
    return ops;
  }

 private:
  Op NewQuery() {
    std::vector<ItemId> items;
    if (++created_ % 3 == 0 && !last_block_.empty()) {
      items.assign(last_block_.begin(),
                   last_block_.begin() +
                       std::min<size_t>(3, last_block_.size()));
    }
    const size_t size = 6 + created_ % 8;
    while (items.size() < size) items.push_back(next_item_++);
    last_block_ = items;
    CandidateSet set;
    set.items = ItemSet(std::move(items));
    set.weight = 1.0 + 0.01 * static_cast<double>(rng_.NextBelow(50));
    set.label = "tail#" + std::to_string(created_);
    live_.push_back(set);
    Op op;
    op.label = set.label;
    op.set = std::move(set);
    return op;
  }

  ItemId next_item_;
  Rng rng_;
  size_t step_ = 0;
  size_t created_ = 0;
  std::vector<ItemId> last_block_;
  std::vector<CandidateSet> live_;
};

void Push(const std::vector<TailChurn::Op>& ops, delta::DeltaLog* log) {
  for (const TailChurn::Op& op : ops) {
    const uint64_t key = delta::DeltaLog::KeyForLabel(op.label);
    if (op.remove) {
      log->RemoveQuery(key);
    } else {
      log->UpsertQuery(key, op.set);
    }
  }
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// The churn's durable serving stack: a VersionLog, the TreeStore whose
/// WarmStart hook commits every publish to it, and the DeltaMaintainer
/// publishing there. The store retains `retain` versions, so the reader's
/// answers can be checked against the version they were routed on.
struct ChurnStack {
  explicit ChurnStack(size_t retain) : store(retain) {}
  std::unique_ptr<store::VersionLog> log;
  serve::TreeStore store;
  std::unique_ptr<delta::DeltaMaintainer> maintainer;
  std::unique_ptr<router::Router> reader;  // Open-loop workloads only.
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, uint64_t seed, bool trace,
              std::string workdir)
      : spec_(spec),
        seed_(seed),
        trace_(trace),
        workdir_(std::move(workdir)),
        sim_(Variant::kJaccardThreshold, 0.8),
        build_pool_(kPoolThreads),
        delta_pool_(kPoolThreads) {}

  RunOutcome Run() {
    SampleHost();
    Timed("setup", [&] { SetUpPhase(); });
    for (size_t cycle = 0; cycle < spec_.cycles; ++cycle) {
      Timed("build", [&] { BuildSlice(); });
      if (cycle == 0) {
        const auto start = Clock::now();
        Timed("churn", [&] { StartChurn(); });
        churn_start_s_ = Seconds(start, Clock::now());
      }
      if (spec_.reader_rps <= 0.0) Timed("route", [&] { RouteSlice(cycle); });
      Timed("churn", [&] { ChurnSlice(cycle); });
    }
    Timed("churn", [&] { FinishChurn(); });
    if (trace_) Timed("route", [&] { RouteLedger(); });
    Timed("recover", [&] { RecoverPhase(); });
    for (const auto& [name, seconds] : phase_s_) {
      std::fprintf(stderr, "octbench: %s %.3f s\n", name.c_str(), seconds);
    }
    return Finish();
  }

 private:
  /// Runs one phase, then samples the host while the run is idle.
  template <typename Fn>
  void Timed(const std::string& phase, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    phase_s_[phase] += Seconds(start, Clock::now());
    SampleHost();
    par_ref_ms_.push_back(ParallelReferenceMs(kHostThreads));
  }

  /// Host reference readings, taken on this thread at fixed points of the
  /// run where no benchmark work runs (router workers, pools and the reader
  /// are idle), so the program neither competes with the loop nor decides
  /// how many readings there are. After each phase, Timed() also runs the
  /// loop on every core at once: the slowest of those shows when other
  /// processes compete for the cores, which one loop on an idle core can
  /// miss. That reading is a diagnostic and scales nothing.
  void SampleHost() {
    for (size_t i = 0; i < kReadingsPerPoint; ++i) {
      ref_ms_.push_back(ReferenceLoopMs());
    }
  }

  /// The untraced run reports the end-to-end metrics, the traced run the
  /// per-layer ones.
  void E2e(const std::string& name, double value, const std::string& unit) {
    if (!trace_) out_.metrics[name] = Metric{value, unit};
  }
  /// End-to-end times and rates are reported at the reference host speed:
  /// scaled by kReferenceMs over this run's median reference time. The
  /// unscaled value goes on the report's `raw:` line.
  void E2eTime(const std::string& name, double raw, const std::string& unit) {
    E2e(name, raw / host_slowdown_, unit);
    raw_ += " " + name + "=" + std::to_string(raw);
  }
  void E2eRate(const std::string& name, double raw, const std::string& unit) {
    E2e(name, raw * host_slowdown_, unit);
    raw_ += " " + name + "=" + std::to_string(raw);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (trace_) out_.metrics[name] = Metric{value, unit};
  }

  void SetUpPhase() {
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      bed_.reset();  // Each set-up starts from nothing.
      const auto start = Clock::now();
      bed_ = SetUp(spec_, sim_, seed_);
      setup_s_.push_back(Seconds(start, Clock::now()));
    }
  }

  /// Build slice: raw log -> preprocessed input -> CTCR -> publish, then
  /// CCT on the same input. Checks run outside the timed spans.
  void BuildSlice() {
    obs::Counter* visited =
        obs::MetricsRegistry::Default()->GetCounter("kernel.pairs_visited");
    obs::Counter* pruned =
        obs::MetricsRegistry::Default()->GetCounter("kernel.pairs_pruned");
    ctcr::CtcrOptions ctcr_options;
    ctcr_options.pool = &build_pool_;
    for (size_t round = 0; round < spec_.builds_per_cycle; ++round) {
      ops_.Attempt();
      const uint64_t visited0 = visited->Value();
      const uint64_t pruned0 = pruned->Value();
      const auto t0 = Clock::now();
      data::PreprocessStats stats;
      OctInput input = data::BuildOctInput(*bed_->engine, bed_->raw_log,
                                           bed_->existing, sim_, bed_->pre,
                                           &stats);
      const auto t1 = Clock::now();
      ctcr::CtcrResult ctcr =
          ctcr::BuildCategoryTree(input, sim_, ctcr_options);
      const auto t2 = Clock::now();
      const Status ctcr_status = ctcr.status;
      const std::shared_ptr<const serve::TreeSnapshot> snap =
          store_.Publish(std::move(ctcr.tree), "build");
      const auto t3 = Clock::now();

      build_s_.push_back(Seconds(t0, t3));
      preprocess_s_.push_back(Seconds(t0, t1));
      conflicts_s_.push_back(ctcr.seconds_conflicts);
      mis_s_.push_back(ctcr.seconds_mis);
      construct_s_.push_back(ctcr.seconds_build);
      publish_s_.push_back(Seconds(t2, t3));
      const Status valid = ctcr_status.ok() ? snap->tree().ValidateModel(input)
                                            : ctcr_status;
      if (!valid.ok()) ops_.Fail("ctcr build: " + valid.ToString());
      const double score =
          ScoreTree(input, snap->tree(), sim_, &build_pool_).normalized;
      if (build_s_.size() == 1) {
        ctcr_score_ = score;
        raw_queries_ = stats.raw_queries;
        pairs_visited_ = visited->Value() - visited0;
        pairs_pruned_ = pruned->Value() - pruned0;
      } else if (score != ctcr_score_) {
        ops_.Fail("CTCR build is not deterministic across rounds");
      }
      SampleHost();
      for (size_t rep = 0; rep < spec_.ccts_per_build; ++rep) {
        BuildCct(input);
      }
      input_ = std::move(input);
    }
  }

  void BuildCct(const OctInput& input) {
    ops_.Attempt();
    cct::CctOptions options;
    options.pool = &build_pool_;
    const auto start = Clock::now();
    const cct::CctResult cct = cct::BuildCategoryTree(input, sim_, options);
    cct_s_.push_back(Seconds(start, Clock::now()));
    embed_s_.push_back(cct.seconds_embed);
    cluster_s_.push_back(cct.seconds_cluster);
    assign_s_.push_back(cct.seconds_assign);
    const Status valid =
        cct.status.ok() ? cct.tree.ValidateModel(input) : cct.status;
    if (!valid.ok()) ops_.Fail("cct build: " + valid.ToString());
    const double score =
        ScoreTree(input, cct.tree, sim_, &build_pool_).normalized;
    if (cct_s_.size() == 1) {
      cct_score_ = score;
    } else if (score != cct_score_) {
      ops_.Fail("CCT build is not deterministic across rounds");
    }
    SampleHost();
  }

  router::RouterOptions RouterOpts() const {
    router::RouterOptions options;
    options.num_workers = kRouterWorkers;
    return options;
  }

  router::RouteRequest RequestFor(size_t i) const {
    router::RouteRequest request;
    request.query = bed_->queries[bed_->stream[i]];
    return request;
  }

  /// One route timed from `due` (its send time in a closed loop) to
  /// `answered`. The ledger phases are durations the router already
  /// returns, so traced and untraced runs route alike.
  static RouteSample Sample(Clock::time_point due, Clock::time_point sent,
                            Clock::time_point answered,
                            const router::RouteResult& result) {
    RouteSample sample;
    sample.total_us = Seconds(due, answered) * 1e6;
    sample.ok = result.status.ok() && !result.shed && !result.degraded;
    sample.answered = sample.ok && !result.ranked.empty();
    sample.late_us = Seconds(due, sent) * 1e6;
    sample.queue_us = result.queue_seconds * 1e6;
    sample.resolve_us = result.resolve_seconds * 1e6;
    sample.score_us = result.score_seconds * 1e6;
    return sample;
  }

  /// The open-loop reader's share of one churn slice, run on its own
  /// thread from `start`. Request k is sent through Router::Submit at its
  /// due time without waiting for earlier answers, as an open-loop client
  /// does, so a slow answer does not hold back the requests after it. Every
  /// kOracleStride-th answer is kept for the RouteSerial check. Returns
  /// when every answer has arrived; `finished` is the last one's time.
  void ReadOpenLoop(size_t cycle, Clock::time_point start,
                    std::vector<RouteSample>* samples,
                    std::vector<std::pair<size_t, router::RouteResult>>* kept,
                    Clock::time_point* finished) {
    struct Answers {
      std::mutex mu;
      std::condition_variable cv;
      std::vector<RouteSample> samples;
      std::vector<std::pair<size_t, router::RouteResult>> kept;
      size_t outstanding = 0;
      Clock::time_point last;
    };
    const size_t n = ReaderRequestsPerCycle(spec_);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / spec_.reader_rps));
    // Shared with the callbacks, which run on router workers and may
    // finish after this function stops waiting for them.
    auto answers = std::make_shared<Answers>();
    answers->samples.resize(n);
    answers->outstanding = n;
    const auto deliver = [answers](size_t k, size_t i, Clock::time_point due,
                                   Clock::time_point sent,
                                   router::RouteResult result) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(answers->mu);
      answers->samples[k] = Sample(due, sent, now, result);
      if (i % kOracleStride == 0) answers->kept.emplace_back(i, std::move(result));
      answers->last = std::max(answers->last, now);
      if (--answers->outstanding == 0) answers->cv.notify_all();
    };
    for (size_t k = 0; k < n; ++k) {
      const size_t i = cycle * n + k;
      const auto due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      const Status admitted = churn_->reader->Submit(
          RequestFor(i), [deliver, k, i, due, sent](router::RouteResult r) {
            deliver(k, i, due, sent, std::move(r));
          });
      if (!admitted.ok()) {
        router::RouteResult shed;
        shed.status = admitted;
        shed.shed = true;
        deliver(k, i, due, sent, std::move(shed));
      }
    }
    std::unique_lock<std::mutex> lock(answers->mu);
    answers->cv.wait(lock, [&] { return answers->outstanding == 0; });
    *samples = std::move(answers->samples);
    *kept = std::move(answers->kept);
    *finished = answers->last;
  }

  /// Checks kept answers of `router` (stream index, answer) against
  /// RouteSerial on the same router.
  void CheckAnswers(
      const router::Router& router,
      const std::vector<std::pair<size_t, router::RouteResult>>& kept) {
    for (const auto& [i, got] : kept) {
      if (!SameRanking(got, router.RouteSerial(RequestFor(i)))) {
        ops_.Fail("Router::Route differs from RouteSerial on request " +
                  std::to_string(i));
      }
    }
  }

  void RecordRoutes(const std::vector<RouteSample>& samples) {
    for (const RouteSample& s : samples) {
      ops_.Attempt();
      if (!s.ok) ops_.Fail("route request shed, degraded or errored");
      routes_.push_back(s);
    }
  }

  void RecordRouterStats(const router::Router& router) {
    const router::RouterStatsSnapshot s = router.stats().Snapshot();
    batches_ += s.batches;
    admitted_ += s.requests;
    shed_ += s.TotalShed();
    degraded_ += s.degraded;
  }

  /// Closed-loop route slice: the clients split this cycle's share of the
  /// stream; every kOracleStride-th answer is checked against RouteSerial.
  void RouteSlice(size_t cycle) {
    if (router_ == nullptr) {
      router_ = std::make_unique<router::Router>(&store_, bed_->engine.get(),
                                                 RouterOpts());
      router_->Start();
    }
    router_->CurrentIndex();  // The build slice published; index untimed.
    const size_t per_cycle = spec_.routes_per_cycle;
    const size_t base = cycle * per_cycle;
    std::vector<std::vector<RouteSample>> samples(kClients);
    std::vector<std::vector<std::pair<size_t, router::RouteResult>>> kept(
        kClients);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t j = c; j < per_cycle; j += kClients) {
          const size_t i = base + j;
          const auto sent = Clock::now();
          router::RouteResult result = router_->Route(RequestFor(i));
          samples[c].push_back(Sample(sent, sent, Clock::now(), result));
          if (i % kOracleStride == 0) kept[c].emplace_back(i, std::move(result));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    route_seconds_ += Seconds(start, Clock::now());
    routed_ += per_cycle;
    for (size_t c = 0; c < kClients; ++c) {
      RecordRoutes(samples[c]);
      CheckAnswers(*router_, kept[c]);
    }
    if (cycle + 1 == spec_.cycles) {
      RecordRouterStats(*router_);
      router_->Stop();
    }
  }

  /// Opens the version log, warm-starts the churn's TreeStore from it and
  /// seeds the maintainer with the build's input (head and initial tail).
  void StartChurn() {
    namespace fs = std::filesystem;
    log_dir_ = workdir_ + "/version-log";
    fs::remove_all(log_dir_);
    // The reader's answers are checked after each slice against the version
    // they were routed on, so the store keeps every version of a slice.
    churn_ = std::make_unique<ChurnStack>(
        spec_.reader_rps > 0.0 ? spec_.pumps_per_cycle + 2 : 4);
    auto opened = store::VersionLog::Open(log_dir_);
    if (!opened.ok()) {
      ops_.Fail("VersionLog::Open: " + opened.status().ToString());
      std::exit(1);
    }
    churn_->log = std::move(opened).value();
    const auto ws = store::WarmStart(churn_->log.get(), &churn_->store);
    if (!ws.ok()) {
      ops_.Fail("WarmStart: " + ws.status().ToString());
      std::exit(1);
    }
    if (trace_) {
      // WarmStart's hook, with the commit timed: the same Commit call and
      // version base, plus the publish's index build read off the snapshot.
      const store::WarmStartReport& report = ws.value();
      const uint64_t base =
          report.log_version > report.published_version
              ? report.log_version - report.published_version
              : 0;
      store::VersionLog* log = churn_->log.get();
      churn_->store.SetPublishHook(
          [this, log, base](const serve::TreeSnapshot& snap) {
            hook_entered_ = Clock::now();
            const Status s =
                log->Commit(snap.tree(), snap.version() + base, snap.note());
            commit_ms_.push_back(Seconds(hook_entered_, Clock::now()) * 1e3);
            snapshot_ms_.push_back(snap.build_seconds() * 1e3);
            if (!s.ok()) ops_.Fail("VersionLog::Commit: " + s.ToString());
          });
    }
    builder_options_.pool = &delta_pool_;
    builder_options_.universe_floor = input_.universe_size();
    delta::DeltaMaintainerOptions options;
    options.builder = builder_options_;
    churn_->maintainer = std::make_unique<delta::DeltaMaintainer>(
        &churn_->store, nullptr, sim_, options);
    std::vector<TailChurn::Op> seed;
    for (SetId q = 0; q < input_.num_sets(); ++q) {
      TailChurn::Op op;
      op.label = "seed#" + std::to_string(q);
      op.set = input_.set(q);
      seed.push_back(std::move(op));
    }
    ops_.Attempt();
    Push(seed, &churn_->maintainer->log());
    if (!Pumped(churn_->maintainer->PumpOnce())) ops_.Fail("seed pump");
    history_.push_back(std::move(seed));
    // The seed is set-up, not a delta: keep it out of the ledger.
    commit_ms_.clear();
    snapshot_ms_.clear();
    if (spec_.reader_rps > 0.0) {
      churn_->reader = std::make_unique<router::Router>(
          &churn_->store, bed_->engine.get(), RouterOpts());
      churn_->reader->Start();
    }
    tail_ = std::make_unique<TailChurn>(input_.universe_size(),
                                        seed_ * 7919 + 3);
  }

  static bool Pumped(const Result<serve::TreeVersion>& published) {
    return published.ok() && published.value() > 0;
  }

  /// Churn slice: tail-churn pumps, each timed from its due time; beside
  /// them, in open-loop workloads, the reader's share of the stream.
  void ChurnSlice(size_t cycle) {
    const auto start = Clock::now();
    std::thread reader;
    std::vector<RouteSample> reader_samples;
    std::vector<std::pair<size_t, router::RouteResult>> kept;
    Clock::time_point reader_done;
    if (churn_->reader != nullptr) {
      reader = std::thread([&] {
        ReadOpenLoop(cycle, start, &reader_samples, &kept, &reader_done);
      });
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(spec_.pump_period_ms));
    delta::DeltaMaintainer& maintainer = *churn_->maintainer;
    for (size_t p = 0; p < spec_.pumps_per_cycle; ++p) {
      history_.push_back(tail_->Next(kOpsPerPump));
      const auto due = spec_.pump_period_ms > 0.0
                           ? start + period * static_cast<int64_t>(p)
                           : Clock::now();
      std::this_thread::sleep_until(due);
      ops_.Attempt();
      Push(history_.back(), &maintainer.log());
      const auto called = Clock::now();
      const size_t commits = commit_ms_.size();
      const bool ok = Pumped(maintainer.PumpOnce());
      const auto done = Clock::now();
      if (!ok) ops_.Fail("pump " + std::to_string(history_.size() - 1));
      publish_ms_.push_back(Seconds(due, done) * 1e3);
      if (trace_ && ok && commit_ms_.size() > commits) {
        LedgerPump(Seconds(due, called) * 1e3,
                   Seconds(called, hook_entered_) * 1e3,
                   Seconds(due, done) * 1e3, maintainer.last_outcome());
      }
    }
    if (reader.joinable()) {
      reader.join();
      route_seconds_ += Seconds(start, reader_done);
      routed_ += reader_samples.size();
      RecordRoutes(reader_samples);
      CheckReaderAnswers(kept);
    }
  }

  /// The traced pump's ledger. `ingest_ms` is due time -> PumpOnce call
  /// (scheduling lateness plus the DeltaLog pushes), `to_hook_ms` PumpOnce
  /// call -> publish hook, `total_ms` the whole timed pump. The phases the
  /// coverage sums are timed independently: ingest, the apply phases
  /// DeltaApplyOutcome reports, the snapshot's index build and the commit.
  void LedgerPump(double ingest_ms, double to_hook_ms, double total_ms,
                  const delta::DeltaApplyOutcome& o) {
    const double snapshot_ms = snapshot_ms_.back();
    ingest_ms_.push_back(ingest_ms);
    apply_ms_.push_back(to_hook_ms - snapshot_ms);
    pump_total_ms_.push_back(total_ms);
    impact_ms_.push_back(o.seconds_impact * 1e3);
    rebuild_ms_.push_back(o.seconds_rebuild * 1e3);
    splice_ms_.push_back(o.seconds_splice * 1e3);
    pump_phases_ms_.push_back(ingest_ms + (o.seconds_impact + o.seconds_rebuild +
                                           o.seconds_splice) * 1e3 +
                              snapshot_ms + commit_ms_.back());
    sets_rebuilt_ += o.sets_rebuilt;
    dirty_components_ += o.dirty_components;
  }

  /// Checks every kept reader answer against RouteSerial on the version it
  /// was routed on: a router over a store holding a copy of that version.
  void CheckReaderAnswers(
      const std::vector<std::pair<size_t, router::RouteResult>>& kept) {
    std::map<serve::TreeVersion,
             std::vector<std::pair<size_t, router::RouteResult>>>
        by_version;
    for (const auto& entry : kept) {
      by_version[entry.second.version].push_back(entry);
    }
    for (const auto& [version, answers] : by_version) {
      const auto snap = churn_->store.Version(version);
      if (snap == nullptr) {
        ops_.Fail("reader answer on version " + std::to_string(version) +
                  ", no longer retained");
        continue;
      }
      serve::TreeStore oracle_store;
      oracle_store.Publish(CategoryTree(snap->tree()), "oracle");
      const router::Router oracle(&oracle_store, bed_->engine.get(),
                                  RouterOpts());
      CheckAnswers(oracle, answers);
    }
  }

  /// Closes the churn: verifies its last tree, records the log's shape and
  /// closes the log so the recoveries open it cold.
  void FinishChurn() {
    if (churn_->reader != nullptr) {
      RecordRouterStats(*churn_->reader);
      churn_->reader->Stop();
    }
    const CategoryTree& last = churn_->store.Current()->tree();
    last_canon_ = delta::DeltaBuilder::CanonicalTreeString(last);
    if (spec_.verify_delta) VerifyChurn(last);
    const std::vector<store::LogEntry> lineage = churn_->log->Lineage();
    log_entries_ = lineage.size();
    uint64_t bytes = 0;
    for (const store::LogEntry& entry : lineage) bytes += entry.bytes;
    bytes_per_commit_ =
        lineage.empty() ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(lineage.size());
    churn_.reset();
  }

  /// Replays every pump's ops into a fresh DeltaBuilder: its final tree
  /// must equal the last published one and pass VerifyEquivalence.
  void VerifyChurn(const CategoryTree& published) {
    ops_.Attempt();
    delta::DeltaLog log;
    delta::DeltaBuilder verifier(sim_, builder_options_);
    CategoryTree last;
    for (const auto& ops : history_) {
      Push(ops, &log);
      auto outcome = verifier.ApplyBatch(log.DrainBatch());
      if (!outcome.ok()) {
        ops_.Fail("replay: " + outcome.status().ToString());
        return;
      }
      last = std::move(outcome.value().tree);
    }
    if (delta::DeltaBuilder::CanonicalTreeString(last) != last_canon_) {
      ops_.Fail("replayed delta tree differs from the published one");
    }
    const Status verified =
        verifier.VerifyEquivalence(published, kEquivalenceEpsilon);
    if (!verified.ok()) ops_.Fail(verified.ToString());
  }

  /// Serial, search and index-build ledgers, timed one call at a time.
  void RouteLedger() {
    const router::Router router(&store_, bed_->engine.get(), RouterOpts());
    const size_t n = std::min(kLedgerSample, bed_->stream.size());
    std::vector<double> search_us, serial_us, index_ms;
    for (size_t i = 0; i < n; ++i) {
      const data::Query& query = bed_->queries[bed_->stream[i]];
      const auto t0 = Clock::now();
      const auto hits = bed_->engine->Search(query);
      const auto t1 = Clock::now();
      router::RouteRequest request;
      request.query = query;
      router.RouteSerial(request);
      const auto t2 = Clock::now();
      search_us.push_back(Seconds(t0, t1) * 1e6);
      serial_us.push_back(Seconds(t1, t2) * 1e6);
      if (hits.size() > bed_->catalog->num_items()) {
        ops_.Fail("search returned more hits than items");
      }
    }
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      router::RouteIndex::Build(store_.Current(), RouterOpts().index_options);
      index_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    Layer("data.search_us_p50", Median(search_us), "us");
    Layer("router.serial_us_p50", Median(serial_us), "us");
    Layer("router.index_build_ms", Median(index_ms), "ms");
  }

  /// Cold recovery from the churn's log: open, warm start, and route until
  /// the first answer. The recovered tree must equal the last published.
  void RecoverPhase() {
    for (size_t rep = 0; rep < spec_.recover_reps; ++rep) {
      ops_.Attempt();
      const auto t0 = Clock::now();
      auto opened = store::VersionLog::Open(log_dir_);
      if (!opened.ok()) {
        ops_.Fail("recover open: " + opened.status().ToString());
        continue;
      }
      const std::unique_ptr<store::VersionLog> log = std::move(opened).value();
      const auto t1 = Clock::now();
      serve::TreeStore store;
      const auto warm = store::WarmStart(log.get(), &store);
      const auto t2 = Clock::now();
      if (!warm.ok() || warm.value().published_version == 0) {
        ops_.Fail("recover warm start");
        continue;
      }
      router::Router router(&store, bed_->engine.get(), RouterOpts());
      router.Start();
      bool answered = false;
      for (size_t i = 0; i < bed_->stream.size() && i < 100 && !answered;
           ++i) {
        const router::RouteResult result = router.Route(RequestFor(i));
        answered = result.status.ok() && !result.ranked.empty();
      }
      const auto t3 = Clock::now();
      router.Stop();
      if (!answered) ops_.Fail("recovered router answered nothing");
      if (delta::DeltaBuilder::CanonicalTreeString(store.Current()->tree()) !=
          last_canon_) {
        ops_.Fail("recovered tree differs from the last published tree");
      }
      recover_ms_.push_back(Seconds(t0, t3) * 1e3);
      open_ms_.push_back(Seconds(t0, t1) * 1e3);
      warm_ms_.push_back(Seconds(t1, t2) * 1e3);
      first_route_ms_.push_back(Seconds(t2, t3) * 1e3);
    }
  }

  void RouteMetrics() {
    std::vector<double> all, late, queue, resolve, score;
    size_t answered = 0;
    for (const RouteSample& s : routes_) {
      all.push_back(s.total_us);
      if (s.answered) ++answered;
      late.push_back(s.late_us);
      queue.push_back(s.queue_us);
      resolve.push_back(s.resolve_us);
      score.push_back(s.score_us);
    }
    E2eTime("route_p50_us", Percentile(all, 50), "us");
    E2eTime("route_p99_us", Percentile(all, 99), "us");
    const double qps = route_seconds_ > 0 ? routed_ / route_seconds_ : 0.0;
    if (spec_.reader_rps > 0.0) {
      E2e("route_qps", qps, "qps");  // The reader's rate is fixed, not scaled.
    } else {
      E2eRate("route_qps", qps, "qps");
    }
    E2e("route_answered_ratio",
        all.empty() ? 0.0
                    : static_cast<double>(answered) /
                          static_cast<double>(all.size()),
        "ratio");
    Layer("router.queue_us_p50", Median(queue), "us");
    Layer("router.resolve_us_p50", Median(resolve), "us");
    Layer("router.score_us_p50", Median(score), "us");
    Layer("client.late_us_p99", Percentile(late, 99), "us");
    Layer("router.batch_size_mean",
          batches_ == 0 ? 0.0
                        : static_cast<double>(admitted_) /
                              static_cast<double>(batches_),
          "count");
    Layer("router.shed", static_cast<double>(shed_), "count");
    Layer("router.degraded", static_cast<double>(degraded_), "count");
    // Coverage at a percentile: the share of the latency of the requests
    // around it that their ledger phases explain.
    const auto coverage_at = [&](double lo, double hi) {
      const double from = Percentile(all, lo);
      const double to = Percentile(all, hi);
      double phases = 0.0, total = 0.0;
      for (const RouteSample& s : routes_) {
        if (s.total_us < from || s.total_us > to) continue;
        phases += s.late_us + s.queue_us + s.resolve_us + s.score_us;
        total += s.total_us;
      }
      return total > 0 ? phases / total : 0.0;
    };
    Layer("coverage.route_p50_us", coverage_at(40, 60), "ratio");
    Layer("coverage.route_p99_us", coverage_at(98.5, 100), "ratio");
  }

  RunOutcome Finish() {
    host_slowdown_ = Median(ref_ms_) / kReferenceMs;
    RouteMetrics();
    // Set-up is everything done before the first timed operation: the
    // data (median of its repetitions) plus the churn stack's start, whose
    // seed pump is a full delta build.
    E2eTime("setup_s", Median(setup_s_) + churn_start_s_, "s");
    E2e("peak_rss_mb", PeakRssMb(), "MB");
    E2eTime("build_s", Median(build_s_), "s");
    E2eTime("cct_build_s", Median(cct_s_), "s");
    E2e("ctcr_score", ctcr_score_, "ratio");
    E2e("cct_score", cct_score_, "ratio");
    E2eTime("delta_publish_p50_ms", Percentile(publish_ms_, 50), "ms");
    // Unsteady run to run (fsync stalls from other tenants of the disk), so
    // the tail is a per-layer number, not a gated one.
    Layer("delta.publish_p95_ms", Percentile(publish_ms_, 95), "ms");
    E2eTime("recover_ms", Median(recover_ms_), "ms");

    Layer("data.dataset_s", Median(setup_s_), "s");
    Layer("delta.seed_s", churn_start_s_, "s");
    Layer("data.preprocess_s", Median(preprocess_s_), "s");
    Layer("data.raw_queries", static_cast<double>(raw_queries_), "count");
    Layer("data.input_sets", static_cast<double>(input_.num_sets()), "count");
    Layer("ctcr.conflicts_s", Median(conflicts_s_), "s");
    Layer("ctcr.mis_s", Median(mis_s_), "s");
    Layer("ctcr.construct_s", Median(construct_s_), "s");
    Layer("kernel.pairs_visited", static_cast<double>(pairs_visited_), "count");
    Layer("kernel.pairs_pruned", static_cast<double>(pairs_pruned_), "count");
    Layer("cct.embed_s", Median(embed_s_), "s");
    Layer("cct.cluster_s", Median(cluster_s_), "s");
    Layer("cct.assign_s", Median(assign_s_), "s");
    Layer("serve.publish_ms", Median(publish_s_) * 1e3, "ms");
    Layer("serve.pump_publish_ms", Median(snapshot_ms_), "ms");
    Layer("delta.ingest_ms", Median(ingest_ms_), "ms");
    Layer("delta.apply_ms", Median(apply_ms_), "ms");
    Layer("delta.impact_ms", Median(impact_ms_), "ms");
    Layer("delta.rebuild_ms", Median(rebuild_ms_), "ms");
    Layer("delta.splice_ms", Median(splice_ms_), "ms");
    Layer("delta.sets_rebuilt", static_cast<double>(sets_rebuilt_), "count");
    Layer("delta.dirty_components", static_cast<double>(dirty_components_),
          "count");
    Layer("store.commit_ms", Median(commit_ms_), "ms");
    Layer("store.entries", static_cast<double>(log_entries_), "count");
    Layer("store.bytes_per_commit", bytes_per_commit_, "bytes");
    Layer("store.open_ms", Median(open_ms_), "ms");
    Layer("store.warm_start_ms", Median(warm_ms_), "ms");
    Layer("router.first_route_ms", Median(first_route_ms_), "ms");
    Layer("host.ref_ms", Median(ref_ms_), "ms");
    Layer("host.par_ref_ms", Median(par_ref_ms_), "ms");
    // Coverage: the share of each timed end-to-end metric that its ledger
    // phases account for, over all of the run's samples.
    const auto share = [](double phases, double total) {
      return total > 0 ? phases / total : 0.0;
    };
    Layer("coverage.build_s",
          share(Sum(preprocess_s_) + Sum(conflicts_s_) + Sum(mis_s_) +
                    Sum(construct_s_) + Sum(publish_s_),
                Sum(build_s_)),
          "ratio");
    Layer("coverage.cct_build_s",
          share(Sum(embed_s_) + Sum(cluster_s_) + Sum(assign_s_), Sum(cct_s_)),
          "ratio");
    Layer("coverage.delta_publish_p50_ms",
          share(Sum(pump_phases_ms_), Sum(pump_total_ms_)), "ratio");
    Layer("coverage.recover_ms",
          share(Sum(open_ms_) + Sum(warm_ms_) + Sum(first_route_ms_),
                Sum(recover_ms_)),
          "ratio");

    out_.correct = ops_.failed() == 0;
    out_.attempted = ops_.attempted();
    out_.failed = ops_.failed();
    char shape[512];
    std::snprintf(
        shape, sizeof(shape),
        "shape: workload=%s dataset=%c scale=%.2f cycles=%zu build_pool=%zu "
        "delta_pool=%zu router_workers=%zu clients=%zu reader_rps=%.0f "
        "hardware_concurrency=%u input_sets=%zu host_ref_ms=[%.3f %.3f %.3f] "
        "host_slowdown=%.4f host_par_ref_ms=%.3f",
        spec_.name.c_str(), spec_.dataset, kScale, spec_.cycles, kPoolThreads,
        kPoolThreads, kRouterWorkers,
        spec_.reader_rps > 0.0 ? size_t{1} : kClients, spec_.reader_rps,
        std::thread::hardware_concurrency(), input_.num_sets(),
        Percentile(ref_ms_, 0), Median(ref_ms_), Percentile(ref_ms_, 100),
        host_slowdown_, Median(par_ref_ms_));
    out_.report = shape;
    if (!trace_) out_.report += "\nraw:" + raw_;
    return out_;
  }

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const bool trace_;
  const std::string workdir_;
  const Similarity sim_;
  ThreadPool build_pool_;
  ThreadPool delta_pool_;
  OpTally ops_;
  RunOutcome out_;
  std::map<std::string, double> phase_s_;

  std::unique_ptr<Bed> bed_;
  serve::TreeStore store_;
  std::unique_ptr<router::Router> router_;  // Closed loop over store_.
  OctInput input_;
  delta::DeltaBuilderOptions builder_options_;
  std::unique_ptr<ChurnStack> churn_;
  std::unique_ptr<TailChurn> tail_;
  std::vector<std::vector<TailChurn::Op>> history_;  // Every pump's ops.
  std::string log_dir_;
  std::string last_canon_;

  std::vector<double> ref_ms_, par_ref_ms_, setup_s_;
  double host_slowdown_ = 1.0;
  std::string raw_;
  double churn_start_s_ = 0.0;
  // Build slices.
  std::vector<double> build_s_, cct_s_, preprocess_s_, conflicts_s_, mis_s_,
      construct_s_, publish_s_, embed_s_, cluster_s_, assign_s_;
  double ctcr_score_ = 0.0;
  double cct_score_ = 0.0;
  size_t raw_queries_ = 0;
  uint64_t pairs_visited_ = 0;
  uint64_t pairs_pruned_ = 0;
  // Route slices and the reader.
  std::vector<RouteSample> routes_;
  double route_seconds_ = 0.0;
  double routed_ = 0.0;
  uint64_t batches_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t degraded_ = 0;
  // Churn slices (the ledger vectors fill in the traced run only).
  std::vector<double> publish_ms_, ingest_ms_, apply_ms_, snapshot_ms_,
      commit_ms_, pump_total_ms_, pump_phases_ms_, impact_ms_, rebuild_ms_,
      splice_ms_;
  Clock::time_point hook_entered_;  // Set by the traced publish hook.
  size_t sets_rebuilt_ = 0;
  size_t dirty_components_ = 0;
  size_t log_entries_ = 0;
  double bytes_per_commit_ = 0.0;
  // Recoveries.
  std::vector<double> recover_ms_, open_ms_, warm_ms_, first_route_ms_;
};

}  // namespace

bool SpecFor(const std::string& name, double seconds, WorkloadSpec* spec) {
  // Operation counts scale with the run length; they never depend on how
  // fast the host happens to be. Sized so that a run takes about `seconds`
  // on a 4-core host (build-D longer: one D build alone takes ~12 s).
  // On B, pumps are spaced rather than back to back: back-to-back commits
  // queue their fsyncs behind each other, which made the pump-latency tail
  // several times noisier run to run. A D pump's own ~10 ms commit
  // dominates, and spacing made no measurable difference there.
  const auto per = [seconds](double per_second) {
    return std::max<size_t>(1,
                            static_cast<size_t>(per_second * seconds + 0.5));
  };
  WorkloadSpec s;
  s.name = name;
  if (name == "build-D") {
    s.dataset = 'D';
    s.verify_delta = false;
    s.cycles = per(0.08);
    s.builds_per_cycle = 1;
    s.ccts_per_build = 2;
    s.routes_per_cycle = 1000;
    s.pumps_per_cycle = 30;
    s.recover_reps = 16;
  } else if (name == "route-B") {
    s.dataset = 'B';
    s.cycles = per(1.0);
    s.builds_per_cycle = 2;
    s.ccts_per_build = 2;
    s.routes_per_cycle = 3000;
    s.pumps_per_cycle = 10;
    s.pump_period_ms = 10.0;
    s.recover_reps = per(1.0);
  } else if (name == "churn-B") {
    s.dataset = 'B';
    s.cycles = per(1.0);
    s.builds_per_cycle = 1;
    s.ccts_per_build = 3;
    s.reader_rps = 500.0;
    s.pumps_per_cycle = 10;
    s.pump_period_ms = 100.0;
    s.recover_reps = per(0.6);
  } else {
    return false;
  }
  *spec = s;
  return true;
}

RunOutcome RunWorkload(const WorkloadSpec& spec, uint64_t seed, bool trace,
                       const std::string& workdir) {
  WorkloadRun run(spec, seed, trace, workdir);
  return run.Run();
}

}  // namespace octbench
