// oct::router tests: index-vs-oracle scoring identity, lossless prefix-
// filter pruning, deterministic anytime degradation, admission control and
// load shedding under failpoint-stalled workers, per-batch snapshot pinning
// across concurrent publishes, and the /route HTTP endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "data/query_log.h"
#include "fault/failpoint.h"
#include "obs/expose.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "router/query_parse.h"
#include "router/route_index.h"
#include "router/router.h"
#include "serve/exposition.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/telemetry.h"
#include "serve/tree_store.h"

namespace oct {
namespace router {
namespace {

Similarity Sim() { return Similarity(Variant::kJaccardThreshold, 0.8); }

/// Dataset A at a small scale, built once for the whole suite.
data::Dataset& SharedDataset() {
  static data::Dataset* ds =
      new data::Dataset(data::MakeDataset('A', Sim(), 0.05));
  return *ds;
}

/// A tree built from the shared dataset, copied into per-test stores.
const CategoryTree& SharedTree() {
  static const CategoryTree* tree = [] {
    serve::TreeStore store(2);
    serve::ServeStats stats;
    serve::RebuildScheduler scheduler(&store, &stats, &SharedDataset(), Sim());
    const serve::RebuildOutcome outcome =
        scheduler.RebuildNow(SharedDataset().input);
    EXPECT_TRUE(outcome.published);
    return new CategoryTree(store.Current()->tree());
  }();
  return *tree;
}

/// Log-derived queries over the shared catalog (deterministic).
std::vector<data::Query> SampleQueries(size_t count) {
  data::QueryLogOptions options;
  options.num_queries = count;
  options.seed = 11;
  std::vector<data::Query> queries;
  for (const data::LoggedQuery& logged :
       data::GenerateQueryLog(*SharedDataset().catalog, options)) {
    queries.push_back(logged.query);
  }
  return queries;
}

/// Brute-force oracle: score every node (root excluded) against its full
/// item set, filter by the floor, sort by the router's total order.
std::vector<NodeScore> BruteForceTopK(const serve::TreeSnapshot& snapshot,
                                      const ItemSet& query, size_t top_k,
                                      double min_jaccard) {
  const CategoryTree& tree = snapshot.tree();
  const std::vector<ItemSet> sets = tree.ComputeItemSets();
  std::vector<NodeScore> out;
  for (size_t n = 0; n < sets.size(); ++n) {
    if (static_cast<NodeId>(n) == tree.root()) continue;
    const size_t inter = sets[n].IntersectionSize(query);
    if (inter == 0) continue;
    NodeScore score;
    score.node = static_cast<NodeId>(n);
    score.overlap = static_cast<uint32_t>(inter);
    score.jaccard = static_cast<double>(inter) /
                    static_cast<double>(query.size() + sets[n].size() - inter);
    score.containment =
        static_cast<double>(inter) / static_cast<double>(query.size());
    score.depth = static_cast<uint32_t>(snapshot.DepthOf(score.node));
    if (score.jaccard + 1e-12 >= min_jaccard) out.push_back(score);
  }
  std::sort(out.begin(), out.end(), [](const NodeScore& a, const NodeScore& b) {
    if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
    if (a.depth != b.depth) return a.depth > b.depth;
    return a.node < b.node;
  });
  if (top_k != 0 && out.size() > top_k) out.resize(top_k);
  return out;
}

void ExpectSameRanking(const std::vector<NodeScore>& expected,
                       const std::vector<NodeScore>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].node, actual[i].node) << "rank " << i;
    EXPECT_EQ(expected[i].overlap, actual[i].overlap) << "rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].jaccard, actual[i].jaccard) << "rank " << i;
  }
}

/// Handmade nested tree: full sets are {a:0..9, a1:0..4, a2:5..9,
/// b:10..19, b1:10..13, c:20..21}.
CategoryTree HandmadeTree() {
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "a");
  const NodeId a1 = tree.AddCategory(a, "a1");
  const NodeId a2 = tree.AddCategory(a, "a2");
  const NodeId b = tree.AddCategory(tree.root(), "b");
  const NodeId b1 = tree.AddCategory(b, "b1");
  const NodeId c = tree.AddCategory(tree.root(), "c");
  for (ItemId i = 0; i < 5; ++i) tree.AssignItem(a1, i);
  for (ItemId i = 5; i < 10; ++i) tree.AssignItem(a2, i);
  for (ItemId i = 10; i < 14; ++i) tree.AssignItem(b1, i);
  for (ItemId i = 14; i < 20; ++i) tree.AssignItem(b, i);
  for (ItemId i = 20; i < 22; ++i) tree.AssignItem(c, i);
  return tree;
}

class RouterTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FailPointRegistry::Default()->DisarmAll();
  }
};

// ---------------------------------------------------------------------------
// RouteIndex scoring
// ---------------------------------------------------------------------------

TEST_F(RouterTest, IndexMatchesBruteForceOnHandmadeTree) {
  serve::TreeStore store(2);
  const auto snapshot = store.Publish(HandmadeTree());
  const auto index = RouteIndex::Build(snapshot);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_nodes(), 7u);

  const std::vector<ItemSet> queries = {
      ItemSet{0, 1, 2, 3, 4},          // exactly a1
      ItemSet{0, 5, 10, 20},           // spread across subtrees
      ItemSet{14, 15, 16},             // only b's direct items
      ItemSet{21},                     // single item in c
      ItemSet{0, 1, 2, 100, 200},      // items beyond the tree universe
  };
  for (double t : {0.0, 0.2, 0.5}) {
    for (const ItemSet& query : queries) {
      std::vector<NodeScore> got;
      index->ScoreTopK(query, /*top_k=*/0, t, nullptr, &got);
      ExpectSameRanking(BruteForceTopK(*snapshot, query, 0, t), got);
    }
  }
}

TEST_F(RouterTest, PruningEngagesAndIsLossless) {
  serve::TreeStore store(2);
  const auto snapshot = store.Publish(CategoryTree(SharedTree()));
  const auto index = RouteIndex::Build(snapshot);

  const double relevance = 0.8;
  size_t total_pruned = 0;
  size_t compared = 0;
  for (const data::Query& query : SampleQueries(60)) {
    const ItemSet result_set =
        SharedDataset().engine->ResultSet(query, relevance);
    if (result_set.empty()) continue;
    std::vector<NodeScore> got;
    const ScoreStats stats =
        index->ScoreTopK(result_set, /*top_k=*/0, 0.3, nullptr, &got);
    total_pruned += stats.nodes_pruned;
    // Visited + pruned covers the whole tree: nothing silently skipped.
    EXPECT_EQ(stats.nodes_visited + stats.nodes_pruned, index->num_nodes());
    ExpectSameRanking(BruteForceTopK(*snapshot, result_set, 0, 0.3), got);
    ++compared;
  }
  EXPECT_GT(compared, 10u);
  // The bound must actually cut work at a 0.3 floor on real result sets.
  EXPECT_GT(total_pruned, 0u);
}

TEST_F(RouterTest, DegradedBudgetReturnsValidPrefixOfOracle) {
  serve::TreeStore store(2);
  const auto snapshot = store.Publish(CategoryTree(SharedTree()));
  const auto index = RouteIndex::Build(snapshot);

  const data::Query query = SampleQueries(5).front();
  const ItemSet result_set = SharedDataset().engine->ResultSet(query, 0.8);
  ASSERT_FALSE(result_set.empty());

  std::vector<NodeScore> full;
  index->ScoreTopK(result_set, 0, 0.0, nullptr, &full);

  std::vector<NodeScore> degraded;
  const ScoreStats stats = index->ScoreTopK(result_set, 0, 0.0, nullptr,
                                            &degraded, /*max_nodes=*/16);
  EXPECT_TRUE(stats.degraded);
  EXPECT_LE(stats.nodes_visited, 16u + 15u);  // Budget polled every 16 visits.
  EXPECT_LE(degraded.size(), full.size());
  // Every degraded entry is a correctly-scored member of the full ranking.
  for (const NodeScore& d : degraded) {
    const auto it =
        std::find_if(full.begin(), full.end(),
                     [&](const NodeScore& f) { return f.node == d.node; });
    ASSERT_NE(it, full.end());
    EXPECT_DOUBLE_EQ(it->jaccard, d.jaccard);
    EXPECT_EQ(it->overlap, d.overlap);
  }

  // A token expired before the call degrades immediately, returning empty.
  fault::CancelToken expired;
  expired.Cancel();
  std::vector<NodeScore> none;
  const ScoreStats cancelled =
      index->ScoreTopK(result_set, 0, 0.0, &expired, &none);
  EXPECT_TRUE(cancelled.degraded);
  EXPECT_TRUE(none.empty());
}

// ---------------------------------------------------------------------------
// Query parsing
// ---------------------------------------------------------------------------

TEST_F(RouterTest, ParseQueryAcceptsAllForms) {
  const data::Catalog& catalog = *SharedDataset().catalog;
  const auto numeric = ParseQuery("0:1,2:0", catalog);
  ASSERT_TRUE(numeric.ok());
  ASSERT_EQ(numeric->conjuncts.size(), 2u);
  EXPECT_EQ(numeric->conjuncts[0], (std::pair<uint16_t, uint16_t>{0, 1}));
  EXPECT_EQ(numeric->conjuncts[1], (std::pair<uint16_t, uint16_t>{2, 0}));

  // Named form: attribute name from the schema.
  const auto& schema = catalog.schema();
  const std::string named =
      schema.attributes[1].name + "=" + schema.attributes[1].values[0];
  const auto by_name = ParseQuery(named, catalog);
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->conjuncts[0],
            (std::pair<uint16_t, uint16_t>{1, 0}));

  // Bare word resolves against every vocabulary.
  const auto bare = ParseQuery(schema.attributes[0].values[2], catalog);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->conjuncts[0], (std::pair<uint16_t, uint16_t>{0, 2}));

  // '+' separates like a space (URL form).
  const auto mixed = ParseQuery(
      schema.attributes[0].values[0] + "+1:0", catalog);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->conjuncts.size(), 2u);
}

TEST_F(RouterTest, ParseQueryRejectsGarbage) {
  const data::Catalog& catalog = *SharedDataset().catalog;
  EXPECT_FALSE(ParseQuery("", catalog).ok());
  EXPECT_FALSE(ParseQuery("  ,+ ", catalog).ok());
  EXPECT_FALSE(ParseQuery("definitely-not-a-value", catalog).ok());
  EXPECT_FALSE(ParseQuery("999:0", catalog).ok());
  EXPECT_FALSE(ParseQuery("0:9999", catalog).ok());
  EXPECT_FALSE(ParseQuery("notanattr=nike", catalog).ok());
}

// ---------------------------------------------------------------------------
// Router serving loop
// ---------------------------------------------------------------------------

TEST_F(RouterTest, SubmitRejectsWhenNotStarted) {
  serve::TreeStore store(2);
  Router router(&store, SharedDataset().engine.get());
  RouteRequest request;
  request.query = SampleQueries(1).front();
  const Status st =
      router.Submit(std::move(request), [](RouteResult) { FAIL(); });
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RouterTest, RouteWithoutPublishedTreeFailsCleanly) {
  serve::TreeStore store(2);
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();
  const RouteResult result = router.Route(std::move(request));
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(result.ranked.empty());
  router.Stop();
}

TEST_F(RouterTest, BatchedRouteMatchesSerialOracle) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 2;
  options.min_jaccard = 0.05;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  size_t routed = 0;
  for (const data::Query& query : SampleQueries(50)) {
    RouteRequest request;
    request.query = query;
    const RouteResult batched = router.Route(request);
    const RouteResult serial = router.RouteSerial(request);
    ASSERT_EQ(batched.status.code(), serial.status.code());
    EXPECT_EQ(batched.version, serial.version);
    ASSERT_EQ(batched.ranked.size(), serial.ranked.size());
    for (size_t i = 0; i < batched.ranked.size(); ++i) {
      EXPECT_EQ(batched.ranked[i].node, serial.ranked[i].node);
      EXPECT_DOUBLE_EQ(batched.ranked[i].jaccard, serial.ranked[i].jaccard);
      EXPECT_EQ(batched.ranked[i].path, serial.ranked[i].path);
    }
    if (!batched.ranked.empty()) ++routed;
  }
  EXPECT_GT(routed, 0u);
  router.Stop();
}

TEST_F(RouterTest, BatchPinsOneSnapshotAcrossConcurrentPublishes) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()), "v1");
  RouterOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  // Stall the first batch so the next 6 requests pile up and drain as ONE
  // batch while a publisher hammers the store.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.batch", "delay:200:1:x1")
                  .ok());
  const std::vector<data::Query> queries = SampleQueries(7);
  std::atomic<size_t> done{0};
  RouteRequest first;
  first.query = queries[0];
  ASSERT_TRUE(router.Submit(first, [&](RouteResult) { done++; }).ok());
  // Wait until the worker has claimed it (and is sleeping in the delay).
  const auto claimed_by = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
  while (router.queue_depth() != 0 &&
         std::chrono::steady_clock::now() < claimed_by) {
    std::this_thread::yield();
  }
  ASSERT_EQ(router.queue_depth(), 0u);

  std::mutex mu;
  std::vector<serve::TreeVersion> versions;
  for (size_t i = 1; i < queries.size(); ++i) {
    RouteRequest request;
    request.query = queries[i];
    ASSERT_TRUE(router
                    .Submit(request,
                            [&](RouteResult r) {
                              std::lock_guard<std::mutex> lock(mu);
                              versions.push_back(r.version);
                              done++;
                            })
                    .ok());
  }
  std::thread publisher([&] {
    for (int i = 0; i < 100; ++i) {
      store.Publish(CategoryTree(SharedTree()), "spin");
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 7 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  publisher.join();
  router.Stop();
  ASSERT_EQ(done.load(), 7u);
  ASSERT_EQ(versions.size(), 6u);
  // All answers of the batch were computed against one pinned snapshot,
  // no matter how many versions the store went through meanwhile.
  for (serve::TreeVersion v : versions) {
    EXPECT_EQ(v, versions.front());
    EXPECT_GE(v, 1u);
  }
  EXPECT_GE(store.CurrentVersion(), 100u);
}

TEST_F(RouterTest, QueueFullShedsWithMatchingCounters) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.max_queue = 2;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  // Each batch sleeps 100 ms, so of 6 instant submits at most 1 is in
  // flight and 2 queued: at least 2 must shed with kResourceExhausted.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.batch", "delay:100")
                  .ok());
  const std::vector<data::Query> queries = SampleQueries(6);
  std::atomic<size_t> completed{0};
  size_t admitted = 0;
  size_t shed = 0;
  for (const data::Query& query : queries) {
    RouteRequest request;
    request.query = query;
    const Status st =
        router.Submit(std::move(request), [&](RouteResult) { completed++; });
    if (st.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_GE(shed, 2u);
  EXPECT_EQ(admitted + shed, queries.size());
  fault::FailPointRegistry::Default()->DisarmAll();
  router.Stop();  // Drains the admitted remainder.
  EXPECT_EQ(completed.load(), admitted);
  const RouterStatsSnapshot stats = router.stats().Snapshot();
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.requests, admitted);
  EXPECT_EQ(stats.routed + stats.unrouted, admitted);
}

TEST_F(RouterTest, DeadlineExpiredInQueueIsShedNotScored) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.batch", "delay:120")
                  .ok());
  const std::vector<data::Query> queries = SampleQueries(2);
  std::atomic<size_t> done{0};
  RouteRequest blocker;
  blocker.query = queries[0];
  ASSERT_TRUE(router.Submit(blocker, [&](RouteResult) { done++; }).ok());

  RouteResult hurried_result;
  RouteRequest hurried;
  hurried.query = queries[1];
  hurried.deadline_seconds = 0.02;  // Expires while waiting behind blocker.
  ASSERT_TRUE(router
                  .Submit(hurried,
                          [&](RouteResult r) {
                            hurried_result = std::move(r);
                            done++;
                          })
                  .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(done.load(), 2u);
  EXPECT_EQ(hurried_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(hurried_result.shed);
  EXPECT_TRUE(hurried_result.ranked.empty());
  EXPECT_GE(router.stats().Snapshot().shed_deadline, 1u);
  fault::FailPointRegistry::Default()->DisarmAll();
  router.Stop();
}

TEST_F(RouterTest, DegradedRouteStillRanksAndCounts) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.min_jaccard = 0.0;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  RouteRequest request;
  request.query = SampleQueries(1).front();
  request.top_k = 1000;  // Unbounded-ish: subset check needs the full list.
  request.max_score_nodes = 16;
  const RouteResult degraded = router.Route(request);
  EXPECT_EQ(degraded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.shed);

  request.max_score_nodes = 0;
  const RouteResult full = router.Route(request);
  ASSERT_TRUE(full.status.ok());
  // Degraded ranking is a valid subset of the full one.
  for (const RoutedCategory& d : degraded.ranked) {
    const auto it = std::find_if(
        full.ranked.begin(), full.ranked.end(),
        [&](const RoutedCategory& f) { return f.node == d.node; });
    ASSERT_NE(it, full.ranked.end());
    EXPECT_DOUBLE_EQ(it->jaccard, d.jaccard);
  }
  EXPECT_GE(router.stats().Snapshot().degraded, 1u);
  router.Stop();
}

TEST_F(RouterTest, InjectedResolveAndScoreErrorsAreCounted) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();

  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.resolve", "error")
                  .ok());
  EXPECT_EQ(router.Route(request).status.code(), StatusCode::kInternal);
  fault::FailPointRegistry::Default()->DisarmAll();

  ASSERT_TRUE(
      fault::FailPointRegistry::Default()->Arm("router.score", "error").ok());
  EXPECT_EQ(router.Route(request).status.code(), StatusCode::kInternal);
  fault::FailPointRegistry::Default()->DisarmAll();

  EXPECT_EQ(router.stats().Snapshot().errors, 2u);
  EXPECT_TRUE(router.Route(request).status.ok());  // Recovers when disarmed.
  router.Stop();
}

TEST_F(RouterTest, InjectedAdmissionFailureSheds) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.enqueue", "error:1:x1")
                  .ok());
  RouteRequest request;
  request.query = SampleQueries(1).front();
  const RouteResult result = router.Route(request);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(result.shed);
  EXPECT_GE(router.stats().Snapshot().shed_queue_full, 1u);
  EXPECT_TRUE(router.Route(request).status.ok());  // One-shot: recovered.
  router.Stop();
}

TEST_F(RouterTest, IndexBuiltOncePerVersionAndRebuiltOnPublish) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  const auto index_v1 = router.CurrentIndex();
  ASSERT_NE(index_v1, nullptr);
  for (const data::Query& query : SampleQueries(10)) {
    RouteRequest request;
    request.query = query;
    router.Route(std::move(request));
  }
  // Same version, same index object: no per-request rebuilds.
  EXPECT_EQ(router.CurrentIndex().get(), index_v1.get());
  EXPECT_EQ(router.stats().Snapshot().index_version,
            static_cast<int64_t>(index_v1->version()));

  store.Publish(CategoryTree(SharedTree()), "v2");
  const auto index_v2 = router.CurrentIndex();
  ASSERT_NE(index_v2, nullptr);
  EXPECT_NE(index_v2.get(), index_v1.get());
  EXPECT_GT(index_v2->version(), index_v1->version());
  // The old index still pins its snapshot for in-flight readers.
  EXPECT_EQ(index_v1->snapshot().version(), index_v1->version());
  router.Stop();
}

TEST_F(RouterTest, StopDrainsEveryAdmittedRequest) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.max_queue = 4096;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  std::atomic<size_t> completed{0};
  size_t admitted = 0;
  const std::vector<data::Query> queries = SampleQueries(20);
  for (int round = 0; round < 3; ++round) {
    for (const data::Query& query : queries) {
      RouteRequest request;
      request.query = query;
      if (router.Submit(std::move(request), [&](RouteResult) { completed++; })
              .ok()) {
        ++admitted;
      }
    }
  }
  router.Stop();
  EXPECT_EQ(completed.load(), admitted);
  EXPECT_EQ(admitted, queries.size() * 3);
  // Stopped routers shed instead of accepting work they will never do.
  RouteRequest late;
  late.query = queries.front();
  EXPECT_EQ(router.Submit(std::move(late), [](RouteResult) {}).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Head-query result cache and cross-request dedup
// ---------------------------------------------------------------------------

TEST_F(RouterTest, ResultCacheHitsRepeatsAndMatchesSerialOracle) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.min_jaccard = 0.05;
  options.cache_capacity = 16;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  RouteRequest request;
  request.query = SampleQueries(1).front();
  const RouteResult first = router.Route(request);
  ASSERT_TRUE(first.status.ok());
  RouterStatsSnapshot stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_size, 1);

  const RouteResult second = router.Route(request);
  ASSERT_TRUE(second.status.ok());
  stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // The cached answer is byte-for-byte the serial oracle's answer.
  const RouteResult serial = router.RouteSerial(request);
  EXPECT_EQ(second.version, serial.version);
  ASSERT_EQ(second.ranked.size(), serial.ranked.size());
  for (size_t i = 0; i < second.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].node, serial.ranked[i].node);
    EXPECT_DOUBLE_EQ(second.ranked[i].jaccard, serial.ranked[i].jaccard);
    EXPECT_EQ(second.ranked[i].path, serial.ranked[i].path);
  }
  // RouteSerial bypasses the cache: counters are untouched by the oracle.
  stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Different knobs on the same query are different work: no false hit.
  RouteRequest wider = request;
  wider.top_k = 9;
  ASSERT_TRUE(router.Route(wider).status.ok());
  stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  router.Stop();
}

TEST_F(RouterTest, ResultCacheInvalidatedOnPublish) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()), "v1");
  RouterOptions options;
  options.num_workers = 1;
  options.cache_capacity = 16;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  RouteRequest request;
  request.query = SampleQueries(1).front();
  const RouteResult before = router.Route(request);
  ASSERT_TRUE(before.status.ok());
  ASSERT_TRUE(router.Route(request).status.ok());
  EXPECT_EQ(router.stats().Snapshot().cache_hits, 1u);

  store.Publish(CategoryTree(SharedTree()), "v2");
  const RouteResult after = router.Route(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.version, before.version);
  const RouterStatsSnapshot stats = router.stats().Snapshot();
  // The publish flushed the v1 entries: this was a miss, not a stale hit.
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_size, 1);
  router.Stop();
}

TEST_F(RouterTest, ResultCacheEvictsLeastRecentPastCapacity) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.cache_capacity = 2;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  const std::vector<data::Query> queries = SampleQueries(3);
  for (const data::Query& query : queries) {
    RouteRequest request;
    request.query = query;
    ASSERT_TRUE(router.Route(request).status.ok());
  }
  RouterStatsSnapshot stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_size, 2);

  // queries[0] was the least recent of the three: evicted, misses again.
  RouteRequest request;
  request.query = queries[0];
  ASSERT_TRUE(router.Route(request).status.ok());
  stats = router.stats().Snapshot();
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_size, 2);
  router.Stop();
}

TEST_F(RouterTest, BatchDedupFansOutLeaderResultToIdenticalRequests) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  options.max_queue = 64;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  // Stall the worker on a blocker batch so the identical requests pile
  // into the queue and drain together as one batch.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.batch", "delay:150")
                  .ok());
  const std::vector<data::Query> queries = SampleQueries(2);
  std::atomic<size_t> done{0};
  RouteRequest blocker;
  blocker.query = queries[0];
  ASSERT_TRUE(router.Submit(blocker, [&](RouteResult) { done++; }).ok());

  constexpr size_t kClones = 8;
  std::vector<RouteResult> results(kClones);
  for (size_t i = 0; i < kClones; ++i) {
    RouteRequest clone;
    clone.query = queries[1];
    ASSERT_TRUE(router
                    .Submit(clone,
                            [&results, i, &done](RouteResult r) {
                              results[i] = std::move(r);
                              done++;
                            })
                    .ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kClones + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(done.load(), kClones + 1);
  fault::FailPointRegistry::Default()->DisarmAll();
  // Snapshot before the oracle probe below adds its own routed count.
  const RouterStatsSnapshot stats = router.stats().Snapshot();

  // Every clone got the serial oracle's answer, whether it led or followed.
  RouteRequest probe;
  probe.query = queries[1];
  const RouteResult serial = router.RouteSerial(probe);
  for (size_t i = 0; i < kClones; ++i) {
    ASSERT_TRUE(results[i].status.ok()) << i;
    EXPECT_EQ(results[i].version, serial.version) << i;
    ASSERT_EQ(results[i].ranked.size(), serial.ranked.size()) << i;
    for (size_t r = 0; r < serial.ranked.size(); ++r) {
      EXPECT_EQ(results[i].ranked[r].node, serial.ranked[r].node);
      EXPECT_DOUBLE_EQ(results[i].ranked[r].jaccard, serial.ranked[r].jaccard);
      EXPECT_EQ(results[i].ranked[r].path, serial.ranked[r].path);
    }
  }
  EXPECT_GE(stats.deduped, 1u);
  EXPECT_LE(stats.deduped, kClones - 1);
  EXPECT_EQ(stats.routed + stats.unrouted, kClones + 1);
  router.Stop();
}

TEST_F(RouterTest, TraceContextPropagatesAcrossTheQueue) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  obs::ClearSpans();
  obs::SetTracingEnabled(true);
  const obs::TraceContext ctx = obs::StartRequestTrace(nullptr);
  RouteResult result;
  std::atomic<bool> done{false};
  {
    // The context is ambient only here, on the submitting thread; the
    // router must carry it across the queue to the worker explicitly.
    obs::TraceContextScope scope(ctx);
    RouteRequest request;
    request.query = SampleQueries(1).front();
    ASSERT_TRUE(router
                    .Submit(request,
                            [&](RouteResult r) {
                              result = std::move(r);
                              done.store(true, std::memory_order_release);
                            })
                    .ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load());
  router.Stop();  // Worker exits; its span buffer stays collectable.
  obs::SetTracingEnabled(false);

  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.trace_id, ctx.trace_id);
  EXPECT_NE(result.route_span_id, 0u);
  // The worker-side scoring span carries the submitter's trace id.
  const std::vector<obs::SpanEvent> spans = obs::CollectSpans();
  const obs::SpanEvent* route = nullptr;
  for (const obs::SpanEvent& e : spans) {
    if (std::string(e.name) == "router/route" &&
        e.span_id == result.route_span_id) {
      route = &e;
    }
  }
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->trace_id, ctx.trace_id);
}

TEST_F(RouterTest, DedupFollowersKeepTheirTraceAndLinkToTheLeader) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  options.max_batch = 32;
  options.max_queue = 64;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  obs::ClearSpans();
  obs::SetTracingEnabled(true);
  // Same shape as the dedup fan-out test above, but every clone submits
  // under its own request trace.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.batch", "delay:150")
                  .ok());
  const std::vector<data::Query> queries = SampleQueries(2);
  std::atomic<size_t> done{0};
  RouteRequest blocker;
  blocker.query = queries[0];
  ASSERT_TRUE(router.Submit(blocker, [&](RouteResult) { done++; }).ok());

  constexpr size_t kClones = 6;
  std::vector<obs::TraceContext> traces(kClones);
  std::vector<RouteResult> results(kClones);
  for (size_t i = 0; i < kClones; ++i) {
    traces[i] = obs::StartRequestTrace(nullptr);
    obs::TraceContextScope scope(traces[i]);
    RouteRequest clone;
    clone.query = queries[1];
    ASSERT_TRUE(router
                    .Submit(clone,
                            [&results, i, &done](RouteResult r) {
                              results[i] = std::move(r);
                              done++;
                            })
                    .ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kClones + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(done.load(), kClones + 1);
  fault::FailPointRegistry::Default()->DisarmAll();
  const RouterStatsSnapshot stats = router.stats().Snapshot();
  router.Stop();
  obs::SetTracingEnabled(false);

  ASSERT_GE(stats.deduped, 1u);
  // Followers keep their own trace id but inherit the leader's scoring
  // span id, so /tracez can walk follower -> leader.
  std::vector<uint64_t> leader_spans;
  std::vector<uint64_t> follower_traces;
  size_t followers = 0;
  for (size_t i = 0; i < kClones; ++i) {
    ASSERT_TRUE(results[i].status.ok()) << i;
    EXPECT_EQ(results[i].trace_id, traces[i].trace_id) << i;
    EXPECT_NE(results[i].route_span_id, 0u) << i;
    if (results[i].deduped) {
      ++followers;
      follower_traces.push_back(results[i].trace_id);
    } else {
      leader_spans.push_back(results[i].route_span_id);
    }
  }
  EXPECT_EQ(followers, stats.deduped);
  for (size_t i = 0; i < kClones; ++i) {
    if (!results[i].deduped) continue;
    EXPECT_NE(std::find(leader_spans.begin(), leader_spans.end(),
                        results[i].route_span_id),
              leader_spans.end())
        << i;
  }
  // Exactly one cross-trace link span per follower: parented under a
  // leader's scoring span, tagged with the follower's own trace id.
  size_t links = 0;
  for (const obs::SpanEvent& e : obs::CollectSpans()) {
    if (std::string(e.name) != "router/dedup") continue;
    ++links;
    EXPECT_NE(std::find(leader_spans.begin(), leader_spans.end(),
                        e.parent_id),
              leader_spans.end());
    EXPECT_NE(std::find(follower_traces.begin(), follower_traces.end(),
                        e.trace_id),
              follower_traces.end());
  }
  EXPECT_EQ(links, stats.deduped);
}

TEST_F(RouterTest, BatchedPathWithCacheStillMatchesSerialOracle) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 2;
  options.min_jaccard = 0.05;
  // Large enough to hold the working set: rounds 2 and 3 replay the same
  // queries in order, so every replay must hit.
  options.cache_capacity = 64;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  const std::vector<data::Query> queries = SampleQueries(25);
  for (int round = 0; round < 3; ++round) {
    for (const data::Query& query : queries) {
      RouteRequest request;
      request.query = query;
      const RouteResult batched = router.Route(request);
      const RouteResult serial = router.RouteSerial(request);
      ASSERT_EQ(batched.status.code(), serial.status.code());
      EXPECT_EQ(batched.version, serial.version);
      ASSERT_EQ(batched.ranked.size(), serial.ranked.size());
      for (size_t i = 0; i < batched.ranked.size(); ++i) {
        EXPECT_EQ(batched.ranked[i].node, serial.ranked[i].node);
        EXPECT_DOUBLE_EQ(batched.ranked[i].jaccard, serial.ranked[i].jaccard);
        EXPECT_EQ(batched.ranked[i].path, serial.ranked[i].path);
      }
    }
  }
  const RouterStatsSnapshot stats = router.stats().Snapshot();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_LE(stats.cache_size, 64);
  router.Stop();
}

// ---------------------------------------------------------------------------
// HTTP integration
// ---------------------------------------------------------------------------

TEST_F(RouterTest, HttpRequestKeepsQueryStringAndDecodesParams) {
  const auto parsed = obs::ParseHttpRequest(
      "GET /route?q=0%3A1+2:0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->path, "/route");
  EXPECT_EQ(parsed->query, "q=0%3A1+2:0&k=3");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "q"), "0:1 2:0");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "k"), "3");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "absent"), "");
  EXPECT_EQ(obs::HttpQueryParam("", "q"), "");
}

TEST_F(RouterTest, ExpositionServesRouteEndpoint) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.num_workers = 1;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  serve::ServingExposition exposition(&store, nullptr, nullptr, {}, &router);

  // Routed answer: 200 with a ranked array and the snapshot version.
  const std::string ok = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"ranked\""), std::string::npos);
  EXPECT_NE(ok.find("\"version\":1"), std::string::npos);

  // Missing and malformed q: client errors, not 500s.
  EXPECT_NE(exposition.server()
                ->HandleRequest("GET /route HTTP/1.1\r\n\r\n")
                .find("400"),
            std::string::npos);
  EXPECT_NE(exposition.server()
                ->HandleRequest("GET /route?q=zzzznope HTTP/1.1\r\n\r\n")
                .find("400"),
            std::string::npos);

  // /statusz carries the router block and the active kernel ISA tier;
  // /healthz notes the running router.
  const std::string statusz =
      exposition.server()->HandleRequest("GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("\"router\""), std::string::npos);
  EXPECT_NE(statusz.find("\"kernel_isa\""), std::string::npos);
  const obs::HealthReport health = exposition.Health();
  EXPECT_TRUE(health.healthy);
  EXPECT_NE(health.detail.find("router running"), std::string::npos);

  // A stopped router flips health: /route would only serve errors.
  router.Stop();
  EXPECT_FALSE(exposition.Health().healthy);
  const std::string shed = exposition.server()->HandleRequest(
      "GET /route?q=0:0 HTTP/1.1\r\n\r\n");
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
}

TEST_F(RouterTest, TailSamplingKeepsOnlyBadRequestsEndToEnd) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  // Huge slow threshold: only shed/degraded/errored requests promote, so
  // the clean-request phase below cannot flake on a slow CI machine.
  serve::TelemetryOptions telemetry_options;
  telemetry_options.slow_threshold_us = 1e9;
  obs::Telemetry telemetry = serve::MakeTelemetry(telemetry_options);
  RouterOptions options;
  options.num_workers = 1;
  options.telemetry = &telemetry;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  serve::ExpositionOptions opts;
  opts.telemetry = &telemetry;
  serve::ServingExposition exposition(&store, nullptr, nullptr, opts,
                                      &router);
  obs::TailSampler* sampler = &telemetry.sampler;
  ASSERT_NE(sampler, nullptr);

  // Fast clean route: 200 with the trace id echoed in the body, but the
  // tail verdict discards it — /slowz stays empty.
  const std::string ok = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"trace_id\":\""), std::string::npos) << ok;
  EXPECT_GE(sampler->traces_discarded(), 1u);
  const std::string clean_slowz =
      exposition.server()->HandleRequest("GET /slowz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(clean_slowz.find("\"reason\""), std::string::npos) << clean_slowz;

  // Shed route (router stopped): promoted with its query text and reason.
  router.Stop();
  const std::string shed = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
  EXPECT_GE(sampler->traces_promoted(), 1u);
  const std::string slowz =
      exposition.server()->HandleRequest("GET /slowz HTTP/1.1\r\n\r\n");
  EXPECT_NE(slowz.find("\"reason\":\"shed\""), std::string::npos) << slowz;
  EXPECT_NE(slowz.find("0:0"), std::string::npos) << slowz;
  // /statusz surfaces the tail-sampling ledger.
  const std::string statusz =
      exposition.server()->HandleRequest("GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("\"tail_sampling\""), std::string::npos) << statusz;
}

std::string Get(serve::ServingExposition& exposition,
                const std::string& path) {
  return exposition.server()->HandleRequest("GET " + path +
                                            " HTTP/1.1\r\n\r\n");
}

/// Every hex trace id a /slowz body lists, newest first.
std::vector<std::string> SlowzTraceIds(const std::string& slowz) {
  static const std::regex kTraceId("\"trace_id\":\"([0-9a-f]{16})\"");
  std::vector<std::string> ids;
  for (std::sregex_iterator it(slowz.begin(), slowz.end(), kTraceId), end;
       it != end; ++it) {
    ids.push_back((*it)[1]);
  }
  return ids;
}

TEST_F(RouterTest, SlowzTraceIdOpensItsRouteSpanOnTracez) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  // Threshold 0: every request finishes "slow" and is promoted.
  serve::TelemetryOptions telemetry_options;
  telemetry_options.slow_threshold_us = 0;
  obs::Telemetry telemetry = serve::MakeTelemetry(telemetry_options);
  RouterOptions options;
  options.num_workers = 1;
  options.telemetry = &telemetry;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();
  serve::ExpositionOptions opts;
  opts.telemetry = &telemetry;
  serve::ServingExposition exposition(&store, nullptr, nullptr, opts,
                                      &router);

  // Two requests through the HTTP ingress (the exposition owns the trace)
  // and one straight into the router (the router mints and owns it).
  for (const char* q : {"0:0", "0:1"}) {
    const std::string routed =
        Get(exposition, std::string("/route?q=") + q + "&k=3");
    ASSERT_NE(routed.find("200 OK"), std::string::npos) << routed;
  }
  RouteRequest direct;
  direct.query = SampleQueries(1)[0];
  ASSERT_TRUE(router.Route(direct).status.ok());

  const std::vector<std::string> ids = SlowzTraceIds(Get(exposition, "/slowz"));
  ASSERT_EQ(ids.size(), 3u);
  for (const std::string& id : ids) {
    const std::string tracez = Get(exposition, "/tracez?trace_id=" + id);
    EXPECT_EQ(tracez.find("\"error\""), std::string::npos) << tracez;
    EXPECT_NE(tracez.find("\"name\":\"router/route\""), std::string::npos)
        << "trace " << id << ": " << tracez;
  }
}

/// One serving stack: its own telemetry, router and exposition over a
/// shared store.
struct ServingStack {
  ServingStack(const serve::TreeStore* store, const data::SearchEngine* engine,
               double slow_threshold_us)
      : telemetry(serve::MakeTelemetry(TelemetryWith(slow_threshold_us))),
        router(store, engine, RouterWith(&telemetry)),
        exposition(store, nullptr, nullptr, ExpositionWith(&telemetry),
                   &router) {
    router.Start();
  }

  static serve::TelemetryOptions TelemetryWith(double slow_threshold_us) {
    serve::TelemetryOptions options;
    options.slow_threshold_us = slow_threshold_us;
    return options;
  }
  static RouterOptions RouterWith(obs::Telemetry* telemetry) {
    RouterOptions options;
    options.num_workers = 1;
    options.telemetry = telemetry;
    return options;
  }
  static serve::ExpositionOptions ExpositionWith(obs::Telemetry* telemetry) {
    serve::ExpositionOptions options;
    options.telemetry = telemetry;
    return options;
  }

  /// Routes `n` requests through the HTTP ingress.
  void Route(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const std::string routed = Get(exposition, "/route?q=0:0&k=3");
      ASSERT_NE(routed.find("200 OK"), std::string::npos) << routed;
    }
  }

  obs::Telemetry telemetry;
  Router router;
  serve::ServingExposition exposition;
};

/// Asserts one stack's ledgers: `routed` requests on both /sloz
/// objectives and in tail_sampling, `promoted` of them on /slowz.
void ExpectLedgers(ServingStack& stack, size_t routed, size_t promoted) {
  const std::string total = "\"total\":" + std::to_string(routed) + ",";
  const std::string sloz = Get(stack.exposition, "/sloz");
  const size_t latency = sloz.find("\"router.latency\"");
  const size_t availability = sloz.find("\"router.availability\"");
  ASSERT_NE(latency, std::string::npos) << sloz;
  ASSERT_NE(availability, std::string::npos) << sloz;
  EXPECT_NE(sloz.find(total, latency), std::string::npos) << sloz;
  EXPECT_NE(sloz.find(total, availability), std::string::npos) << sloz;

  EXPECT_EQ(SlowzTraceIds(Get(stack.exposition, "/slowz")).size(), promoted);
  const std::string statusz = Get(stack.exposition, "/statusz");
  EXPECT_NE(statusz.find("\"traces_started\":" + std::to_string(routed) + ","),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("\"traces_promoted\":" + std::to_string(promoted) +
                         ","),
            std::string::npos)
      << statusz;
}

TEST_F(RouterTest, TwoServingStacksKeepSeparateLedgers) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  const data::SearchEngine* engine = SharedDataset().engine.get();
  for (const bool first_dies_first : {true, false}) {
    SCOPED_TRACE(first_dies_first ? "first destroyed first"
                                  : "second destroyed first");
    // Stack A promotes everything (threshold 0), stack B nothing.
    auto a = std::make_unique<ServingStack>(&store, engine, 0.0);
    auto b = std::make_unique<ServingStack>(&store, engine, 1e9);
    a->Route(2);
    b->Route(3);
    ExpectLedgers(*a, /*routed=*/2, /*promoted=*/2);
    ExpectLedgers(*b, /*routed=*/3, /*promoted=*/0);

    // Tearing one stack down leaves the other's ledgers intact and live.
    if (first_dies_first) {
      a.reset();
      b->Route(1);
      ExpectLedgers(*b, /*routed=*/4, /*promoted=*/0);
    } else {
      b.reset();
      a->Route(1);
      ExpectLedgers(*a, /*routed=*/3, /*promoted=*/3);
    }
  }
}

}  // namespace
}  // namespace router
}  // namespace oct
