#include "runner/config_io.hpp"

#include <gtest/gtest.h>

namespace dtncache::runner {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryField) {
  ExperimentConfig original;
  original.trace = trace::infocomLikeConfig(9);
  original.catalog.itemCount = 17;
  original.catalog.refreshPeriod = sim::hours(7);
  original.workload.queriesPerNodePerDay = 3.5;
  original.workload.zipfExponent = 1.3;
  original.cache.cachingNodesPerItem = 11;
  original.network.contactLossRate = 0.25;
  original.estimator.mode = trace::EstimatorMode::kSlidingWindow;
  original.estimator.window = sim::days(2);
  original.allocation = cache::AllocationPolicy::kSqrt;
  original.scheme = SchemeKind::kEpidemic;
  original.hierarchical.hierarchy.fanoutBound = 5;
  original.hierarchical.replication.theta = 0.93;
  original.hierarchical.maintenance = core::MaintenanceMode::kStatic;
  original.hierarchical.relayAssisted = false;
  original.churnEnabled = true;
  original.churn.meanDowntime = sim::hours(13);
  original.energyEnabled = true;
  original.energy.batteryJoules = 432.0;
  original.seed = 77;

  const auto back = loadConfig(dumpConfig(original));

  EXPECT_EQ(back.trace.nodeCount, original.trace.nodeCount);
  EXPECT_DOUBLE_EQ(back.trace.duration, original.trace.duration);
  EXPECT_EQ(back.trace.model, original.trace.model);
  EXPECT_DOUBLE_EQ(back.trace.nightActivity, original.trace.nightActivity);
  EXPECT_EQ(back.catalog.itemCount, 17u);
  EXPECT_DOUBLE_EQ(back.catalog.refreshPeriod, sim::hours(7));
  EXPECT_DOUBLE_EQ(back.workload.queriesPerNodePerDay, 3.5);
  EXPECT_EQ(back.cache.cachingNodesPerItem, 11u);
  EXPECT_DOUBLE_EQ(back.network.contactLossRate, 0.25);
  EXPECT_EQ(back.estimator.mode, trace::EstimatorMode::kSlidingWindow);
  EXPECT_EQ(back.allocation, cache::AllocationPolicy::kSqrt);
  EXPECT_EQ(back.scheme, SchemeKind::kEpidemic);
  EXPECT_EQ(back.hierarchical.hierarchy.fanoutBound, 5u);
  EXPECT_DOUBLE_EQ(back.hierarchical.replication.theta, 0.93);
  EXPECT_EQ(back.hierarchical.maintenance, core::MaintenanceMode::kStatic);
  EXPECT_FALSE(back.hierarchical.relayAssisted);
  EXPECT_TRUE(back.churnEnabled);
  EXPECT_DOUBLE_EQ(back.churn.meanDowntime, sim::hours(13));
  EXPECT_TRUE(back.energyEnabled);
  EXPECT_DOUBLE_EQ(back.energy.batteryJoules, 432.0);
  EXPECT_EQ(back.seed, 77u);
}

TEST(ConfigIo, RoundTripProducesIdenticalRuns) {
  ExperimentConfig original;
  original.trace = trace::homogeneousConfig(12, 5.0, sim::days(4), 3);
  original.catalog.itemCount = 3;
  original.catalog.refreshPeriod = sim::hours(8);
  original.workload.queriesPerNodePerDay = 2.0;
  original.cache.cachingNodesPerItem = 5;
  const auto back = loadConfig(dumpConfig(original));
  const auto a = runExperiment(original);
  const auto b = runExperiment(back);
  EXPECT_DOUBLE_EQ(a.results.meanFreshFraction, b.results.meanFreshFraction);
  EXPECT_EQ(a.results.transfers.total().bytes, b.results.transfers.total().bytes);
}

TEST(ConfigIo, PartialConfigKeepsDefaults) {
  const auto c = loadConfig(R"({"catalog.itemCount": 4, "scheme": "flooding"})");
  EXPECT_EQ(c.catalog.itemCount, 4u);
  EXPECT_EQ(c.scheme, SchemeKind::kFlooding);
  EXPECT_EQ(c.cache.cachingNodesPerItem, ExperimentConfig{}.cache.cachingNodesPerItem);
}

TEST(ConfigIo, EmptyObjectIsAllDefaults) {
  const auto c = loadConfig("{}");
  EXPECT_EQ(c.scheme, ExperimentConfig{}.scheme);
}

TEST(ConfigIo, UnknownKeyRejected) {
  EXPECT_THROW(loadConfig(R"({"catalogg.itemCount": 4})"), InvariantViolation);
}

TEST(ConfigIo, UnknownKeySuggestsNearestValidKey) {
  try {
    loadConfig(R"({"cache.warmStarts": true})");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown config key 'cache.warmStarts'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'cache.warmStart'"), std::string::npos)
        << message;
  }
}

TEST(ConfigIo, UnknownKeyFarFromEverythingGetsNoSuggestion) {
  try {
    loadConfig(R"({"zzz.qqq": 1})");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown config key 'zzz.qqq'"), std::string::npos) << message;
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
  }
}

TEST(ConfigIo, TypeMismatchRejected) {
  EXPECT_THROW(loadConfig(R"({"catalog.itemCount": "four"})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"cache.warmStart": 1})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"scheme": true})"), InvariantViolation);
}

TEST(ConfigIo, NonIntegralIntegerRejected) {
  EXPECT_THROW(loadConfig(R"({"catalog.itemCount": 4.5})"), InvariantViolation);
}

TEST(ConfigIo, OutOfRangeIntegerRejectedWithKey) {
  // Each value is integral but does not fit its field's type.
  const std::pair<const char*, const char*> cases[] = {
      {"hierarchical.relayCopiesPerVersion", "-1"},          // std::uint32_t
      {"hierarchical.relayCopiesPerVersion", "4294967296"},  // 2^32
      {"sim.shards", "-1"},                                  // std::size_t
      {"sim.shards", "18446744073709551616"},                // 2^64
      {"catalog.itemCount", "-1"},
      {"seed", "1e30"},
      {"seed", "18446744073709551616"},  // 2^64
      {"trace.seed", "18446744073709551616"},
  };
  for (const auto& [key, value] : cases) {
    const std::string json = std::string("{\"") + key + "\": " + value + "}";
    try {
      loadConfig(json);
      ADD_FAILURE() << "accepted " << json;
    } catch (const InvariantViolation& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(std::string("key '") + key + "'"), std::string::npos)
          << message;
      EXPECT_NE(message.find("must be in ["), std::string::npos) << message;
    }
    ExperimentConfig config;
    EXPECT_THROW(applyConfigJson(config, json), InvariantViolation) << json;
  }
}

TEST(ConfigIo, IntegerRangeEndpointsAccepted) {
  const auto c = loadConfig(
      R"({"hierarchical.relayCopiesPerVersion": 4294967295, "sim.shards": 0, )"
      R"("seed": 9007199254740992})");
  EXPECT_EQ(c.hierarchical.relayCopiesPerVersion, 4294967295u);
  EXPECT_EQ(c.shards, 0u);
  EXPECT_EQ(c.seed, 9007199254740992u);

  // Integers above 2^53 load and dump exactly, up to 2^64 - 1.
  const auto d = loadConfig(
      R"({"seed": 9007199254740993, "trace.seed": 18446744073709551615, )"
      R"("workload.seed": 18446744073709551614})");
  EXPECT_EQ(d.seed, 9007199254740993u);
  EXPECT_EQ(d.trace.seed, 18446744073709551615u);
  EXPECT_EQ(d.workload.seed, 18446744073709551614u);
  const std::string dumped = dumpConfig(d);
  EXPECT_NE(dumped.find("\"seed\": 9007199254740993"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"trace.seed\": 18446744073709551615"), std::string::npos) << dumped;
  const auto reloaded = loadConfig(dumped);
  EXPECT_EQ(reloaded.seed, d.seed);
  EXPECT_EQ(reloaded.trace.seed, d.trace.seed);
  EXPECT_EQ(reloaded.workload.seed, d.workload.seed);
}

TEST(ConfigIo, UnknownEnumValueRejected) {
  EXPECT_THROW(loadConfig(R"({"scheme": "telepathy"})"), InvariantViolation);
}

TEST(ConfigIo, MalformedJsonRejected) {
  EXPECT_THROW(loadConfig(""), InvariantViolation);
  EXPECT_THROW(loadConfig("{"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"a": 1,})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"a": 1} trailing)"), InvariantViolation);
}

TEST(ConfigIo, WhitespaceAndEscapesTolerated) {
  const auto c = loadConfig("  {\n\t\"seed\" :\t42 \n}  \n");
  EXPECT_EQ(c.seed, 42u);
}

TEST(ConfigIo, FileRoundTrip) {
  ExperimentConfig original;
  original.seed = 123;
  original.catalog.itemCount = 6;
  const std::string path = "/tmp/dtncache_config_test.json";
  saveConfigFile(original, path);
  const auto back = loadConfigFile(path);
  EXPECT_EQ(back.seed, 123u);
  EXPECT_EQ(back.catalog.itemCount, 6u);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(loadConfigFile("/nonexistent/cfg.json"), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::runner
