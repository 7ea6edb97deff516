// PolicySpec unit tests: the registry, validation rules, JSON round-trips
// (byte-identical re-serialization), the shared unknown-token error path
// (through the scenario and repro parsers), and the stress scenario's
// composed-spec axis.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/sched/policy.h"
#include "src/sim/random.h"
#include "src/stress/runner.h"
#include "src/stress/scenario.h"

namespace splitio {
namespace {

TEST(PolicySpecRegistry, CanonicalKindsThenHybrids) {
  const std::vector<std::string> names(AllPolicySpecNames().begin(),
                                       AllPolicySpecNames().end());
  ASSERT_EQ(names.size(), 10u);
  // Canonical kinds first, in SchedKind order; the hybrids close the list.
  for (size_t i = 0; i < std::size(kAllSchedKinds); ++i) {
    EXPECT_EQ(names[i], SchedName(kAllSchedKinds[i]));
  }
  EXPECT_EQ(names[8], "deadline-token");
  EXPECT_EQ(names[9], "tenant-afq");

  PolicySpec spec;
  for (const std::string& name : names) {
    ASSERT_TRUE(NamedPolicySpec(name, &spec)) << name;
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(ValidateSpec(spec), "") << name;
  }
  EXPECT_FALSE(NamedPolicySpec("no-such-policy", &spec));
}

TEST(PolicySpecRegistry, SpecForKindMatchesRegistry) {
  for (SchedKind kind : kAllSchedKinds) {
    PolicySpec by_kind = SpecForKind(kind);
    PolicySpec by_name;
    ASSERT_TRUE(NamedPolicySpec(SchedName(kind), &by_name));
    EXPECT_EQ(by_kind, by_name) << SchedName(kind);
  }
}

// A built scheduler reports the registry's name, legacy elevators included:
// one spelling per scheduler.
TEST(PolicySpecRegistry, BuiltSchedulerNameIsRegistryName) {
  for (SchedKind kind : kAllSchedKinds) {
    SchedInstance sched = MakeSched(kind);
    std::string name =
        sched.split != nullptr ? sched.split->name() : sched.legacy->name();
    EXPECT_EQ(name, SchedName(kind));
  }
}

TEST(PolicySpecRegistry, UnknownSchedMessageListsEveryName) {
  std::string msg = UnknownSchedMessage("bogus");
  EXPECT_NE(msg.find("unknown scheduler \"bogus\""), std::string::npos) << msg;
  for (const char* name : AllPolicySpecNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(PolicySpecValidate, RejectsInterAxisContradictions) {
  // Legacy dispatch with a split-level axis.
  PolicySpec spec = CfqSpec();
  spec.budget = BudgetKind::kHierTokens;
  EXPECT_NE(ValidateSpec(spec), "");

  // Stride-pass budget without stride dispatch.
  spec = SplitNoopSpec();
  spec.budget = BudgetKind::kStridePass;
  EXPECT_NE(ValidateSpec(spec), "");

  // Account queue key without stride dispatch.
  spec = SplitNoopSpec();
  spec.key = QueueKey::kAccount;
  EXPECT_NE(ValidateSpec(spec), "");

  // Non-daemon writeback without deadline dispatch.
  spec = SplitTokenSpec();
  spec.writeback = WritebackKind::kSchedOwned;
  EXPECT_NE(ValidateSpec(spec), "");

  // Cause-charging tag rule with no ledger to charge into.
  spec = SplitNoopSpec();
  spec.tag = TagRule::kCauses;
  EXPECT_NE(ValidateSpec(spec), "");

  // deadline.own_wb out of sync with the writeback axis.
  spec = SplitDeadlineSpec();
  spec.deadline.own_writeback = !spec.deadline.own_writeback;
  EXPECT_NE(ValidateSpec(spec), "");

  spec = PolicySpec();
  EXPECT_NE(ValidateSpec(spec), "");  // empty name
}

TEST(PolicySpecJson, RegisteredSpecsRoundTripByteIdentical) {
  for (const char* name : AllPolicySpecNames()) {
    PolicySpec spec;
    ASSERT_TRUE(NamedPolicySpec(name, &spec));
    std::string json = PolicySpecToJson(spec);
    PolicySpec parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(PolicySpecFromJson(json, &parsed, &err))
        << name << ": " << err.Describe();
    EXPECT_EQ(parsed, spec) << name;
    EXPECT_EQ(PolicySpecToJson(parsed), json) << name;
  }
}

TEST(PolicySpecJson, RandomSpecsValidAndRoundTrip) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    PolicySpec spec = RandomPolicySpec(rng);
    ASSERT_EQ(ValidateSpec(spec), "") << "seed " << seed << ": " << spec.name;
    std::string json = PolicySpecToJson(spec);
    PolicySpec parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(PolicySpecFromJson(json, &parsed, &err))
        << "seed " << seed << ": " << err.Describe();
    EXPECT_EQ(parsed, spec) << "seed " << seed;
    EXPECT_EQ(PolicySpecToJson(parsed), json) << "seed " << seed;
  }
}

TEST(PolicySpecJson, UnknownAxisValueReportsTokenAndOffset) {
  std::string json = PolicySpecToJson(SplitTokenSpec());
  size_t pos = json.find("\"hier-tokens\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 13, "\"hyper-tokens\"");

  PolicySpec parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(PolicySpecFromJson(json, &parsed, &err));
  // Same contract as the trace parsers: the message names the offending
  // token and the offset points at it.
  EXPECT_NE(err.message.find("unknown budget \"hyper-tokens\""),
            std::string::npos)
      << err.Describe();
  EXPECT_EQ(err.offset, pos) << err.Describe();
  EXPECT_EQ(json.compare(err.offset, 14, "\"hyper-tokens\""), 0);
}

TEST(PolicySpecJson, InvalidCompositionFailsParseWithReason) {
  PolicySpec spec = SplitTokenSpec();
  std::string json = PolicySpecToJson(spec);
  size_t pos = json.find("\"pid\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 5, "\"account\"");  // account key needs stride dispatch

  PolicySpec parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(PolicySpecFromJson(json, &parsed, &err));
  EXPECT_NE(err.message.find("invalid policy spec"), std::string::npos)
      << err.Describe();
}

TEST(ScenarioSpec, SpecAxisRoundTripsThroughScenarioJson) {
  // Hunt a handful of seeds whose generated scenario drew the composed-spec
  // axis; the draw fires on ~1/4 of seeds.
  int found = 0;
  for (uint64_t seed = 1; seed <= 64 && found < 4; ++seed) {
    Scenario scenario = GenerateScenario(seed);
    if (!scenario.stack.use_spec) {
      continue;
    }
    ++found;
    EXPECT_EQ(ValidateSpec(scenario.stack.spec), "") << "seed " << seed;
    std::string json = ScenarioToJson(scenario);
    Scenario parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(ScenarioFromJson(json, &parsed, &err))
        << "seed " << seed << ": " << err.Describe();
    EXPECT_EQ(parsed, scenario) << "seed " << seed;
    EXPECT_EQ(ScenarioToJson(parsed), json) << "seed " << seed;
  }
  EXPECT_GT(found, 0) << "no seed in [1,64] drew the spec axis";
}

// The scenario's "sched" field takes a canonical kind only, so a hybrid
// name is rejected too, and the message lists the canonical names alone.
TEST(ScenarioSpec, UnknownSchedNameReportsTokenAndOffset) {
  for (const std::string bad : {"frob", "deadline-token"}) {
    Scenario scenario = GenerateScenario(1);
    std::string json = ScenarioToJson(scenario);
    std::string quoted =
        std::string("\"") + SchedName(scenario.stack.sched) + "\"";
    size_t pos = json.find("\"sched\":" + quoted);
    ASSERT_NE(pos, std::string::npos);
    size_t token = pos + 8;  // the value token after the key and colon
    json.replace(token, quoted.size(), "\"" + bad + "\"");

    Scenario parsed;
    jsonmini::ParseError err;
    EXPECT_FALSE(ScenarioFromJson(json, &parsed, &err));
    EXPECT_EQ(err.message.find("unknown scheduler \"" + bad + "\""), 0u)
        << err.Describe();
    EXPECT_EQ(err.offset, token) << err.Describe();
    std::string canonical = " (expected one of";
    for (SchedKind kind : kAllSchedKinds) {
      canonical += std::string(" ") + SchedName(kind);
    }
    EXPECT_EQ(err.message.substr(err.message.find(" (")), canonical + ")")
        << err.Describe();
  }
}

// A repro wrapping a bad scenario keeps the scenario parser's message and
// moves its offset onto the repro document.
TEST(ScenarioSpec, BadScenarioInReproKeepsMessageAndDocumentOffset) {
  StressFailure failure;
  failure.seed = 3;
  failure.oracle = "completion";
  failure.scenario = GenerateScenario(1);
  std::string json = ReproToJson(failure);
  std::string quoted =
      std::string("\"") + SchedName(failure.scenario.stack.sched) + "\"";
  size_t pos = json.find("\"sched\":" + quoted);
  ASSERT_NE(pos, std::string::npos);
  size_t token = pos + 8;
  json.replace(token, quoted.size(), "\"bogus\"");

  StressFailure parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(ReproFromJson(json, &parsed, &err));
  EXPECT_EQ(err.message.find("bad scenario: unknown scheduler \"bogus\""), 0u)
      << err.Describe();
  EXPECT_EQ(err.offset, token) << err.Describe();
}

}  // namespace
}  // namespace splitio
