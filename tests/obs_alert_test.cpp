// Tests of the alert rules engine: the rule-file grammar (and its
// rejection diagnostics), the pending -> firing -> resolved state
// machine with hold-downs, absence and rate-of-change conditions,
// event-sourced rules fed by the structured log, the reload contract
// (unchanged rules keep their state), and the exported metrics.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "json_lite.h"
#include "v6class/obs/alert.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/metrics.h"

namespace {

using namespace v6;

/// A sampler over a mutable map: tests drive the series by assignment;
/// erase() models a missing sample.
struct fake_sampler {
    std::map<std::pair<std::string, std::string>, double> values;

    obs::alert_engine::sampler fn() {
        return [this](const std::string& s,
                      const std::string& l) -> std::optional<double> {
            const auto it = values.find({s, l});
            if (it == values.end()) return std::nullopt;
            return it->second;
        };
    }
};

obs::alert_rule parse_one(const std::string& line) {
    std::string error;
    const auto rules = obs::parse_alert_rules(line, &error);
    EXPECT_TRUE(rules.has_value()) << error;
    EXPECT_EQ(rules->size(), 1u);
    return rules->front();
}

obs::alert_state state_of(const obs::alert_engine& eng,
                          const std::string& name) {
    for (const auto& s : eng.snapshot())
        if (s.rule.name == name) return s.state;
    ADD_FAILURE() << "no rule " << name;
    return obs::alert_state::inactive;
}

// --------------------------------------------------------------- parser

TEST(AlertParseTest, FullRuleLineRoundTrips) {
    const obs::alert_rule r = parse_one(
        "hot series=v6class_gamma16_48 label=p48 above=0.9 for=3 level=error");
    EXPECT_EQ(r.name, "hot");
    EXPECT_EQ(r.series, "v6class_gamma16_48");
    EXPECT_EQ(r.label, "p48");
    EXPECT_EQ(r.cond, obs::alert_cond::above);
    EXPECT_DOUBLE_EQ(r.threshold, 0.9);
    EXPECT_EQ(r.hold, 3u);
    EXPECT_EQ(r.level, obs::event_level::error);
}

TEST(AlertParseTest, CommentsAndBlanksAreSkipped) {
    std::string error;
    const auto rules = obs::parse_alert_rules(
        "# header comment\n"
        "\n"
        "a series=s below=1   # trailing comment\n"
        "b event=drift\n",
        &error);
    ASSERT_TRUE(rules.has_value()) << error;
    ASSERT_EQ(rules->size(), 2u);
    EXPECT_EQ((*rules)[0].cond, obs::alert_cond::below);
    EXPECT_EQ((*rules)[1].cond, obs::alert_cond::event);
    EXPECT_EQ((*rules)[1].event_kind, "drift");
}

TEST(AlertParseTest, RejectionsNameTheOffendingLine) {
    std::string error;
    // Unknown key.
    EXPECT_FALSE(obs::parse_alert_rules("a series=s above=1 bogus=2", &error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    // No condition.
    EXPECT_FALSE(obs::parse_alert_rules("ok series=s above=1\nb series=s",
                                        &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    // Two conditions.
    EXPECT_FALSE(obs::parse_alert_rules("a series=s above=1 below=2", &error));
    // Bad number.
    EXPECT_FALSE(obs::parse_alert_rules("a series=s above=wat", &error));
    // Sampled condition without a series.
    EXPECT_FALSE(obs::parse_alert_rules("a above=1", &error));
    // absent must be >= 1 evaluation.
    EXPECT_FALSE(obs::parse_alert_rules("a series=s absent=0", &error));
    // Bad level.
    EXPECT_FALSE(obs::parse_alert_rules("a series=s above=1 level=loud",
                                        &error));
}

// ---------------------------------------------------------- state machine

TEST(AlertParseTest, NodeSugarExpandsToFleetLivenessAbsence) {
    const obs::alert_rule r = parse_one("collector-gone node=edge1 for=2");
    EXPECT_EQ(r.name, "collector-gone");
    EXPECT_EQ(r.series, "v6fleet_node_up");
    EXPECT_EQ(r.label, "node=edge1");
    EXPECT_EQ(r.cond, obs::alert_cond::absent);
    EXPECT_DOUBLE_EQ(r.threshold, 1);  // one missing eval trips it
    EXPECT_EQ(r.hold, 2u);
}

TEST(AlertParseTest, NodeSugarIsACondLikeAnyOther) {
    std::string error;
    // node= counts as the rule's one condition...
    EXPECT_FALSE(obs::parse_alert_rules("a node=x above=1", &error));
    EXPECT_NE(error.find("exactly one"), std::string::npos) << error;
    // ...and needs an id.
    EXPECT_FALSE(obs::parse_alert_rules("a node=", &error));
    EXPECT_NE(error.find("collector id"), std::string::npos) << error;
}

TEST(AlertEngineTest, ThresholdFiresImmediatelyWithoutHold) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("hot series=s above=10")});
    fake_sampler fs;

    fs.values[{"s", ""}] = 5;
    eng.evaluate(fs.fn(), 1);
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::inactive);

    fs.values[{"s", ""}] = 11;
    eng.evaluate(fs.fn(), 2);
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::firing);
    EXPECT_EQ(eng.firing_count(), 1u);

    fs.values[{"s", ""}] = 9;
    eng.evaluate(fs.fn(), 3);
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::resolved);
    EXPECT_EQ(eng.firing_count(), 0u);

    eng.evaluate(fs.fn(), 4);  // resolved is a one-evaluation state
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::inactive);
}

TEST(AlertEngineTest, HoldDownKeepsPendingUntilStreakExceedsFor) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("hot series=s above=10 for=2")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 99;

    eng.evaluate(fs.fn(), 1);  // streak 1
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::pending);
    eng.evaluate(fs.fn(), 2);  // streak 2
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::pending);
    EXPECT_EQ(eng.pending_count(), 1u);
    eng.evaluate(fs.fn(), 3);  // streak 3 > for=2
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::firing);

    // A dip while merely pending goes straight back to inactive, no
    // resolved transition (it never fired).
    eng.load_rules({parse_one("p series=s above=10 for=5")});
    eng.evaluate(fs.fn(), 4);
    EXPECT_EQ(state_of(eng, "p"), obs::alert_state::pending);
    fs.values[{"s", ""}] = 0;
    eng.evaluate(fs.fn(), 5);
    EXPECT_EQ(state_of(eng, "p"), obs::alert_state::inactive);
}

TEST(AlertEngineTest, MissingSampleFreezesAThresholdStreak) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("hot series=s above=10 for=1")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 50;
    eng.evaluate(fs.fn(), 1);
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::pending);

    fs.values.clear();  // series vanishes: no information
    eng.evaluate(fs.fn(), 2);
    eng.evaluate(fs.fn(), 3);
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::pending);  // frozen

    fs.values[{"s", ""}] = 50;
    eng.evaluate(fs.fn(), 4);  // streak resumes: 2 > for=1
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::firing);
}

TEST(AlertEngineTest, AbsenceCountsConsecutiveMissingEvaluations) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("gone series=s absent=3")});
    fake_sampler fs;

    eng.evaluate(fs.fn(), 1);
    eng.evaluate(fs.fn(), 2);
    EXPECT_NE(state_of(eng, "gone"), obs::alert_state::firing);
    eng.evaluate(fs.fn(), 3);  // 3rd consecutive miss
    EXPECT_EQ(state_of(eng, "gone"), obs::alert_state::firing);

    fs.values[{"s", ""}] = 1;  // series comes back
    eng.evaluate(fs.fn(), 4);
    EXPECT_EQ(state_of(eng, "gone"), obs::alert_state::resolved);
    eng.evaluate(fs.fn(), 5);
    fs.values.erase({"s", ""});
    eng.evaluate(fs.fn(), 6);  // counter restarted: 1 miss, not 4
    EXPECT_NE(state_of(eng, "gone"), obs::alert_state::firing);
}

TEST(AlertEngineTest, DeltaComparesAgainstThePreviousSample) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("jump series=s delta=0.5")});
    fake_sampler fs;

    fs.values[{"s", ""}] = 100;
    eng.evaluate(fs.fn(), 1);  // first sample: no previous, no fire
    EXPECT_EQ(state_of(eng, "jump"), obs::alert_state::inactive);

    fs.values[{"s", ""}] = 120;  // +20%
    eng.evaluate(fs.fn(), 2);
    EXPECT_EQ(state_of(eng, "jump"), obs::alert_state::inactive);

    fs.values[{"s", ""}] = 250;  // more than +50%
    eng.evaluate(fs.fn(), 3);
    EXPECT_EQ(state_of(eng, "jump"), obs::alert_state::firing);

    fs.values[{"s", ""}] = 260;  // settles
    eng.evaluate(fs.fn(), 4);
    EXPECT_EQ(state_of(eng, "jump"), obs::alert_state::resolved);
}

// ------------------------------------------------------------ event rules

TEST(AlertEngineTest, EventRuleFiresOnNewMatchingEventsAndAutoResolves) {
    obs::event_log log;
    obs::alert_engine eng(nullptr, &log);
    eng.load_rules({parse_one("drift_watch event=drift")});
    fake_sampler fs;

    eng.evaluate(fs.fn(), 1);  // nothing logged yet
    EXPECT_EQ(state_of(eng, "drift_watch"), obs::alert_state::inactive);

    log.log(obs::event_level::warn, "drift", "gamma shifted");
    eng.evaluate(fs.fn(), 2);
    EXPECT_EQ(state_of(eng, "drift_watch"), obs::alert_state::firing);

    // Still firing while events keep arriving; resolves on a quiet round.
    log.log(obs::event_level::warn, "drift", "again");
    eng.evaluate(fs.fn(), 3);
    EXPECT_EQ(state_of(eng, "drift_watch"), obs::alert_state::firing);
    eng.evaluate(fs.fn(), 4);
    EXPECT_EQ(state_of(eng, "drift_watch"), obs::alert_state::resolved);

    // Other kinds do not match.
    log.log(obs::event_level::warn, "lifecycle", "noise");
    eng.evaluate(fs.fn(), 5);
    EXPECT_EQ(state_of(eng, "drift_watch"), obs::alert_state::inactive);
}

TEST(AlertEngineTest, OwnTransitionEventsDoNotSelfTrigger) {
    obs::event_log log;
    obs::alert_engine eng(nullptr, &log);
    // A rule matching the engine's own "alert" transition events would
    // otherwise latch forever.
    eng.load_rules({parse_one("meta event=alert"),
                    parse_one("hot series=s above=1")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 5;
    eng.evaluate(fs.fn(), 1);  // hot fires -> logs an "alert" event
    EXPECT_EQ(state_of(eng, "hot"), obs::alert_state::firing);
    eng.evaluate(fs.fn(), 2);
    EXPECT_EQ(state_of(eng, "meta"), obs::alert_state::inactive);
}

TEST(AlertEngineTest, TransitionsRaiseStructuredEvents) {
    obs::event_log log;
    obs::alert_engine eng(nullptr, &log);
    eng.load_rules({parse_one("hot series=s above=1 level=error")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 5;
    eng.evaluate(fs.fn(), 7);
    fs.values[{"s", ""}] = 0;
    eng.evaluate(fs.fn(), 8);

    const auto events = log.recent(10);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, "alert");
    EXPECT_EQ(events[0].level, obs::event_level::error);  // rule's level
    EXPECT_NE(events[0].message.find("firing"), std::string::npos);
    EXPECT_EQ(events[1].level, obs::event_level::info);  // resolved is calm
    EXPECT_NE(events[1].message.find("resolved"), std::string::npos);
}

// ---------------------------------------------------------------- reload

TEST(AlertEngineTest, ReloadPreservesStateForIdenticalRulesOnly) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("keep series=s above=1 for=1"),
                    parse_one("change series=t above=1")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 5;
    fs.values[{"t", ""}] = 5;
    eng.evaluate(fs.fn(), 1);
    eng.evaluate(fs.fn(), 2);
    EXPECT_EQ(state_of(eng, "keep"), obs::alert_state::firing);
    EXPECT_EQ(state_of(eng, "change"), obs::alert_state::firing);

    // SIGHUP shape: "keep" is byte-identical, "change" got a new
    // threshold, "fresh" is new.
    eng.load_rules({parse_one("keep series=s above=1 for=1"),
                    parse_one("change series=t above=2"),
                    parse_one("fresh series=u above=1")});
    EXPECT_EQ(state_of(eng, "keep"), obs::alert_state::firing);   // carried
    EXPECT_EQ(state_of(eng, "change"), obs::alert_state::inactive);  // reset
    EXPECT_EQ(state_of(eng, "fresh"), obs::alert_state::inactive);
    EXPECT_EQ(eng.rule_count(), 3u);
    EXPECT_EQ(eng.firing_count(), 1u);
}

TEST(AlertEngineTest, LoadFileFailureKeepsTheCurrentRules) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("hot series=s above=1")});
    std::string error;
    EXPECT_FALSE(eng.load_file("/nonexistent/alerts.txt", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(eng.rule_count(), 1u);
}

// --------------------------------------------------------------- metrics

TEST(AlertEngineTest, CountersAndGaugesTrackTransitions) {
    obs::registry reg;
    obs::alert_engine eng(&reg);
    eng.load_rules({parse_one("hot series=s above=1 for=1")});
    fake_sampler fs;
    fs.values[{"s", ""}] = 5;
    eng.evaluate(fs.fn(), 1);  // pending
    eng.evaluate(fs.fn(), 2);  // firing
    fs.values[{"s", ""}] = 0;
    eng.evaluate(fs.fn(), 3);  // resolved

    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6class_alerts_pending_total 1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("v6class_alerts_firing_total 1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("v6class_alerts_resolved_total 1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("v6class_alerts_firing 0"), std::string::npos) << text;
    EXPECT_EQ(eng.evaluations(), 3u);
}

TEST(AlertEngineTest, StatusJsonListsEveryRule) {
    obs::alert_engine eng;
    eng.load_rules({parse_one("a series=s above=1"),
                    parse_one("b event=drift")});
    const std::string json = eng.status_json();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\":\"b\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"state\":\"inactive\""), std::string::npos) << json;
}

TEST(AlertEngineTest, StatusJsonEscapesControlCharacters) {
    obs::alert_rule rule = parse_one("a series=s above=1");
    rule.name = "ctl\x01\tname";
    obs::alert_engine eng;
    eng.load_rules({rule});
    const std::string json = eng.status_json();
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"name\":\"ctl\\u0001\\tname\""), std::string::npos)
        << json;
}

}  // namespace
