// Differential tests: compiled invariants (model/invariant) against the
// reference interpreter, props::EvalPropertyExpr over a ModelStateView.
// Both must give the same verdict, or throw the same error text, on
// every state: the reachable states of the expert groups' models, and
// exhaustively enumerated states of a small hand-made model.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "config/builder.hpp"
#include "core/sanitizer.hpp"
#include "corpus/corpus.hpp"
#include "corpus/groups.hpp"
#include "ir/analyzer.hpp"
#include "model/engine.hpp"
#include "model/invariant.hpp"
#include "model/state_view.hpp"
#include "props/eval.hpp"
#include "util/error.hpp"

namespace iotsan {
namespace {

/// "holds", "violated", or the text of the error the evaluator threw.
std::string Outcome(const std::function<bool()>& eval) {
  try {
    return eval() ? "holds" : "violated";
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

/// Compares both evaluators on `state`; returns how many disagreed.
int Disagreements(const model::SystemModel& model,
                  const std::vector<model::CompiledInvariant>& invariants,
                  const std::vector<props::Property>& properties,
                  const model::SystemState& state) {
  const model::ModelStateView view(model, state);
  int mismatches = 0;
  for (const model::CompiledInvariant& invariant : invariants) {
    const props::Property& property = properties[invariant.property_index()];
    const std::string compiled =
        Outcome([&] { return invariant.Holds(state); });
    const std::string reference = Outcome([&] {
      return props::EvalPropertyExpr(property.ParsedExpression(), view);
    });
    if (compiled != reference) {
      ++mismatches;
      ADD_FAILURE() << property.id << " `" << property.expression
                    << "`: compiled " << compiled << ", interpreter "
                    << reference;
    }
  }
  return mismatches;
}

/// Every stable state the checker's exhaustive search reaches within
/// `max_events` external events (the store keys on state and depth,
/// as CheckOptions::include_depth_in_state does by default).
std::vector<model::SystemState> ReachableStates(
    const model::SystemModel& model, int max_events,
    const std::vector<model::FailureScenario>& scenarios) {
  const model::CascadeEngine engine(model);
  std::set<std::vector<std::uint8_t>> seen;
  std::vector<model::SystemState> states;
  std::vector<std::pair<model::SystemState, int>> stack;
  stack.emplace_back(model.MakeInitialState(), 0);
  while (!stack.empty()) {
    auto [state, depth] = std::move(stack.back());
    stack.pop_back();
    std::vector<std::uint8_t> key = state.Serialize();
    key.push_back(static_cast<std::uint8_t>(depth));
    if (!seen.insert(std::move(key)).second) continue;
    states.push_back(state);
    if (depth >= max_events) continue;
    for (const model::ExternalEvent& event : engine.EnabledEvents(state)) {
      for (const model::FailureScenario& failure : scenarios) {
        for (model::StepOutcome& outcome : engine.Apply(
                 state, event, failure, model::Scheduling::kSequential)) {
          stack.emplace_back(std::move(outcome.state), depth + 1);
        }
      }
    }
  }
  return states;
}

/// Builds the model of each related set the sanitizer checks for `sut`.
std::vector<model::SystemModel> GroupModels(
    const corpus::SystemUnderTest& sut) {
  core::Sanitizer sanitizer(sut.deployment);
  for (const auto& [name, source] : sut.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  const core::SanitizerOptions options;
  core::SanitizerReport report;
  std::vector<model::SystemModel> models;
  for (const std::vector<std::size_t>& group :
       sanitizer.PlanGroups(options, report)) {
    config::Deployment sub = sut.deployment;
    sub.apps.clear();
    std::vector<ir::AnalyzedApp> apps;
    for (std::size_t i : group) {
      const config::AppConfig& app = sut.deployment.apps[i];
      sub.apps.push_back(app);
      auto extra = sut.extra_sources.find(app.app);
      apps.push_back(ir::AnalyzeSource(extra != sut.extra_sources.end()
                                           ? extra->second
                                           : corpus::FindApp(app.app)->source,
                                       app.app));
    }
    models.emplace_back(std::move(sub), std::move(apps),
                        core::EffectiveModelOptions(options));
  }
  return models;
}

TEST(CompiledInvariantTest, AgreesWithInterpreterOnExpertGroupSearches) {
  std::size_t states_checked = 0;
  for (std::size_t g = 0; g < corpus::ExpertGroups().size(); ++g) {
    const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[g];
    // One group also under failure scenarios: offline sensors make the
    // physical and cyber readings diverge.
    const auto& scenarios = g == 3 ? model::FailureScenario::AllScenarios()
                                   : model::FailureScenario::NoFailure();
    for (const model::SystemModel& model : GroupModels(sut)) {
      ASSERT_FALSE(model.invariants().empty());
      for (const model::SystemState& state :
           ReachableStates(model, 3, scenarios)) {
        ++states_checked;
        ASSERT_EQ(Disagreements(model, model.invariants(),
                                model.active_properties(), state),
                  0)
            << sut.deployment.name;
      }
    }
  }
  EXPECT_GT(states_checked, 10000u);
}

// ---- Hand-made expressions ---------------------------------------------------

/// A small home whose state space is enumerable: a numeric temperature
/// sensor, presence, a lock, two lights, and three modes.
model::SystemModel SmallHome() {
  config::DeploymentBuilder b("small");
  b.Device("temp", "temperatureSensor", {"tempSensor"});
  b.Device("alice", "presenceSensor", {"presence"});
  b.Device("door", "smartLock", {"mainDoorLock"});
  b.Device("light1", "smartSwitch", {"light"});
  b.Device("light2", "smartSwitch", {"light", "porch"});
  return model::SystemModel(b.Build(), {});
}

/// Every combination of each device's first attribute, the mode, and
/// the lights' online flags (other attributes stay at their initial
/// values).
std::vector<model::SystemState> AllStates(const model::SystemModel& model) {
  std::vector<model::SystemState> states{model.MakeInitialState()};
  for (std::size_t d = 0; d < model.devices().size(); ++d) {
    const int domain = model.devices()[d].attributes()[0]->domain_size();
    const std::vector<bool> flags =
        model.devices()[d].HasRole("light") ? std::vector<bool>{true, false}
                                            : std::vector<bool>{true};
    std::vector<model::SystemState> next;
    for (const model::SystemState& base : states) {
      // Value indices include one past the domain: the compiled tables
      // must render out-of-domain values as the interpreter does ("?").
      for (int v = 0; v <= domain; ++v) {
        for (bool online : flags) {
          model::SystemState s = base;
          s.physical(static_cast<int>(d), 0) = static_cast<std::int16_t>(v);
          s.set_online(static_cast<int>(d), online);
          next.push_back(std::move(s));
        }
      }
    }
    states = std::move(next);
  }
  std::vector<model::SystemState> out;
  for (const model::SystemState& base : states) {
    for (std::size_t m = 0; m < model.modes().size(); ++m) {
      model::SystemState s = base;
      s.mode = static_cast<std::int16_t>(m);
      out.push_back(std::move(s));
    }
  }
  return out;
}

TEST(CompiledInvariantTest, AgreesWithInterpreterOnHandMadeExpressions) {
  const model::SystemModel model = SmallHome();
  const std::vector<std::string> expressions = {
      // Quantifiers, including vacuous ones over an empty role.
      R"(all("nobody", "switch") == "on")",
      R"(any("nobody", "switch") == "on")",
      R"(all("light", "switch") == "on")",
      R"(any("light", "switch") != "off")",
      R"("on" == any("light", "switch"))",
      R"(all("light", "lock") == "locked")",  // attribute absent
      // Numeric thresholds, both operand orders.
      R"(any("tempSensor", "temperature") < 65)",
      R"(all("tempSensor", "temperature") >= 80)",
      R"(70 <= any("tempSensor", "temperature"))",
      R"(any("tempSensor", "temperature") == 90)",
      R"(any("light", "switch") > 1)",        // not numeric: skipped
      R"(any("tempSensor", "temperature") == "70")",  // by name
      // count / online / offline / exists / mode.
      R"(count("light", "switch", "on") >= 2)",
      R"(count("light", "switch", "?") == 1)",
      R"(count("nobody", "switch", "on") == 0)",
      R"(online("light"))",
      R"(offline("light") || online("nobody"))",
      R"(exists("porch") && !exists("nobody"))",
      R"(mode == "Away")",
      R"("Night" != mode)",
      R"(mode == "Vacation")",
      // Ternaries, elvis, arithmetic, boolean comparisons.
      R"(mode == "Home" ? any("light", "switch") == "on"
                        : all("light", "switch") == "off")",
      R"((mode == "Home" ? any("light", "switch")
                         : all("light", "switch")) == "on")",
      R"(any("light", "switch") == (mode == "Away" ? "on" : "off"))",
      R"(any("tempSensor", "temperature") > count("light", "switch", "on") * 30)",
      R"(mode == "Home" ?: any("mainDoorLock", "lock") == "unlocked")",
      R"(-count("light", "switch", "on") < -1)",
      R"(count("light", "switch", "on") % 2 == 1)",
      R"((mode == "Away") == (any("presence", "presence") == "notpresent"))",
      R"(!(all("presence", "presence") == "notpresent"
           && any("mainDoorLock", "lock") == "unlocked"))",
      // Malformed: every one must raise the interpreter's error text,
      // and only where the interpreter evaluates it.
      R"(foo == 1)",
      R"(mode == "Away" && foo)",
      R"(mode == "Home" || count("light"))",
      R"(any("light", "switch"))",
      R"(!count("light", "switch", "on"))",
      R"(any("light", 3) == "on")",
      R"(bogus("light") == 1)",
      R"(light.switch == "on")",
      R"(any("light", "switch") == all("light", "switch"))",
      R"(any("light", "switch") < "on")",
      R"(any("nobody", "switch") < "on")",
      R"(any("tempSensor", "temperature") + 1)",
      R"(any("tempSensor", "temperature") == true)",
      R"(mode < "Away")",
      R"(-mode == 1)",
      R"(1 + "a" == 2)",
      R"(count("light", "switch", "on") % 0 == 0)",
      R"(100000000000000000000 % 7 == 1)",
      R"(true < false)",
      R"(null == 1)",
      R"([1, 2] == 1)",
      R"(mode == "Home" ? 1 : "x")",
  };
  std::vector<props::Property> properties;
  std::vector<model::CompiledInvariant> invariants;
  for (std::size_t i = 0; i < expressions.size(); ++i) {
    properties.push_back(props::MakeInvariant(
        "H" + std::to_string(i), "hand-made", "case " + std::to_string(i),
        expressions[i]));
  }
  for (std::size_t i = 0; i < properties.size(); ++i) {
    invariants.emplace_back(properties[i], i, model.devices(), model.modes());
  }
  const std::vector<model::SystemState> states = AllStates(model);
  ASSERT_GT(states.size(), 1000u);
  int mismatches = 0;
  for (const model::SystemState& state : states) {
    mismatches += Disagreements(model, invariants, properties, state);
    ASSERT_LE(mismatches, 20) << "stopping after 20 disagreements";
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CompiledInvariantTest, ModuloByZeroOrOutOfRangeIsAnError) {
  // Integer remainder is undefined for these operands; both evaluators
  // reject them instead.
  const model::SystemModel model = SmallHome();
  const model::SystemState state = model.MakeInitialState();
  const model::ModelStateView view(model, state);
  for (const char* expression :
       {R"(count("light", "switch", "on") % 0 == 0)",
        R"(100000000000000000000 % 7 == 1)"}) {
    const props::Property property =
        props::MakeInvariant("M", "hand-made", "modulo", expression);
    const model::CompiledInvariant invariant(property, 0, model.devices(),
                                             model.modes());
    EXPECT_THROW(invariant.Holds(state), SemanticError) << expression;
    EXPECT_THROW(props::EvalPropertyExpr(property.ParsedExpression(), view),
                 SemanticError)
        << expression;
  }
}

TEST(CompiledInvariantTest, PrecomputesDetailModeAndRoleDevices) {
  const model::SystemModel model = SmallHome();
  const props::Property property = props::MakeInvariant(
      "U1", "User", "the door is locked at night",
      R"(!(mode == "Night" && any("mainDoorLock", "lock") == "unlocked"))");
  const model::CompiledInvariant invariant(property, 7, model.devices(),
                                           model.modes());
  EXPECT_EQ(invariant.property_index(), 7u);
  EXPECT_EQ(invariant.detail(),
            "assertion violated: the door is locked at night (U1)");
  EXPECT_TRUE(invariant.references_mode());
  EXPECT_FALSE(invariant.ReferencesDevice(model.DeviceIndex("temp")));
  EXPECT_TRUE(invariant.ReferencesDevice(model.DeviceIndex("door")));
}

TEST(CompiledInvariantTest, ModelCompilesEachActiveInvariantInOrder) {
  model::SystemModel model = SmallHome();
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < model.active_properties().size(); ++i) {
    if (model.active_properties()[i].kind == props::PropertyKind::kInvariant) {
      expected.push_back(i);
    }
  }
  std::vector<std::size_t> compiled;
  for (const model::CompiledInvariant& invariant : model.invariants()) {
    compiled.push_back(invariant.property_index());
  }
  EXPECT_EQ(compiled, expected);
  EXPECT_FALSE(compiled.empty());

  // Re-selecting recompiles against the new property list.
  std::vector<props::Property> only = {props::MakeInvariant(
      "U1", "User", "lights off", R"(all("light", "switch") == "off")")};
  EXPECT_EQ(model.SelectProperties(only), 1);
  ASSERT_EQ(model.invariants().size(), 1u);
  EXPECT_EQ(model.invariants()[0].property_index(), 0u);
}

}  // namespace
}  // namespace iotsan
