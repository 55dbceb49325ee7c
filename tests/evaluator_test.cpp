// SmartScript evaluator tests: Groovy runtime semantics over the system
// state (the C++ equivalent of executing the generated Promela model).
#include <gtest/gtest.h>

#include <deque>

#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "model/evaluator.hpp"
#include "model/system_model.hpp"
#include "util/error.hpp"

namespace iotsan::model {
namespace {

/// Builds a one-app system around `methods` with a standard device set,
/// runs `handler` on an optional event, and exposes the results.
class Harness {
 public:
  explicit Harness(const std::string& methods,
                   const std::string& extra_inputs = "") {
    config::DeploymentBuilder b("harness");
    b.ContactPhone("555-0100");
    b.Device("sw1", "smartSwitch", {"light"});
    b.Device("sw2", "smartSwitch", {"light"});
    b.Device("lock1", "smartLock", {"mainDoorLock"});
    b.Device("temp1", "temperatureSensor", {"tempSensor"});
    b.Device("motion1", "motionSensor");
    b.Device("dimmer1", "dimmerSwitch");
    auto binder = b.App("Harness App");
    binder.Devices("switches", {"sw1", "sw2"})
        .Devices("lock1", {"lock1"})
        .Devices("sensor", {"temp1"})
        .Devices("motion1", {"motion1"})
        .Devices("dimmer1", {"dimmer1"})
        .Number("threshold", 65)
        .Text("greeting", "hello");

    std::string source = R"(
definition(name: "Harness App", namespace: "t")
preferences {
    section("S") {
        input "switches", "capability.switch", multiple: true
        input "lock1", "capability.lock"
        input "sensor", "capability.temperatureMeasurement"
        input "motion1", "capability.motionSensor"
        input "dimmer1", "capability.switchLevel"
        input "threshold", "number"
        input "greeting", "text"
)" + extra_inputs + R"(
    }
}
def installed() {
    subscribe(motion1, "motion", handler)
}
)" + methods;

    std::vector<ir::AnalyzedApp> apps;
    apps.push_back(ir::AnalyzeSource(source, "Harness App"));
    model_ = std::make_unique<SystemModel>(b.Build(), std::move(apps));
    state_ = model_->MakeInitialState();
  }

  /// Runs `handler(evt)` with a motion/active event.
  void Run(const std::string& handler = "handler") {
    devices::Event event;
    event.source = devices::EventSource::kDevice;
    event.device = model_->DeviceIndex("motion1");
    event.attribute = 0;
    event.value = 1;  // active
    Run(event, handler);
  }

  void Run(const devices::Event& event,
           const std::string& handler = "handler") {
    Evaluator evaluator(*model_, state_, queue_, log_, failure_);
    evaluator.InvokeHandler(
        0, handler, model_->apps()[0].analysis->app.FindMethod(handler),
        &event);
  }

  std::string Attr(const std::string& device, const std::string& attr) {
    const int d = model_->DeviceIndex(device);
    const int a = model_->devices()[d].AttributeIndex(attr);
    return model_->devices()[d].attributes()[a]->ValueName(
        state_.value(d, a));
  }

  SystemModel& model() { return *model_; }
  SystemState& state() { return state_; }
  CascadeLog& log() { return log_; }
  std::deque<devices::Event>& queue() { return queue_; }
  FailureScenario& failure() { return failure_; }

 private:
  std::unique_ptr<SystemModel> model_;
  SystemState state_;
  std::deque<devices::Event> queue_;
  CascadeLog log_;
  FailureScenario failure_;
};

TEST(EvaluatorTest, DeviceCommandUpdatesStateAndQueues) {
  Harness h("def handler(evt) { lock1.unlock() }");
  h.Run();
  EXPECT_EQ(h.Attr("lock1", "lock"), "unlocked");
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_TRUE(h.log().commands[0].delivered);
  EXPECT_TRUE(h.log().commands[0].state_changed);
  ASSERT_EQ(h.queue().size(), 1u);  // actuator state-change event
  EXPECT_EQ(h.queue()[0].source, devices::EventSource::kDevice);
}

TEST(EvaluatorTest, ListBroadcastCommandsEveryDevice) {
  Harness h("def handler(evt) { switches.on() }");
  h.Run();
  EXPECT_EQ(h.Attr("sw1", "switch"), "on");
  EXPECT_EQ(h.Attr("sw2", "switch"), "on");
  EXPECT_EQ(h.log().commands.size(), 2u);
}

TEST(EvaluatorTest, NoOpCommandDoesNotQueueEvents) {
  // Locks start locked; lock() is a no-op (Algorithm 1 line 17).
  Harness h("def handler(evt) { lock1.lock() }");
  h.Run();
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_FALSE(h.log().commands[0].state_changed);
  EXPECT_TRUE(h.queue().empty());
}

TEST(EvaluatorTest, ArgumentCommands) {
  Harness h("def handler(evt) { dimmer1.setLevel(75) }");
  h.Run();
  EXPECT_EQ(h.Attr("dimmer1", "level"), "75");
}

TEST(EvaluatorTest, EventObjectFields) {
  Harness h(R"(
def handler(evt) {
    state.name = evt.name
    state.value = evt.value
    state.who = evt.displayName
}
)");
  h.Run();
  const auto& app_state = h.state().app_state[0];
  EXPECT_EQ(app_state.at("name").AsString(), "motion");
  EXPECT_EQ(app_state.at("value").AsString(), "active");
  EXPECT_EQ(app_state.at("who").AsString(), "motion1");
}

TEST(EvaluatorTest, AttributeReads) {
  Harness h(R"(
def handler(evt) {
    state.t = sensor.currentTemperature
    state.sw = switches.first.currentSwitch
    state.viaMethod = lock1.currentValue("lock")
}
)");
  h.Run();
  const auto& app_state = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(app_state.at("t").AsNumber(), 70);  // initial reading
  EXPECT_EQ(app_state.at("sw").AsString(), "off");
  EXPECT_EQ(app_state.at("viaMethod").AsString(), "locked");
}

TEST(EvaluatorTest, GroovyTruthinessAndElvis) {
  Harness h(R"(
def handler(evt) {
    state.a = "" ? 1 : 2
    state.b = 0 ? 1 : 2
    state.c = [] ? 1 : 2
    state.d = "x" ? 1 : 2
    state.e = null ?: 9
    state.f = 5 ?: 9
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("a").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("b").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("c").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("d").AsNumber(), 1);
  EXPECT_DOUBLE_EQ(s.at("e").AsNumber(), 9);
  EXPECT_DOUBLE_EQ(s.at("f").AsNumber(), 5);
}

TEST(EvaluatorTest, CollectionUtilities) {
  Harness h(R"(
def handler(evt) {
    def nums = [3, 1, 2]
    state.size = nums.size()
    state.sum = nums.sum()
    state.found = nums.find { it > 1 }
    state.count = nums.count { it > 1 }
    state.any = nums.any { it == 2 }
    state.every = nums.every { it > 0 }
    state.joined = nums.collect { it * 10 }.join(",")
    state.has = 2 in nums
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("size").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("sum").AsNumber(), 6);
  EXPECT_DOUBLE_EQ(s.at("found").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("count").AsNumber(), 2);
  EXPECT_TRUE(s.at("any").AsBool());
  EXPECT_TRUE(s.at("every").AsBool());
  EXPECT_EQ(s.at("joined").AsString(), "30,10,20");
  EXPECT_TRUE(s.at("has").AsBool());
}

TEST(EvaluatorTest, DeviceListFiltering) {
  Harness h(R"(
def handler(evt) {
    switches.first.on()
    def lit = switches.findAll { it.currentSwitch == "on" }
    state.litCount = lit.size()
    lit.each { it.off() }
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("litCount").AsNumber(), 1);
  EXPECT_EQ(h.Attr("sw1", "switch"), "off");
}

TEST(EvaluatorTest, StringMethodsAndInterpolation) {
  Harness h(R"(
def handler(evt) {
    state.upper = greeting.toUpperCase()
    state.msg = "value is ${evt.value} at ${greeting}"
    state.n = "42".toInteger() + 1
    state.starts = greeting.startsWith("he")
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_EQ(s.at("upper").AsString(), "HELLO");
  EXPECT_EQ(s.at("msg").AsString(), "value is active at hello");
  EXPECT_DOUBLE_EQ(s.at("n").AsNumber(), 43);
  EXPECT_TRUE(s.at("starts").AsBool());
}

TEST(EvaluatorTest, UserMethodsAndRecursionControl) {
  Harness h(R"(
def handler(evt) {
    state.result = fib(10)
}
def fib(n) {
    if (n < 2) {
        return n
    }
    return fib(n - 1) + fib(n - 2)
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("result").AsNumber(), 55);
}

TEST(EvaluatorTest, ControlFlow) {
  Harness h(R"(
def handler(evt) {
    def total = 0
    for (x in [1, 2, 3, 4]) {
        if (x % 2 == 0) {
            total += x
        }
    }
    def i = 0
    while (i < 3) {
        i = i + 1
    }
    state.total = total
    state.i = i
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("total").AsNumber(), 6);
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("i").AsNumber(), 3);
}

TEST(EvaluatorTest, UnboundedLoopIsCutOff) {
  Harness h("def handler(evt) { while (true) { } }");
  EXPECT_THROW(h.Run(), Error);
}

TEST(EvaluatorTest, ModeChangeQueuesLocationEvent) {
  Harness h("def handler(evt) { setLocationMode(\"Away\") }");
  h.Run();
  EXPECT_EQ(h.state().mode, 1);
  ASSERT_EQ(h.queue().size(), 1u);
  EXPECT_EQ(h.queue()[0].source, devices::EventSource::kLocationMode);
  EXPECT_EQ(h.log().mode_setters, (std::vector<int>{0}));
  EXPECT_THROW(
      [] {
        Harness bad("def handler(evt) { setLocationMode(\"Mars\") }");
        bad.Run();
      }(),
      SemanticError);
}

TEST(EvaluatorTest, SmsRecipientChecking) {
  Harness good("def handler(evt) { sendSms(\"555-0100\", \"hi\") }");
  good.Run();
  ASSERT_EQ(good.log().api_calls.size(), 1u);
  EXPECT_FALSE(good.log().api_calls[0].recipient_mismatch);
  EXPECT_TRUE(good.log().user_notified);

  Harness bad("def handler(evt) { sendSms(\"555-ATTACKER\", \"hi\") }");
  bad.Run();
  EXPECT_TRUE(bad.log().api_calls[0].recipient_mismatch);
  EXPECT_FALSE(bad.log().user_notified);
}

TEST(EvaluatorTest, FailureScenarioDropsCommands) {
  Harness h("def handler(evt) { lock1.unlock() }");
  h.failure().actuator_offline = true;
  h.Run();
  EXPECT_EQ(h.Attr("lock1", "lock"), "locked");  // command lost
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_FALSE(h.log().commands[0].delivered);
  EXPECT_EQ(h.log().failed_deliveries, 1);
  EXPECT_TRUE(h.queue().empty());
}

TEST(EvaluatorTest, RunInRegistersTimerOnce) {
  Harness h(R"(
def handler(evt) {
    runIn(60, later)
    runIn(60, later)
}
def later() { switches.off() }
)");
  h.Run();
  // SmartThings replaces pending timers: only one entry.
  EXPECT_EQ(h.state().timers.size(), 1u);
}

TEST(EvaluatorTest, MathAndNumberMethods) {
  Harness h(R"(
def handler(evt) {
    state.a = Math.abs(-3)
    state.b = Math.max(2, 5)
    state.c = Math.round(2.6)
    state.d = 7.9.toInteger()
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("a").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("b").AsNumber(), 5);
  EXPECT_DOUBLE_EQ(s.at("c").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("d").AsNumber(), 7);
}

TEST(EvaluatorTest, RuntimeErrorsAreDiagnosed) {
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { sensor.explode() }");
        h.Run();
      }(),
      SemanticError);
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { state.x = 1 / 0 }");
        h.Run();
      }(),
      SemanticError);
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { state.bad = [1, 2] }");
        h.Run();
      }(),
      SemanticError);  // state must hold scalars
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { nope.on() }");
        h.Run();
      }(),
      SemanticError);
}

TEST(EvaluatorTest, SafeNavigationOnNull) {
  Harness h(R"(
def handler(evt) {
    def x = null
    state.v = x?.size()
    state.ok = 1
}
)");
  h.Run();
  EXPECT_TRUE(h.state().app_state[0].at("v").is_null());
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("ok").AsNumber(), 1);
}

TEST(EvaluatorTest, PersistentStateSurvivesAcrossInvocations) {
  Harness h(R"(
def handler(evt) {
    def current = state.count
    state.count = (current ?: 0) + 1
}
)");
  h.Run();
  h.Run();
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("count").AsNumber(), 3);
}

/// Copies every field of the handler's event into app state.
constexpr const char* kEventFieldDump = R"(
def handler(evt) {
    state.name = evt.name
    state.value = evt.value
    state.numericValue = evt.numericValue
    state.doubleValue = evt.doubleValue
    state.integerValue = evt.integerValue
    state.device = "${evt.device}"
    state.deviceId = evt.deviceId
    state.displayName = evt.displayName
    state.isStateChange = evt.isStateChange
    state.descriptionText = evt.descriptionText
    state.unknown = evt.unit
    state.whole = "${evt}"
}
)";

std::string Dump(const std::map<std::string, Value>& entries) {
  std::string out;
  for (const auto& [key, value] : entries) {
    out += key + "=" + value.ToDisplayString() + "\n";
  }
  return out;
}

std::string EventFields(const devices::Event& event) {
  Harness h(kEventFieldDump);
  h.Run(event);
  return Dump(h.state().app_state[0]);
}

TEST(EvaluatorTest, EventFieldsOfEverySource) {
  devices::Event motion;  // motion1 (device 4): enum attribute
  motion.source = devices::EventSource::kDevice;
  motion.device = 4;
  motion.attribute = 0;
  motion.value = 1;
  EXPECT_EQ(EventFields(motion),
            "descriptionText=motion is active\n"
            "device=<device 4>\n"
            "deviceId=motion1\n"
            "displayName=motion1\n"
            "doubleValue=null\n"
            "integerValue=null\n"
            "isStateChange=true\n"
            "name=motion\n"
            "numericValue=null\n"
            "unknown=null\n"
            "value=active\n"
            "whole=[descriptionText: motion is active, device: <device 4>, "
            "deviceId: motion1, displayName: motion1, isStateChange: true, "
            "name: motion, value: active]\n");

  devices::Event temperature = motion;  // temp1 (device 3): numeric
  temperature.device = 3;
  temperature.value = 2;
  EXPECT_EQ(EventFields(temperature),
            "descriptionText=temperature is 80\n"
            "device=<device 3>\n"
            "deviceId=temp1\n"
            "displayName=temp1\n"
            "doubleValue=80\n"
            "integerValue=80\n"
            "isStateChange=true\n"
            "name=temperature\n"
            "numericValue=80\n"
            "unknown=null\n"
            "value=80\n"
            "whole=[descriptionText: temperature is 80, device: <device 3>, "
            "deviceId: temp1, displayName: temp1, doubleValue: 80, "
            "integerValue: 80, isStateChange: true, name: temperature, "
            "numericValue: 80, value: 80]\n");

  // Platform events carry a name, a value and the common fields only.
  auto platform = [](const std::string& name, const std::string& value) {
    return "descriptionText=" + name + " is " + value +
           "\ndevice=null\ndeviceId=null\ndisplayName=null\n"
           "doubleValue=null\nintegerValue=null\nisStateChange=true\n"
           "name=" + name + "\nnumericValue=null\nunknown=null\nvalue=" +
           value + "\nwhole=[descriptionText: " + name + " is " + value +
           ", isStateChange: true, name: " + name + ", value: " + value +
           "]\n";
  };
  devices::Event mode;
  mode.source = devices::EventSource::kLocationMode;
  mode.value = 2;
  EXPECT_EQ(EventFields(mode), platform("mode", "Night"));
  devices::Event touch;
  touch.source = devices::EventSource::kAppTouch;
  touch.app = 0;
  EXPECT_EQ(EventFields(touch), platform("touch", "touched"));
  devices::Event timer;
  timer.source = devices::EventSource::kTimer;
  timer.app = 0;
  timer.timer = 0;
  EXPECT_EQ(EventFields(timer), platform("timer", "fired"));
}

TEST(EvaluatorTest, EventObjectIsOneSharedMap) {
  Harness h(R"(
def handler(evt) {
    state.viaHelper = describe(evt)
    evt.value = "changed"
    state.mutated = evt.value
    def alias = evt
    alias.name = "renamed"
    state.viaAlias = evt.name
    state.whole = "${evt}"
}
def describe(e) {
    return e.name + "/" + e.value
}
)");
  h.Run();
  EXPECT_EQ(Dump(h.state().app_state[0]),
            "mutated=changed\n"
            "viaAlias=renamed\n"
            "viaHelper=motion/active\n"
            "whole=[descriptionText: motion is active, device: <device 4>, "
            "deviceId: motion1, displayName: motion1, isStateChange: true, "
            "name: renamed, value: changed]\n");
}

TEST(EvaluatorTest, ReturnLeavesNestedBlocks) {
  Harness h(R"(
def handler(evt) {
    state.fromIf = fromIf()
    state.fromFor = fromFor()
    state.fromWhile = fromWhile()
    state.fromClosure = [1, 2, 3].find { if (it == 2) { return true }; false }
    state.fromLoopInClosure =
        [1, 2].collect { for (x in [it]) { return x * 10 }; 0 }.join(",")
    state.afterReturns = "still running"
}
def fromIf() {
    if (true) {
        if (true) {
            return "if"
        }
    }
    return "after"
}
def fromFor() {
    for (x in [1, 2, 3]) {
        if (x == 2) {
            return x
        }
    }
    return -1
}
def fromWhile() {
    def i = 0
    while (true) {
        i = i + 1
        if (i == 3) {
            return i
        }
    }
    return -1
}
)");
  h.Run();
  EXPECT_EQ(Dump(h.state().app_state[0]),
            "afterReturns=still running\n"
            "fromClosure=2\n"
            "fromFor=2\n"
            "fromIf=if\n"
            "fromLoopInClosure=10,20\n"
            "fromWhile=3\n");
}

TEST(EvaluatorTest, UnevaluableFragmentsStayVerbatim) {
  Harness h(R"app(
def handler(evt) {
    def a = 5
    state.msg = "x ${boom()} y ${a + 1} z ${"
    state.a = a
}
def boom() {
    def b = 1
    return nope
}
)app");
  h.Run();
  EXPECT_EQ(Dump(h.state().app_state[0]), "a=5\nmsg=x ${boom()} y 6 z ${\n");
}

/// The SemanticError text `methods` fails with.
std::string FailureOf(const std::string& methods) {
  try {
    Harness h(methods);
    h.Run();
  } catch (const SemanticError& e) {
    return e.what();
  }
  return "no error";
}

TEST(EvaluatorTest, ClosureParametersDoNotOutliveTheClosure) {
  // A `return` inside a block of a closure once left the closure's scope
  // behind, so the method went on seeing `it`.
  EXPECT_NE(FailureOf(R"(
def handler(evt) {
    [1, 2, 3].find { if (it == 2) { return true }; false }
    state.leaked = it
}
)").find("unknown identifier 'it'"),
            std::string::npos);
}

TEST(EvaluatorTest, ScopesStartEmptyOnEveryEntry) {
  // `x`, declared by the closure's first run, is gone in its second.
  EXPECT_NE(FailureOf(R"(
def handler(evt) {
    [1, 2].each {
        if (it == 2) {
            state.seen = x
        }
        x = it
    }
}
)").find("unknown identifier 'x'"),
            std::string::npos);
}

TEST(EvaluatorTest, WhileConditionRunsInTheLoopScope) {
  // `more` is first assigned in the body, which declares it in the loop
  // scope; later condition checks see it there.
  Harness h(R"(
def handler(evt) {
    def n = 0
    while (n == 0 || more) {
        n = n + 1
        more = n < 3
    }
    state.n = n
}
)");
  h.Run();
  EXPECT_EQ(Dump(h.state().app_state[0]), "n=3\n");
}

TEST(EvaluatorTest, StateIndexAssignmentWritesAppState) {
  Harness h(R"(
def handler(evt) {
    state["count"] = 3
    state["count"] += 1
    state.seen = state["count"]
}
)");
  h.Run();
  EXPECT_EQ(Dump(h.state().app_state[0]), "count=4\nseen=4\n");
  // The same scalar check, with the same text, as `state.key = v`.
  EXPECT_EQ(FailureOf("def handler(evt) {\n    state[\"bad\"] = [1]\n}\n"),
            FailureOf("def handler(evt) {\n    state.bad = [1]\n}\n"));
}

/// A handler that doubles "a" `times` times into `s`, then runs
/// `assignment` (source line 26, after the harness's preamble).
std::string DoubledString(int times, const std::string& assignment) {
  return R"(
def handler(evt) {
    def s = "a"
    def i = 0
    while (i < )" + std::to_string(times) + R"() {
        s = s + s
        i = i + 1
    }
    )" + assignment + "\n}\n";
}

TEST(EvaluatorTest, OverlongStateValueFailsAtTheAssignment) {
  // A 2^17-byte string: the state vector prefixes strings and keys with
  // a 16-bit length, which would wrap it to 0.
  const std::string too_long =
      "Harness App:26: state keys and strings may hold at most 65535 bytes";
  EXPECT_EQ(FailureOf(DoubledString(17, "state.big = s")), too_long);
  EXPECT_EQ(FailureOf(DoubledString(17, "state[s] = 1")), too_long);
  EXPECT_EQ(FailureOf(DoubledString(16, "state.big = s")), too_long);
  EXPECT_EQ(FailureOf(DoubledString(15, "state.big = s")), "no error");
}

/// A loop whose every iteration reads an event field, interpolates,
/// runs a closure, a for-in loop and a method call that returns from a
/// nested block.
std::string BudgetLoop(int iterations) {
  return R"(
def handler(evt) {
    def i = 0
    while (i < )" + std::to_string(iterations) + R"() {
        i = i + 1
        def s = "${evt.value}"
        [i].each { helper(it) }
        for (x in [i]) {
            s = s + x
        }
    }
}
def helper(x) {
    if (x > 0) {
        return x
    }
    return 0
}
)";
}

TEST(EvaluatorTest, StepBudgetBoundaryIsExact) {
  // Every statement, expression and loop iteration is one step, so the
  // largest loop that fits pins what each construct costs.
  constexpr int kLargestFitting = 2856;
  Harness fits(BudgetLoop(kLargestFitting));
  EXPECT_NO_THROW(fits.Run());
  Harness over(BudgetLoop(kLargestFitting + 1));
  EXPECT_THROW(over.Run(), Error);
}

}  // namespace
}  // namespace iotsan::model
