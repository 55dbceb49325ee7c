#include "model/evaluator.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "dsl/resolve.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace iotsan::model {

namespace {

using dsl::BinaryOp;
using dsl::Expr;
using dsl::ExprKind;
using dsl::Stmt;
using dsl::StmtKind;

/// One frame slot: a local and whether its scope has declared it yet
/// (an undeclared slot is invisible to lookups).
struct Slot {
  Value value;
  bool declared = false;
};

constexpr std::size_t kNoSlot = SIZE_MAX;

/// The fields of an event object, in the order its map is built.
constexpr std::pair<int, const char*> kEventFields[] = {
    {dsl::kName, "name"},
    {dsl::kValue, "value"},
    {dsl::kNumericValue, "numericValue"},
    {dsl::kDoubleValue, "doubleValue"},
    {dsl::kIntegerValue, "integerValue"},
    {dsl::kDevice, "device"},
    {dsl::kDeviceId, "deviceId"},
    {dsl::kDisplayName, "displayName"},
    {dsl::kIsStateChange, "isStateChange"},
    {dsl::kDescriptionText, "descriptionText"},
};

class Interp {
 public:
  Interp(const SystemModel& model, SystemState& state,
         std::deque<devices::Event>& queue, CascadeLog& log,
         const FailureScenario& failure, int app_index, bool notes)
      : model_(model),
        state_(state),
        queue_(queue),
        log_(log),
        failure_(failure),
        app_index_(app_index),
        app_(model.apps()[app_index]),
        notes_(notes) {}

  void Invoke(const std::string& name, const dsl::MethodDecl* method,
              const devices::Event* event) {
    if (method == nullptr) {
      throw SemanticError("app '" + app_.config.label +
                          "' has no handler '" + name + "'");
    }
    CallMethod(*method, {}, event);
  }

 private:
  const SystemModel& model_;
  SystemState& state_;
  std::deque<devices::Event>& queue_;
  CascadeLog& log_;
  const FailureScenario& failure_;
  int app_index_;
  const InstalledApp& app_;
  // Render the Fig. 7 notes (CascadeLog::trace); call sites test this
  // before building a note's text.
  const bool notes_;
  // Every active frame's slots; the running frame is method_'s, from
  // base_ on.
  std::vector<Slot> slots_;
  const dsl::MethodDecl* method_ = nullptr;
  std::size_t base_ = 0;
  // Scopes open across all frames (the call-depth measure).
  int scope_depth_ = 0;
  // A `return` is unwinding to its method or closure.
  bool returning_ = false;
  Value return_value_;
  // The handler's event while its `evt` map is unbuilt: field reads come
  // straight from it until the handler uses `evt` as a whole value.
  const devices::Event* event_ = nullptr;
  std::size_t event_slot_ = kNoSlot;
  int steps_ = 0;

  void Budget() {
    if (++steps_ > Evaluator::kStepBudget) {
      throw Error("app '" + app_.config.label +
                  "': evaluation step budget exceeded (unbounded loop?)");
    }
  }

  [[noreturn]] void Fail(int line, const std::string& message) {
    throw SemanticError(app_.analysis->app.source_name + ":" +
                        std::to_string(line) + ": " + message);
  }

  void Trace(int line, const std::string& code) {
    log_.trace.push_back(app_.analysis->app.source_name + ":" +
                         std::to_string(line) + "\t[" + code + "]");
  }

  // ---- Event objects ------------------------------------------------------

  /// Field `field` (a Builtin id) of `event`'s object; null when the
  /// object has no such field.
  Value EventField(const devices::Event& event, int field) const {
    std::string name;
    std::string value;
    const devices::Device* device = nullptr;
    const devices::AttributeSpec* attr = nullptr;
    switch (event.source) {
      case devices::EventSource::kDevice:
        device = &model_.devices()[event.device];
        attr = device->attributes()[event.attribute];
        name = attr->name;
        value = attr->ValueName(event.value);
        break;
      case devices::EventSource::kLocationMode:
        name = "mode";
        value = model_.modes()[event.value];
        break;
      case devices::EventSource::kAppTouch:
        name = "touch";
        value = "touched";
        break;
      case devices::EventSource::kTimer:
        name = "timer";
        value = "fired";
        break;
    }
    switch (field) {
      case dsl::kName:
        return Value::String(std::move(name));
      case dsl::kValue:
        return Value::String(std::move(value));
      case dsl::kNumericValue:
      case dsl::kDoubleValue:
      case dsl::kIntegerValue:
        if (attr == nullptr || attr->kind != devices::AttributeKind::kNumeric) {
          return Value::Null();
        }
        return Value::Number(attr->NumericAt(event.value));
      case dsl::kDevice:
        return device ? Value::Device(event.device) : Value::Null();
      case dsl::kDeviceId:
      case dsl::kDisplayName:
        return device ? Value::String(device->id()) : Value::Null();
      case dsl::kIsStateChange:
        return Value::Bool(true);
      case dsl::kDescriptionText:
        return Value::String(name + " is " + value);
      default:
        return Value::Null();
    }
  }

  Value MakeEventValue(const devices::Event& event) const {
    ValueMap fields;
    for (const auto& [field, spelling] : kEventFields) {
      Value v = EventField(event, field);
      if (!v.is_null()) fields[spelling] = std::move(v);
    }
    return Value::Map(std::move(fields));
  }

  // ---- Environment ---------------------------------------------------------

  /// Runs `method` in a new frame.  A handler's `event` becomes its
  /// first parameter.
  Value CallMethod(const dsl::MethodDecl& method, const ValueList& args,
                   const devices::Event* event = nullptr) {
    if (scope_depth_ > 64) {
      throw Error("app '" + app_.config.label + "': call depth exceeded");
    }
    const dsl::MethodDecl* caller = method_;
    const std::size_t caller_base = base_;
    method_ = &method;
    base_ = slots_.size();
    slots_.resize(base_ + method.outer_slot.size());
    ++scope_depth_;
    for (std::size_t i = 0; i < method.params.size(); ++i) {
      Declare(static_cast<int>(i), i < args.size() ? args[i] : Value::Null());
    }
    if (event != nullptr && !method.params.empty()) {
      event_ = event;
      event_slot_ = base_;
    }
    Value result = ExecBody(method.body);
    if (returning_) {
      returning_ = false;
      result = std::move(return_value_);
    }
    --scope_depth_;
    slots_.resize(base_);
    method_ = caller;
    base_ = caller_base;
    return result;
  }

  /// Runs `closure` with `arg` as its first parameter (or `it`).
  Value CallClosure(const Expr& closure, const Value& arg) {
    ++scope_depth_;
    const int params = std::max(static_cast<int>(closure.params.size()), 1);
    for (int i = 0; i < params; ++i) {
      Declare(closure.scope.begin + i, i == 0 ? arg : Value::Null());
    }
    Value result = ExecBody(closure.body);
    if (returning_) {
      returning_ = false;
      result = std::move(return_value_);
    }
    CloseScope(closure.scope);
    return result;
  }

  /// Declares the running frame's `slot` with `value`.
  void Declare(int slot, Value value) {
    const std::size_t index = base_ + static_cast<std::size_t>(slot);
    if (index == event_slot_) event_ = nullptr;
    slots_[index] = {std::move(value), true};
  }

  /// The declared local `ident` names: the innermost declared slot of
  /// its name (see dsl/resolve.hpp), or kNoSlot.
  std::size_t FindLocal(const Expr& ident) const {
    for (int s = ident.slot; s >= 0; s = method_->outer_slot[s]) {
      const std::size_t index = base_ + static_cast<std::size_t>(s);
      if (slots_[index].declared) return index;
    }
    return kNoSlot;
  }

  /// A local as a whole value: builds the handler's event object the
  /// first time its slot is read this way.
  Value& Local(std::size_t index) {
    if (event_ != nullptr && index == event_slot_) {
      slots_[index].value = MakeEventValue(*event_);
      event_ = nullptr;
    }
    return slots_[index].value;
  }

  void CloseScope(dsl::SlotRange scope) {
    --scope_depth_;
    for (int s = scope.begin; s < scope.end; ++s) {
      slots_[base_ + static_cast<std::size_t>(s)] = Slot{};
    }
  }

  // ---- Statements -----------------------------------------------------------

  /// Executes a body; the value of the trailing expression statement is
  /// the Groovy implicit return value.  Stops at a `return`.
  Value ExecBody(const std::vector<dsl::StmtPtr>& body) {
    if (body.empty()) return Value::Null();
    for (std::size_t i = 0; i + 1 < body.size(); ++i) {
      ExecStmt(*body[i]);
      if (returning_) return Value::Null();
    }
    return ExecStmt(*body.back());
  }

  Value ExecScoped(const std::vector<dsl::StmtPtr>& body,
                   dsl::SlotRange scope) {
    ++scope_depth_;
    Value v = ExecBody(body);
    CloseScope(scope);
    return v;
  }

  Value ExecStmt(const Stmt& stmt) {
    Budget();
    switch (stmt.kind) {
      case StmtKind::kExpr:
        return Eval(*stmt.expr);
      case StmtKind::kVarDecl:
        Declare(stmt.slot, stmt.expr ? Eval(*stmt.expr) : Value::Null());
        return Value::Null();
      case StmtKind::kIf:
        if (Eval(*stmt.expr).Truthy()) return ExecScoped(stmt.body, stmt.scope);
        return ExecScoped(stmt.else_body, stmt.else_scope);
      case StmtKind::kReturn:
        return_value_ = stmt.expr ? Eval(*stmt.expr) : Value::Null();
        returning_ = true;
        return Value::Null();
      case StmtKind::kForIn: {
        Value iterable = Eval(*stmt.expr);
        if (!iterable.is_list()) {
          if (iterable.is_null()) return Value::Null();
          Fail(stmt.line, "for-in expects a list");
        }
        ++scope_depth_;
        for (const Value& item : iterable.AsList()) {
          Budget();
          Declare(stmt.slot, item);
          ExecBody(stmt.body);
          if (returning_) break;
        }
        CloseScope(stmt.scope);
        return Value::Null();
      }
      case StmtKind::kWhile: {
        ++scope_depth_;
        while (Eval(*stmt.expr).Truthy()) {
          Budget();
          ExecBody(stmt.body);
          if (returning_) break;
        }
        CloseScope(stmt.scope);
        return Value::Null();
      }
      case StmtKind::kBlock:
        return ExecScoped(stmt.body, stmt.scope);
    }
    return Value::Null();
  }

  // ---- Expressions ------------------------------------------------------------

  Value Eval(const Expr& expr) {
    Budget();
    switch (expr.kind) {
      case ExprKind::kNullLit:
        return Value::Null();
      case ExprKind::kBoolLit:
        return Value::Bool(expr.bool_value);
      case ExprKind::kNumberLit:
        return Value::Number(expr.number_value);
      case ExprKind::kStringLit:
        return Value::String(expr.parts.empty() ? expr.text
                                                : Interpolate(expr));
      case ExprKind::kListLit: {
        ValueList items;
        items.reserve(expr.items.size());
        for (const dsl::ExprPtr& item : expr.items) {
          items.push_back(Eval(*item));
        }
        return Value::List(std::move(items));
      }
      case ExprKind::kMapLit: {
        ValueMap entries;
        for (const dsl::NamedArg& entry : expr.named) {
          entries[entry.name] = Eval(*entry.value);
        }
        return Value::Map(std::move(entries));
      }
      case ExprKind::kIdent:
        return EvalIdent(expr);
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kUnary: {
        Value operand = Eval(*expr.a);
        if (expr.unary_op == dsl::UnaryOp::kNot) {
          return Value::Bool(!operand.Truthy());
        }
        if (!operand.is_number()) Fail(expr.line, "unary '-' needs a number");
        return Value::Number(-operand.AsNumber());
      }
      case ExprKind::kTernary: {
        Value cond = Eval(*expr.a);
        if (!expr.b) {  // elvis
          return cond.Truthy() ? cond : Eval(*expr.c);
        }
        return cond.Truthy() ? Eval(*expr.b) : Eval(*expr.c);
      }
      case ExprKind::kCall:
        return EvalCall(expr);
      case ExprKind::kMember:
        return EvalMember(expr);
      case ExprKind::kIndex: {
        Value recv = Eval(*expr.a);
        Value index = Eval(*expr.b);
        if (recv.is_list()) {
          if (!index.is_number()) Fail(expr.line, "list index must be a number");
          const auto i = static_cast<std::size_t>(index.AsNumber());
          if (i >= recv.AsList().size()) return Value::Null();
          return recv.AsList()[i];
        }
        if (recv.is_map()) {
          auto it = recv.AsMap().find(index.ToDisplayString());
          return it != recv.AsMap().end() ? it->second : Value::Null();
        }
        if (recv.is_null()) return Value::Null();
        Fail(expr.line, "indexing needs a list or map");
      }
      case ExprKind::kClosure:
        return Value::Closure(&expr);
      case ExprKind::kAssign:
        return EvalAssign(expr);
    }
    return Value::Null();
  }

  /// GString interpolation of the fragments parsed at resolution.
  std::string Interpolate(const Expr& expr) {
    std::string out;
    for (const dsl::StringPart& part : expr.parts) {
      if (!part.expr) {
        out += part.text;
        continue;
      }
      const dsl::MethodDecl* method = method_;
      const std::size_t base = base_;
      const std::size_t slots = slots_.size();
      const int depth = scope_depth_;
      try {
        out += Eval(*part.expr).ToDisplayString();
      } catch (const Error&) {
        // Leave the fragment verbatim; drop the frames it abandoned.
        method_ = method;
        base_ = base;
        slots_.resize(slots);
        scope_depth_ = depth;
        out += part.text;
      }
    }
    return out;
  }

  Value EvalIdent(const Expr& expr) {
    const std::size_t local = FindLocal(expr);
    if (local != kNoSlot) return Local(local);
    if (expr.index >= 0) return app_.bindings[expr.index];
    switch (expr.builtin) {
      case dsl::kState:
        return Value::Map(state_.app_state[app_index_]);
      case dsl::kLocation:
      case dsl::kApp:
      case dsl::kLog:
      case dsl::kMath:
      case dsl::kSettings:
        // Platform objects: handled structurally by member/call evaluation.
        return Value::String("<" + expr.text + ">");
      default:
        // Groovy resolves unknown names to null-ish bindings; surface a
        // diagnostic instead — apps in the corpus must be fully resolved.
        Fail(expr.line, "unknown identifier '" + expr.text + "'");
    }
  }

  /// True when `expr` is the bare platform name `builtin` (`state`,
  /// `location`, `log`, `Math`), whatever locals or inputs are called.
  static bool IsPlatform(const Expr& expr, int builtin) {
    return expr.kind == ExprKind::kIdent && expr.builtin == builtin;
  }

  /// True when `state` names the app state here (no local or input).
  bool IsAppState(const Expr& expr) const {
    return IsPlatform(expr, dsl::kState) && expr.index < 0 &&
           FindLocal(expr) == kNoSlot;
  }

  Value EvalBinary(const Expr& expr) {
    if (expr.binary_op == BinaryOp::kAnd) {
      return Value::Bool(Eval(*expr.a).Truthy() && Eval(*expr.b).Truthy());
    }
    if (expr.binary_op == BinaryOp::kOr) {
      return Value::Bool(Eval(*expr.a).Truthy() || Eval(*expr.b).Truthy());
    }
    Value lhs = Eval(*expr.a);
    Value rhs = Eval(*expr.b);
    switch (expr.binary_op) {
      case BinaryOp::kAdd:
        if (lhs.is_list()) {
          ValueList joined = lhs.AsList();
          if (rhs.is_list()) {
            joined.insert(joined.end(), rhs.AsList().begin(),
                          rhs.AsList().end());
          } else if (!rhs.is_null()) {
            joined.push_back(rhs);
          }
          return Value::List(std::move(joined));
        }
        if (lhs.is_string() || rhs.is_string()) {
          return Value::String(lhs.ToDisplayString() + rhs.ToDisplayString());
        }
        if (lhs.is_number() && rhs.is_number()) {
          return Value::Number(lhs.AsNumber() + rhs.AsNumber());
        }
        Fail(expr.line, "invalid operands to '+'");
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        if (!lhs.is_number() || !rhs.is_number()) {
          Fail(expr.line, "arithmetic needs numbers");
        }
        const double a = lhs.AsNumber();
        const double b = rhs.AsNumber();
        switch (expr.binary_op) {
          case BinaryOp::kSub: return Value::Number(a - b);
          case BinaryOp::kMul: return Value::Number(a * b);
          case BinaryOp::kDiv:
            if (b == 0) Fail(expr.line, "division by zero");
            return Value::Number(a / b);
          default:
            if (b == 0) Fail(expr.line, "modulo by zero");
            return Value::Number(std::fmod(a, b));
        }
      }
      case BinaryOp::kEq:
        return Value::Bool(lhs.Equals(rhs));
      case BinaryOp::kNe:
        return Value::Bool(!lhs.Equals(rhs));
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        double a = 0, b = 0;
        if (lhs.is_number() && rhs.is_number()) {
          a = lhs.AsNumber();
          b = rhs.AsNumber();
        } else if (lhs.is_string() && rhs.is_string()) {
          const int cmp = lhs.AsString().compare(rhs.AsString());
          a = cmp;
          b = 0;
        } else {
          Fail(expr.line, "invalid comparison operands");
        }
        switch (expr.binary_op) {
          case BinaryOp::kLt: return Value::Bool(a < b);
          case BinaryOp::kLe: return Value::Bool(a <= b);
          case BinaryOp::kGt: return Value::Bool(a > b);
          default: return Value::Bool(a >= b);
        }
      }
      case BinaryOp::kIn: {
        if (rhs.is_list()) {
          for (const Value& item : rhs.AsList()) {
            if (item.Equals(lhs)) return Value::Bool(true);
          }
          return Value::Bool(false);
        }
        if (rhs.is_map()) {
          return Value::Bool(rhs.AsMap().count(lhs.ToDisplayString()) > 0);
        }
        if (rhs.is_string() && lhs.is_string()) {
          return Value::Bool(rhs.AsString().find(lhs.AsString()) !=
                             std::string::npos);
        }
        Fail(expr.line, "'in' needs a list, map, or string on the right");
      }
      default:
        Fail(expr.line, "unsupported binary operator");
    }
  }

  /// The value `assign` stores over `old`: `value` itself, or for +=/-=
  /// the sum/difference.
  Value Combine(const Expr& assign, const Value& old, const Value& value) {
    if (assign.assign_op == dsl::AssignOp::kAssign) return value;
    if (!old.is_number() || !value.is_number()) {
      Fail(assign.line, "+=/-= need numbers");
    }
    return Value::Number(assign.assign_op == dsl::AssignOp::kAddAssign
                             ? old.AsNumber() + value.AsNumber()
                             : old.AsNumber() - value.AsNumber());
  }

  /// `state.key = value` / `state[key] = value`: persistent app state,
  /// scalars only.
  Value AssignState(const Expr& assign, const std::string& key,
                    const Value& value) {
    auto& state_map = state_.app_state[app_index_];
    Value old;
    auto it = state_map.find(key);
    if (it != state_map.end()) old = it->second;
    Value result = Combine(assign, old, value);
    switch (result.kind()) {
      case Value::Kind::kNull:
      case Value::Kind::kBool:
      case Value::Kind::kNumber:
      case Value::Kind::kString:
        break;
      default:
        Fail(assign.line, "state entries must be scalars");
    }
    // The state vector prefixes each with a 16-bit length.
    constexpr std::size_t kMax = SystemState::kMaxLength;
    if (key.size() > kMax ||
        (result.is_string() && result.AsString().size() > kMax)) {
      Fail(assign.line, "state keys and strings may hold at most " +
                            std::to_string(kMax) + " bytes");
    }
    if (it == state_map.end() && state_map.size() == kMax) {
      Fail(assign.line,
           "state may hold at most " + std::to_string(kMax) + " entries");
    }
    state_map[key] = result;
    return result;
  }

  Value EvalAssign(const Expr& expr) {
    Value value = Eval(*expr.b);
    const Expr& target = *expr.a;

    if (target.kind == ExprKind::kIdent) {
      const std::size_t local = FindLocal(target);
      if (local != kNoSlot) {
        Value& slot = Local(local);
        slot = Combine(expr, slot, value);
        return slot;
      }
      // Undeclared: declare it in the scope the assignment runs in
      // (Groovy script binding).
      Value result = Combine(expr, Value::Null(), value);
      Declare(target.slot, result);
      return result;
    }

    if (target.kind == ExprKind::kMember) {
      if (IsPlatform(*target.a, dsl::kState)) {
        return AssignState(expr, target.text, value);
      }
      // location.mode = "Away".
      if (target.builtin == dsl::kMode &&
          IsPlatform(*target.a, dsl::kLocation)) {
        if (!value.is_string()) Fail(expr.line, "mode must be a string");
        SetLocationMode(value.AsString(), expr.line);
        return value;
      }
      // Map field assignment.
      Value recv = Eval(*target.a);
      if (recv.is_map()) {
        recv.MutableMap()[target.text] = Combine(expr, Value::Null(), value);
        return value;
      }
      Fail(expr.line, "unsupported assignment target");
    }

    if (target.kind == ExprKind::kIndex) {
      if (IsAppState(*target.a)) {
        Budget();  // the receiver's evaluation
        Value index = Eval(*target.b);
        return AssignState(expr, index.ToDisplayString(), value);
      }
      Value recv = Eval(*target.a);
      Value index = Eval(*target.b);
      if (recv.is_list() && index.is_number()) {
        auto i = static_cast<std::size_t>(index.AsNumber());
        if (i < recv.MutableList().size()) {
          recv.MutableList()[i] = value;
        }
        return value;
      }
      if (recv.is_map()) {
        recv.MutableMap()[index.ToDisplayString()] = value;
        return value;
      }
    }
    Fail(expr.line, "unsupported assignment target");
  }

  Value EvalMember(const Expr& expr) {
    // state.foo read.
    if (IsPlatform(*expr.a, dsl::kState)) {
      const auto& state_map = state_.app_state[app_index_];
      auto it = state_map.find(expr.text);
      return it != state_map.end() ? it->second : Value::Null();
    }
    // location.*
    if (IsPlatform(*expr.a, dsl::kLocation)) {
      switch (expr.builtin) {
        case dsl::kMode:
          return Value::String(model_.modes()[state_.mode]);
        case dsl::kModes: {
          ValueList modes;
          for (const std::string& m : model_.modes()) {
            modes.push_back(Value::String(m));
          }
          return Value::List(std::move(modes));
        }
        case dsl::kName:
          return Value::String("Home");
        default:
          return Value::Null();
      }
    }
    // evt.field on the handler's still-unbuilt event object.
    if (event_ != nullptr && expr.a->kind == ExprKind::kIdent &&
        FindLocal(*expr.a) == event_slot_) {
      Budget();  // the receiver's evaluation
      return EventField(*event_, expr.builtin);
    }

    Value recv = Eval(*expr.a);
    if (recv.is_null()) {
      if (expr.safe_navigation) return Value::Null();
      Fail(expr.line, "member '" + expr.text + "' on null");
    }
    return MemberOf(recv, expr);
  }

  Value MemberOf(const Value& recv, const Expr& expr) {
    if (recv.is_device()) {
      return DeviceMember(recv.DeviceIndex(), expr);
    }
    if (recv.is_map()) {
      auto it = recv.AsMap().find(expr.text);
      return it != recv.AsMap().end() ? it->second : Value::Null();
    }
    if (recv.is_list()) {
      const ValueList& items = recv.AsList();
      switch (expr.builtin) {
        case dsl::kSize:
          return Value::Number(static_cast<double>(items.size()));
        case dsl::kFirst:
          return items.empty() ? Value::Null() : items.front();
        case dsl::kLast:
          return items.empty() ? Value::Null() : items.back();
        default: {
          // Groovy spread: devices.currentSwitch.
          ValueList mapped;
          for (const Value& item : items) {
            mapped.push_back(MemberOf(item, expr));
          }
          return Value::List(std::move(mapped));
        }
      }
    }
    if (recv.is_string() &&
        (expr.builtin == dsl::kLength || expr.builtin == dsl::kSize)) {
      return Value::Number(static_cast<double>(recv.AsString().size()));
    }
    return Value::Null();
  }

  Value DeviceMember(int device_index, const Expr& expr) {
    switch (expr.builtin) {
      case dsl::kId:
      case dsl::kLabel:
      case dsl::kDisplayName:
      case dsl::kName:
        return Value::String(model_.devices()[device_index].id());
      default:
        break;
    }
    if (!expr.attribute.empty()) {
      return ReadAttribute(device_index, expr.attribute, expr.line);
    }
    Fail(expr.line, "unknown device member '" + expr.text + "'");
  }

  Value ReadAttribute(int device_index, const std::string& attr_name,
                      int line) {
    const devices::Device& device = model_.devices()[device_index];
    const int attr_index = device.AttributeIndex(attr_name);
    if (attr_index < 0) {
      Fail(line, "device '" + device.id() + "' has no attribute '" +
                     attr_name + "'");
    }
    const devices::AttributeSpec& attr = *device.attributes()[attr_index];
    const int value = state_.value(device_index, attr_index);
    if (attr.kind == devices::AttributeKind::kNumeric) {
      return Value::Number(attr.NumericAt(value));
    }
    return Value::String(attr.ValueName(value));
  }

  // ---- Calls ---------------------------------------------------------------

  Value EvalCall(const Expr& expr) {
    if (!expr.a) return EvalFreeCall(expr);

    // log.debug(...) and friends: ignore, but evaluate args for effects.
    if (IsPlatform(*expr.a, dsl::kLog)) {
      for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
      return Value::Null();
    }
    // Math.xyz(...).
    if (IsPlatform(*expr.a, dsl::kMath)) {
      return EvalMathCall(expr);
    }

    Value recv = Eval(*expr.a);
    if (recv.is_null()) {
      if (expr.safe_navigation) return Value::Null();
      Fail(expr.line, "method '" + expr.text + "' on null");
    }
    return EvalMethodCall(recv, expr);
  }

  Value EvalMathCall(const Expr& expr) {
    ValueList args;
    for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
    auto num = [&](std::size_t i) -> double {
      if (i >= args.size() || !args[i].is_number()) {
        Fail(expr.line, "Math." + expr.text + " needs numeric arguments");
      }
      return args[i].AsNumber();
    };
    switch (expr.builtin) {
      case dsl::kAbs: return Value::Number(std::abs(num(0)));
      case dsl::kMax: return Value::Number(std::max(num(0), num(1)));
      case dsl::kMin: return Value::Number(std::min(num(0), num(1)));
      case dsl::kRound: return Value::Number(std::round(num(0)));
      case dsl::kFloor: return Value::Number(std::floor(num(0)));
      case dsl::kCeil: return Value::Number(std::ceil(num(0)));
      default:
        Fail(expr.line, "unknown Math function '" + expr.text + "'");
    }
  }

  Value EvalFreeCall(const Expr& expr) {
    switch (expr.builtin) {
      // Lifecycle/registration APIs are modeled statically; at runtime
      // they are inert (the Model Generator already registered
      // callbacks, §8).
      case dsl::kSubscribe:
      case dsl::kUnschedule:
      case dsl::kPause:
      case dsl::kInitialize:
      case dsl::kUpdated:
        for (const dsl::ExprPtr& arg : expr.items) {
          if (arg->kind != ExprKind::kIdent) Eval(*arg);
        }
        return Value::Null();
      case dsl::kUnsubscribe:
        log_.api_calls.push_back({ApiCallRecord::Kind::kUnsubscribe,
                                  app_index_, app_.config.label, false,
                                  expr.line});
        if (notes_) Trace(expr.line, "unsubscribe()");
        return Value::Null();
      case dsl::kRunIn:
      case dsl::kRunOnce:
        if (expr.items.size() >= 2) {
          RegisterTimer(HandlerName(*expr.items[1]), expr.line);
        }
        return Value::Null();
      case dsl::kSchedule:
      case dsl::kRunEvery:
        return Value::Null();  // recurring schedules fire via timer ticks
      case dsl::kSetLocationMode: {
        if (expr.items.empty()) Fail(expr.line, "setLocationMode needs a mode");
        Value mode = Eval(*expr.items[0]);
        if (!mode.is_string()) Fail(expr.line, "mode must be a string");
        SetLocationMode(mode.AsString(), expr.line);
        return Value::Null();
      }
      case dsl::kSendLocationEvent:
        for (const dsl::NamedArg& arg : expr.named) {
          if (arg.name == "value") {
            Value mode = Eval(*arg.value);
            if (mode.is_string()) SetLocationMode(mode.AsString(), expr.line);
          }
        }
        return Value::Null();
      case dsl::kSendEvent:
      case dsl::kCreateFakeEvent:
        EmitFakeEvent(expr);
        return Value::Null();
      case dsl::kSendSms:
      case dsl::kSendSmsMessage: {
        ApiCallRecord record;
        record.kind = ApiCallRecord::Kind::kSms;
        record.app = app_index_;
        record.line = expr.line;
        if (!expr.items.empty()) {
          Value to = Eval(*expr.items[0]);
          record.detail = to.ToDisplayString();
          record.recipient_mismatch =
              record.detail != model_.deployment().contact_phone;
        }
        if (expr.items.size() > 1) Eval(*expr.items[1]);
        if (!record.recipient_mismatch) log_.user_notified = true;
        log_.api_calls.push_back(std::move(record));
        if (notes_) Trace(expr.line, "sendSms(...)");
        return Value::Null();
      }
      case dsl::kSendPush:
      case dsl::kSendPushMessage:
      case dsl::kSendNotification:
      case dsl::kSendNotificationEvent:
      case dsl::kSendNotificationToContacts:
        for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
        log_.api_calls.push_back({ApiCallRecord::Kind::kPush, app_index_,
                                  "push", false, expr.line});
        log_.user_notified = true;
        if (notes_) Trace(expr.line, "sendPush(...)");
        return Value::Null();
      case dsl::kHttpPost:
      case dsl::kHttpGet:
      case dsl::kHttpPostJson: {
        std::string detail;
        if (!expr.items.empty()) {
          detail = Eval(*expr.items[0]).ToDisplayString();
        }
        log_.api_calls.push_back({ApiCallRecord::Kind::kHttp, app_index_,
                                  detail, false, expr.line});
        if (notes_) Trace(expr.line, expr.text + "(...)");
        return Value::Null();
      }
      case dsl::kGetAllDevices:
      case dsl::kGetChildDevices:
      case dsl::kFindAllDevices:
      case dsl::kDiscoverDevices: {
        // Dynamic-discovery extension: hand the app every installed device.
        if (!model_.options().dynamic_discovery) {
          Fail(expr.line, "dynamic device discovery is disabled (enable the "
                          "extension to check this app)");
        }
        ValueList all;
        for (std::size_t d = 0; d < model_.devices().size(); ++d) {
          all.push_back(Value::Device(static_cast<int>(d)));
        }
        return Value::List(std::move(all));
      }
      case dsl::kNow:
        return Value::Number(0);
      case dsl::kTimeOfDayIsBetween:
        // Wall-clock windows are abstracted away: the checker enumerates
        // event permutations regardless of clock time (paper §8 models
        // time as a monotonic counter; guards on it are kept permissive
        // so no behaviour is missed).
        for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
        return Value::Bool(true);
      case dsl::kGetSunriseAndSunset: {
        ValueMap result;
        result["sunrise"] = Value::Number(6 * 3600);
        result["sunset"] = Value::Number(18 * 3600);
        return Value::Map(std::move(result));
      }
      case dsl::kParseJson:
        for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
        return Value::Map({});
      default:
        break;
    }

    // User-defined method.
    if (expr.method != nullptr) {
      ValueList args;
      for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
      return CallMethod(*expr.method, args);
    }
    Fail(expr.line, "unknown function '" + expr.text + "'");
  }

  std::string HandlerName(const Expr& arg) {
    if (arg.kind == ExprKind::kIdent || arg.kind == ExprKind::kStringLit) {
      return arg.text;
    }
    return "";
  }

  void RegisterTimer(const std::string& handler, int line) {
    if (handler.empty()) return;
    for (std::size_t s = 0; s < app_.analysis->schedules.size(); ++s) {
      const ir::ScheduleInfo& schedule = app_.analysis->schedules[s];
      if (schedule.handler != handler || schedule.recurring) continue;
      TimerEntry entry{app_index_, static_cast<int>(s)};
      for (const TimerEntry& pending : state_.timers) {
        if (pending == entry) return;  // SmartThings replaces pending timers
      }
      state_.timers.push_back(entry);
      if (notes_) Trace(line, "runIn -> " + handler);
      return;
    }
  }

  void SetLocationMode(const std::string& mode, int line) {
    const int index = model_.deployment().ModeIndex(mode);
    if (index < 0) {
      Fail(line, "unknown location mode '" + mode + "'");
    }
    if (state_.mode == index) return;
    state_.mode = static_cast<std::int16_t>(index);
    log_.mode_setters.push_back(app_index_);
    devices::Event event;
    event.source = devices::EventSource::kLocationMode;
    event.value = index;
    queue_.push_back(event);
    if (notes_) Trace(line, "location.mode = " + mode);
  }

  void EmitFakeEvent(const Expr& expr) {
    std::string attr_name;
    std::string value_name;
    for (const dsl::NamedArg& arg : expr.named) {
      Value v = Eval(*arg.value);
      if (arg.name == "name") attr_name = v.ToDisplayString();
      if (arg.name == "value") value_name = v.ToDisplayString();
    }
    log_.api_calls.push_back({ApiCallRecord::Kind::kFakeEvent, app_index_,
                              attr_name + "/" + value_name, false,
                              expr.line});
    if (notes_) {
      Trace(expr.line, "sendEvent(name: " + attr_name + ", value: " +
                           value_name + ")");
    }
    if (attr_name.empty()) return;
    // The forged event is delivered to every subscriber of a matching
    // (device, attribute, value) — the spoofing vector of §3: apps
    // downstream cannot tell it from a real sensor reading.
    for (std::size_t d = 0; d < model_.devices().size(); ++d) {
      const devices::Device& device = model_.devices()[d];
      const int attr_index = device.AttributeIndex(attr_name);
      if (attr_index < 0) continue;
      const devices::AttributeSpec& attr = *device.attributes()[attr_index];
      int value_index = attr.IndexOfValue(value_name);
      if (value_index < 0 &&
          attr.kind == devices::AttributeKind::kNumeric &&
          !value_name.empty()) {
        value_index = attr.IndexOfNumeric(std::atoi(value_name.c_str()));
      }
      if (value_index < 0) continue;
      devices::Event event;
      event.source = devices::EventSource::kDevice;
      event.device = static_cast<int>(d);
      event.attribute = attr_index;
      event.value = value_index;
      event.synthetic = true;
      queue_.push_back(event);
      log_.actuations.emplace_back(app_index_, static_cast<int>(d));
    }
  }

  Value EvalMethodCall(const Value& recv, const Expr& expr) {
    if (recv.is_device()) {
      return DeviceCall(recv.DeviceIndex(), expr);
    }
    if (recv.is_list()) {
      return ListCall(recv, expr);
    }
    if (recv.is_string()) {
      return StringCall(recv.AsString(), expr);
    }
    if (recv.is_number()) {
      switch (expr.builtin) {
        case dsl::kToInteger:
        case dsl::kIntValue:
        case dsl::kToLong:
          return Value::Number(std::floor(recv.AsNumber()));
        case dsl::kToDouble:
        case dsl::kToFloat:
        case dsl::kToBigDecimal:
          return recv;
        case dsl::kToString:
          return Value::String(recv.ToDisplayString());
        default:
          break;
      }
    }
    if (recv.is_map()) {
      switch (expr.builtin) {
        case dsl::kGet: {
          Value key = expr.items.empty() ? Value::Null() : Eval(*expr.items[0]);
          auto it = recv.AsMap().find(key.ToDisplayString());
          return it != recv.AsMap().end() ? it->second : Value::Null();
        }
        case dsl::kContainsKey: {
          Value key = expr.items.empty() ? Value::Null() : Eval(*expr.items[0]);
          return Value::Bool(recv.AsMap().count(key.ToDisplayString()) > 0);
        }
        case dsl::kToString:
          return Value::String(recv.ToDisplayString());
        default:
          break;
      }
    }
    Fail(expr.line, "unsupported method '" + expr.text + "' on " +
                        recv.ToDisplayString());
  }

  Value DeviceCall(int device_index, const Expr& expr) {
    const devices::Device& device = model_.devices()[device_index];
    switch (expr.builtin) {
      case dsl::kCurrentValue:
      case dsl::kLatestValue: {
        if (expr.items.empty()) {
          Fail(expr.line, "currentValue needs an attribute");
        }
        Value attr = Eval(*expr.items[0]);
        return ReadAttribute(device_index, attr.ToDisplayString(), expr.line);
      }
      case dsl::kHasCapability: {
        if (expr.items.empty()) return Value::Bool(false);
        Value cap = Eval(*expr.items[0]);
        return Value::Bool(device.type().HasCapability(
            strings::ToLower(cap.ToDisplayString())));
      }
      case dsl::kRefresh:
      case dsl::kPoll:
      case dsl::kPing:
      case dsl::kConfigure:
        return Value::Null();
      default:
        break;
    }

    const devices::CommandSpec* spec = device.type().FindCommand(expr.text);
    if (spec == nullptr) {
      // Under the dynamic-discovery extension apps blanket-command every
      // device they found; devices without the command ignore it (the
      // paper's rejected apps rely on Groovy's dynamic dispatch).
      if (model_.options().dynamic_discovery) {
        for (const dsl::ExprPtr& arg : expr.items) Eval(*arg);
        return Value::Null();
      }
      Fail(expr.line, "device '" + device.id() + "' has no command '" +
                          expr.text + "'");
    }
    ValueList args;
    for (const dsl::ExprPtr& arg : expr.items) args.push_back(Eval(*arg));
    ExecuteCommand(device_index, *spec, args, expr.line);
    return Value::Null();
  }

  void ExecuteCommand(int device_index, const devices::CommandSpec& spec,
                      const ValueList& args, int line) {
    const devices::Device& device = model_.devices()[device_index];
    const int attr_index = device.AttributeIndex(spec.attribute);
    if (attr_index < 0) return;
    const devices::AttributeSpec& attr = *device.attributes()[attr_index];

    int target = -1;
    if (!spec.takes_argument) {
      target = attr.IndexOfValue(spec.value);
    } else if (!args.empty()) {
      if (args[0].is_number()) {
        target = attr.IndexOfNumeric(static_cast<int>(args[0].AsNumber()));
      } else {
        target = attr.IndexOfValue(args[0].ToDisplayString());
      }
    }
    if (target < 0) return;

    CommandRecord record;
    record.app = app_index_;
    record.device = device_index;
    record.spec = &spec;
    record.value_index = target;
    record.line = line;

    if (notes_) {
      Trace(line, "ST_Command.evtType = " + spec.name + " -> " + device.id());
    }
    log_.actuations.emplace_back(app_index_, device_index);

    const bool delivered = !failure_.actuator_offline && !failure_.comm_fail;
    record.delivered = delivered;
    if (!delivered) {
      ++log_.failed_deliveries;
      log_.commands.push_back(record);
      return;
    }

    std::int16_t& value = state_.value(device_index, attr_index);
    if (value != target) {
      value = static_cast<std::int16_t>(target);
      state_.physical(device_index, attr_index) = value;
      record.state_changed = true;
      devices::Event event;
      event.source = devices::EventSource::kDevice;
      event.device = device_index;
      event.attribute = attr_index;
      event.value = target;
      queue_.push_back(event);
      if (notes_) {
        Trace(line, device.id() + ".current" + attr.name + " = " +
                        attr.ValueName(target));
      }
    }
    log_.commands.push_back(record);
  }

  Value ListCall(const Value& recv, const Expr& expr) {
    const ValueList& items = recv.AsList();

    // Device-list broadcast: switches.on() commands every member.
    if (!items.empty() && items.front().is_device()) {
      bool all_devices = true;
      for (const Value& item : items) {
        all_devices = all_devices && item.is_device();
      }
      if (all_devices) {
        const devices::Device& first =
            model_.devices()[items.front().DeviceIndex()];
        if (first.type().FindCommand(expr.text) != nullptr) {
          ValueList args;
          for (const dsl::ExprPtr& arg : expr.items) {
            args.push_back(Eval(*arg));
          }
          for (const Value& item : items) {
            const devices::Device& device =
                model_.devices()[item.DeviceIndex()];
            if (const devices::CommandSpec* spec =
                    device.type().FindCommand(expr.text)) {
              ExecuteCommand(item.DeviceIndex(), *spec, args, expr.line);
            }
          }
          return Value::Null();
        }
      }
    }

    const Expr* closure = nullptr;
    if (!expr.items.empty() &&
        expr.items.back()->kind == ExprKind::kClosure) {
      closure = expr.items.back().get();
    }
    auto apply = [this, closure](const Value& item) -> Value {
      if (closure == nullptr) return item;
      return CallClosure(*closure, item);
    };

    switch (expr.builtin) {
      case dsl::kEach:
        for (const Value& item : items) apply(item);
        return recv;
      case dsl::kFind:
        for (const Value& item : items) {
          if (apply(item).Truthy()) return item;
        }
        return Value::Null();
      case dsl::kFindAll: {
        ValueList out;
        for (const Value& item : items) {
          if (apply(item).Truthy()) out.push_back(item);
        }
        return Value::List(std::move(out));
      }
      case dsl::kCollect: {
        ValueList out;
        for (const Value& item : items) out.push_back(apply(item));
        return Value::List(std::move(out));
      }
      case dsl::kAny:
        for (const Value& item : items) {
          if (apply(item).Truthy()) return Value::Bool(true);
        }
        return Value::Bool(false);
      case dsl::kEvery:
        for (const Value& item : items) {
          if (!apply(item).Truthy()) return Value::Bool(false);
        }
        return Value::Bool(true);
      case dsl::kCount: {
        int matched = 0;
        for (const Value& item : items) {
          if (apply(item).Truthy()) ++matched;
        }
        return Value::Number(matched);
      }
      case dsl::kFirst:
        return items.empty() ? Value::Null() : items.front();
      case dsl::kLast:
        return items.empty() ? Value::Null() : items.back();
      case dsl::kSize:
        return Value::Number(static_cast<double>(items.size()));
      case dsl::kIsEmpty:
        return Value::Bool(items.empty());
      case dsl::kContains: {
        Value needle =
            expr.items.empty() ? Value::Null() : Eval(*expr.items[0]);
        for (const Value& item : items) {
          if (item.Equals(needle)) return Value::Bool(true);
        }
        return Value::Bool(false);
      }
      case dsl::kSum: {
        double total = 0;
        for (const Value& item : items) {
          Value v = apply(item);
          if (v.is_number()) total += v.AsNumber();
        }
        return Value::Number(total);
      }
      case dsl::kJoin: {
        std::string sep =
            expr.items.empty() ? "" : Eval(*expr.items[0]).ToDisplayString();
        std::string out;
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i > 0) out += sep;
          out += items[i].ToDisplayString();
        }
        return Value::String(std::move(out));
      }
      case dsl::kUnique:
      case dsl::kSort:
      case dsl::kReverse:
      case dsl::kFlatten: {
        ValueList out = items;
        if (expr.builtin == dsl::kReverse) std::reverse(out.begin(), out.end());
        if (expr.builtin == dsl::kUnique) {
          ValueList deduped;
          for (const Value& item : out) {
            bool seen = false;
            for (const Value& existing : deduped) {
              seen = seen || existing.Equals(item);
            }
            if (!seen) deduped.push_back(item);
          }
          out = std::move(deduped);
        }
        return Value::List(std::move(out));
      }
      default:
        Fail(expr.line, "unsupported list method '" + expr.text + "'");
    }
  }

  Value StringCall(const std::string& recv, const Expr& expr) {
    auto arg0 = [this, &expr]() -> std::string {
      return expr.items.empty() ? ""
                                : Eval(*expr.items[0]).ToDisplayString();
    };
    switch (expr.builtin) {
      case dsl::kToInteger:
      case dsl::kToLong:
        return Value::Number(std::atoi(recv.c_str()));
      case dsl::kToDouble:
      case dsl::kToFloat:
      case dsl::kToBigDecimal:
        return Value::Number(std::atof(recv.c_str()));
      case dsl::kToLowerCase:
        return Value::String(strings::ToLower(recv));
      case dsl::kToUpperCase: {
        std::string out = recv;
        for (char& c : out) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return Value::String(std::move(out));
      }
      case dsl::kTrim:
        return Value::String(std::string(strings::Trim(recv)));
      case dsl::kContains:
        return Value::Bool(recv.find(arg0()) != std::string::npos);
      case dsl::kStartsWith:
        return Value::Bool(strings::StartsWith(recv, arg0()));
      case dsl::kEndsWith:
        return Value::Bool(strings::EndsWith(recv, arg0()));
      case dsl::kEqualsIgnoreCase:
        return Value::Bool(strings::ToLower(recv) == strings::ToLower(arg0()));
      case dsl::kReplaceAll: {
        std::string from = arg0();
        std::string to = expr.items.size() > 1
                             ? Eval(*expr.items[1]).ToDisplayString()
                             : "";
        return Value::String(strings::ReplaceAll(recv, from, to));
      }
      case dsl::kLength:
      case dsl::kSize:
        return Value::Number(static_cast<double>(recv.size()));
      case dsl::kToString:
        return Value::String(recv);
      case dsl::kIsNumber: {
        char* end = nullptr;
        std::strtod(recv.c_str(), &end);
        return Value::Bool(!recv.empty() &&
                           end == recv.c_str() + recv.size());
      }
      default:
        Fail(expr.line, "unsupported string method '" + expr.text + "'");
    }
  }
};

}  // namespace

Evaluator::Evaluator(const SystemModel& model, SystemState& state,
                     std::deque<devices::Event>& queue, CascadeLog& log,
                     const FailureScenario& failure, bool notes)
    : model_(model),
      state_(state),
      queue_(queue),
      log_(log),
      failure_(failure),
      notes_(notes) {}

void Evaluator::InvokeHandler(int app, const std::string& name,
                              const dsl::MethodDecl* method,
                              const devices::Event* event) {
  Interp interp(model_, state_, queue_, log_, failure_, app, notes_);
  interp.Invoke(name, method, event);
}

}  // namespace iotsan::model
