#include "props/eval.hpp"

#include <cmath>

#include "util/error.hpp"

namespace iotsan::props {

namespace {

using dsl::BinaryOp;
using dsl::Expr;
using dsl::ExprKind;

struct Quantifier {
  bool universal = false;  // all(...) vs any(...)
  std::string role;
  std::string attribute;
};

struct PropValue {
  enum class Kind { kBool, kNumber, kString, kQuantifier };
  Kind kind = Kind::kBool;
  bool b = false;
  double number = 0;
  std::string str;
  Quantifier quant;

  static PropValue Bool(bool v) {
    PropValue out;
    out.kind = Kind::kBool;
    out.b = v;
    return out;
  }
  static PropValue Number(double v) {
    PropValue out;
    out.kind = Kind::kNumber;
    out.number = v;
    return out;
  }
  static PropValue String(std::string v) {
    PropValue out;
    out.kind = Kind::kString;
    out.str = std::move(v);
    return out;
  }
};

[[noreturn]] void Malformed(const Expr& expr, const std::string& message) {
  throw SemanticError("property expression, line " +
                      std::to_string(expr.line) + ": " + message);
}

class Evaluator {
 public:
  explicit Evaluator(const StateView& state) : state_(state) {}

  bool EvalBool(const Expr& expr) {
    PropValue v = Eval(expr);
    if (v.kind != PropValue::Kind::kBool) {
      Malformed(expr, "expected a boolean value");
    }
    return v.b;
  }

 private:
  const StateView& state_;

  PropValue Eval(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kBoolLit:
        return PropValue::Bool(expr.bool_value);
      case ExprKind::kNumberLit:
        return PropValue::Number(expr.number_value);
      case ExprKind::kStringLit:
        return PropValue::String(expr.text);
      case ExprKind::kIdent:
        if (expr.text == "mode") {
          return PropValue::String(state_.LocationMode());
        }
        Malformed(expr, "unknown identifier '" + expr.text +
                            "' (only 'mode' is predefined)");
      case ExprKind::kUnary: {
        if (expr.unary_op == dsl::UnaryOp::kNot) {
          return PropValue::Bool(!EvalBool(*expr.a));
        }
        PropValue v = Eval(*expr.a);
        if (v.kind != PropValue::Kind::kNumber) {
          Malformed(expr, "unary '-' needs a number");
        }
        return PropValue::Number(-v.number);
      }
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kTernary: {
        bool cond = EvalBool(*expr.a);
        if (!expr.b) return PropValue::Bool(cond || EvalBool(*expr.c));
        return cond ? Eval(*expr.b) : Eval(*expr.c);
      }
      case ExprKind::kCall:
        return EvalCall(expr);
      default:
        Malformed(expr, "unsupported construct in property expression");
    }
  }

  PropValue EvalCall(const Expr& expr) {
    if (expr.a) Malformed(expr, "method calls are not part of the language");
    auto string_arg = [&](std::size_t i) -> std::string {
      if (i >= expr.items.size() ||
          expr.items[i]->kind != ExprKind::kStringLit) {
        Malformed(expr, expr.text + " expects string argument #" +
                            std::to_string(i + 1));
      }
      return expr.items[i]->text;
    };

    if (expr.text == "any" || expr.text == "all") {
      PropValue out;
      out.kind = PropValue::Kind::kQuantifier;
      out.quant.universal = expr.text == "all";
      out.quant.role = string_arg(0);
      out.quant.attribute = string_arg(1);
      return out;
    }
    if (expr.text == "count") {
      const std::string role = string_arg(0);
      const std::string attr = string_arg(1);
      const std::string value = string_arg(2);
      int count = 0;
      for (int device : state_.DevicesWithRole(role)) {
        auto v = state_.AttributeValue(device, attr);
        if (v.has_value() && *v == value) ++count;
      }
      return PropValue::Number(count);
    }
    if (expr.text == "online" || expr.text == "offline") {
      const std::string role = string_arg(0);
      bool all_online = true;
      for (int device : state_.DevicesWithRole(role)) {
        all_online = all_online && state_.DeviceOnline(device);
      }
      return PropValue::Bool(expr.text == "online" ? all_online
                                                   : !all_online);
    }
    if (expr.text == "exists") {
      return PropValue::Bool(!state_.DevicesWithRole(string_arg(0)).empty());
    }
    Malformed(expr, "unknown property function '" + expr.text + "'");
  }

  PropValue EvalBinary(const Expr& expr) {
    switch (expr.binary_op) {
      case BinaryOp::kAnd:
        return PropValue::Bool(EvalBool(*expr.a) && EvalBool(*expr.b));
      case BinaryOp::kOr:
        return PropValue::Bool(EvalBool(*expr.a) || EvalBool(*expr.b));
      default:
        break;
    }

    PropValue lhs = Eval(*expr.a);
    PropValue rhs = Eval(*expr.b);

    if (lhs.kind == PropValue::Kind::kQuantifier ||
        rhs.kind == PropValue::Kind::kQuantifier) {
      // Normalize to quantifier-on-the-left, mirroring the comparison.
      if (lhs.kind != PropValue::Kind::kQuantifier) {
        std::swap(lhs, rhs);
        return PropValue::Bool(CompareQuantifier(
            lhs.quant, MirrorOp(expr.binary_op), rhs, expr));
      }
      return PropValue::Bool(
          CompareQuantifier(lhs.quant, expr.binary_op, rhs, expr));
    }

    switch (expr.binary_op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        if (lhs.kind != PropValue::Kind::kNumber ||
            rhs.kind != PropValue::Kind::kNumber) {
          Malformed(expr, "arithmetic needs numbers");
        }
        double r = 0;
        switch (expr.binary_op) {
          case BinaryOp::kAdd: r = lhs.number + rhs.number; break;
          case BinaryOp::kSub: r = lhs.number - rhs.number; break;
          case BinaryOp::kMul: r = lhs.number * rhs.number; break;
          case BinaryOp::kDiv: r = lhs.number / rhs.number; break;
          default: {
            // Remainder of the truncated operands; the conversion and
            // the division must both be defined.
            if (!(std::fabs(lhs.number) < 9e18) ||
                !(std::fabs(rhs.number) < 9e18)) {
              Malformed(expr, "modulo operands out of range");
            }
            const auto divisor = static_cast<long long>(rhs.number);
            if (divisor == 0) Malformed(expr, "modulo by zero");
            r = static_cast<double>(static_cast<long long>(lhs.number) %
                                    divisor);
          }
        }
        return PropValue::Number(r);
      }
      default:
        return PropValue::Bool(CompareScalars(lhs, expr.binary_op, rhs, expr));
    }
  }

  static BinaryOp MirrorOp(BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt: return BinaryOp::kGt;
      case BinaryOp::kLe: return BinaryOp::kGe;
      case BinaryOp::kGt: return BinaryOp::kLt;
      case BinaryOp::kGe: return BinaryOp::kLe;
      default: return op;
    }
  }

  bool CompareScalars(const PropValue& lhs, BinaryOp op, const PropValue& rhs,
                      const Expr& expr) {
    if (lhs.kind == PropValue::Kind::kNumber &&
        rhs.kind == PropValue::Kind::kNumber) {
      switch (op) {
        case BinaryOp::kEq: return lhs.number == rhs.number;
        case BinaryOp::kNe: return lhs.number != rhs.number;
        case BinaryOp::kLt: return lhs.number < rhs.number;
        case BinaryOp::kLe: return lhs.number <= rhs.number;
        case BinaryOp::kGt: return lhs.number > rhs.number;
        case BinaryOp::kGe: return lhs.number >= rhs.number;
        default: Malformed(expr, "bad numeric comparison");
      }
    }
    if (lhs.kind == PropValue::Kind::kString &&
        rhs.kind == PropValue::Kind::kString) {
      if (op == BinaryOp::kEq) return lhs.str == rhs.str;
      if (op == BinaryOp::kNe) return lhs.str != rhs.str;
      Malformed(expr, "strings support only == and !=");
    }
    if (lhs.kind == PropValue::Kind::kBool &&
        rhs.kind == PropValue::Kind::kBool) {
      if (op == BinaryOp::kEq) return lhs.b == rhs.b;
      if (op == BinaryOp::kNe) return lhs.b != rhs.b;
    }
    Malformed(expr, "type mismatch in comparison");
  }

  bool CompareQuantifier(const Quantifier& quant, BinaryOp op,
                         const PropValue& rhs, const Expr& expr) {
    if (rhs.kind == PropValue::Kind::kQuantifier) {
      Malformed(expr, "cannot compare two quantifiers");
    }
    const bool numeric = rhs.kind == PropValue::Kind::kNumber;
    bool any_match = false;
    bool all_match = true;
    bool saw_device = false;
    for (int device : state_.DevicesWithRole(quant.role)) {
      PropValue value;
      if (numeric) {
        auto v = state_.NumericValue(device, quant.attribute);
        if (!v.has_value()) continue;
        value = PropValue::Number(*v);
      } else {
        auto v = state_.AttributeValue(device, quant.attribute);
        if (!v.has_value()) continue;
        value = PropValue::String(*v);
      }
      saw_device = true;
      const bool match = CompareScalars(value, op, rhs, expr);
      any_match = any_match || match;
      all_match = all_match && match;
    }
    if (!saw_device) {
      // Vacuous quantification: all() over the empty set holds, any()
      // does not.
      return quant.universal;
    }
    return quant.universal ? all_match : any_match;
  }
};

}  // namespace

bool EvalPropertyExpr(const dsl::Expr& expr, const StateView& state) {
  return Evaluator(state).EvalBool(expr);
}

}  // namespace iotsan::props
