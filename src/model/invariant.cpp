#include "model/invariant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace iotsan::model {

namespace {

using dsl::BinaryOp;
using dsl::Expr;
using dsl::ExprKind;

/// A value of the property language, as props/eval.cpp's PropValue:
/// quantifiers are values too, so `(c ? any(..) : all(..)) == "on"`
/// stays legal.
struct Val {
  enum class Kind { kBool, kNumber, kString, kQuantifier };
  Kind kind = Kind::kBool;
  bool b = false;
  double number = 0;
  std::string str;
  int quant = -1;  // kQuantifier: index into Program::quants

  static Val Bool(bool v) {
    Val out;
    out.b = v;
    return out;
  }
  static Val Number(double v) {
    Val out;
    out.kind = Kind::kNumber;
    out.number = v;
    return out;
  }
  static Val String(std::string v) {
    Val out;
    out.kind = Kind::kString;
    out.str = std::move(v);
    return out;
  }
};

std::string MalformedText(int line, const std::string& message) {
  return "property expression, line " + std::to_string(line) + ": " +
         message;
}

[[noreturn]] void Malformed(int line, const std::string& message) {
  throw SemanticError(MalformedText(line, message));
}

BinaryOp MirrorOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

bool CompareScalars(const Val& lhs, BinaryOp op, const Val& rhs, int line) {
  if (lhs.kind == Val::Kind::kNumber && rhs.kind == Val::Kind::kNumber) {
    switch (op) {
      case BinaryOp::kEq: return lhs.number == rhs.number;
      case BinaryOp::kNe: return lhs.number != rhs.number;
      case BinaryOp::kLt: return lhs.number < rhs.number;
      case BinaryOp::kLe: return lhs.number <= rhs.number;
      case BinaryOp::kGt: return lhs.number > rhs.number;
      case BinaryOp::kGe: return lhs.number >= rhs.number;
      default: Malformed(line, "bad numeric comparison");
    }
  }
  if (lhs.kind == Val::Kind::kString && rhs.kind == Val::Kind::kString) {
    if (op == BinaryOp::kEq) return lhs.str == rhs.str;
    if (op == BinaryOp::kNe) return lhs.str != rhs.str;
    Malformed(line, "strings support only == and !=");
  }
  if (lhs.kind == Val::Kind::kBool && rhs.kind == Val::Kind::kBool) {
    if (op == BinaryOp::kEq) return lhs.b == rhs.b;
    if (op == BinaryOp::kNe) return lhs.b != rhs.b;
  }
  Malformed(line, "type mismatch in comparison");
}

}  // namespace

struct CompiledInvariant::Program {
  enum class Op : std::uint8_t {
    kConst,    // literal (and folded constants)
    kMode,     // the location mode's name
    kQuant,    // any()/all() value
    kFail,     // throws `message`
    kNot,
    kNeg,
    kAnd,
    kOr,
    kTernary,
    kElvis,
    kBinary,   // comparison/arithmetic, resolved at run time
    kMatch,    // any()/all() against a literal: match tables
    kModeIs,   // mode ==/!= literal: per-mode table
    kCount,
    kOnline,
    kOffline,
  };
  struct Node {
    Op op = Op::kConst;
    BinaryOp binary_op = BinaryOp::kEq;
    int line = 0;
    int a = -1, b = -1, c = -1;
    /// kQuant: quants index; kMatch/kCount: tables index; kOnline/
    /// kOffline: device_sets index; kModeIs: mode_tables index.
    int data = -1;
    Val constant;         // kConst
    std::string message;  // kFail: the complete error text
  };
  /// One device carrying a quantifier's role, in device order.
  struct Member {
    int device = 0;
    int attribute = -1;  // -1: the device lacks the attribute
    const devices::AttributeSpec* spec = nullptr;
  };
  struct Quant {
    bool universal = false;
    std::vector<Member> members;
  };
  /// Outcome per value index of one (device, attribute); the last entry
  /// covers out-of-domain indices, which AttributeSpec renders "?" / 0.
  struct Row {
    int device = 0;
    int attribute = 0;
    std::vector<char> table;

    bool At(const SystemState& state) const {
      const auto v =
          static_cast<std::uint16_t>(state.physical(device, attribute));
      return table[std::min<std::size_t>(v, table.size() - 1)] != 0;
    }
  };
  struct Table {
    bool universal = false;  // kMatch only
    std::vector<Row> rows;
  };

  std::vector<Node> nodes;
  std::vector<Quant> quants;
  std::vector<Table> tables;
  std::vector<std::vector<int>> device_sets;
  std::vector<std::vector<char>> mode_tables;
  std::vector<std::string> modes;
  int root = -1;

  class Compiler;

  bool EvalBool(int n, const SystemState& state) const {
    const Node& node = nodes[static_cast<std::size_t>(n)];
    switch (node.op) {
      case Op::kNot:
        return !EvalBool(node.a, state);
      case Op::kAnd:
        return EvalBool(node.a, state) && EvalBool(node.b, state);
      case Op::kOr:
      case Op::kElvis:
        return EvalBool(node.a, state) ||
               EvalBool(node.op == Op::kOr ? node.b : node.c, state);
      case Op::kMatch: {
        const Table& t = tables[static_cast<std::size_t>(node.data)];
        for (const Row& row : t.rows) {
          if (row.At(state) != t.universal) return !t.universal;
        }
        return t.universal;
      }
      case Op::kModeIs: {
        const std::vector<char>& t =
            mode_tables[static_cast<std::size_t>(node.data)];
        const auto mode = static_cast<std::size_t>(state.mode);
        return mode < t.size() && t[mode] != 0;
      }
      case Op::kOnline:
      case Op::kOffline: {
        bool all_online = true;
        for (int d : device_sets[static_cast<std::size_t>(node.data)]) {
          all_online = all_online && state.online(d);
        }
        return node.op == Op::kOnline ? all_online : !all_online;
      }
      default: {
        const Val v = Eval(n, state);
        if (v.kind != Val::Kind::kBool) {
          Malformed(node.line, "expected a boolean value");
        }
        return v.b;
      }
    }
  }

  Val Eval(int n, const SystemState& state) const {
    const Node& node = nodes[static_cast<std::size_t>(n)];
    switch (node.op) {
      case Op::kConst:
        return node.constant;
      case Op::kMode:
        return Val::String(modes[static_cast<std::size_t>(state.mode)]);
      case Op::kQuant: {
        Val v;
        v.kind = Val::Kind::kQuantifier;
        v.quant = node.data;
        return v;
      }
      case Op::kFail:
        throw SemanticError(node.message);
      case Op::kNeg: {
        const Val v = Eval(node.a, state);
        if (v.kind != Val::Kind::kNumber) {
          Malformed(node.line, "unary '-' needs a number");
        }
        return Val::Number(-v.number);
      }
      case Op::kTernary:
        return EvalBool(node.a, state) ? Eval(node.b, state)
                                       : Eval(node.c, state);
      case Op::kCount: {
        int count = 0;
        for (const Row& row : tables[static_cast<std::size_t>(node.data)].rows) {
          count += row.At(state) ? 1 : 0;
        }
        return Val::Number(count);
      }
      case Op::kBinary:
        return EvalBinary(node, state);
      default:
        return Val::Bool(EvalBool(n, state));
    }
  }

  Val EvalBinary(const Node& node, const SystemState& state) const {
    Val lhs = Eval(node.a, state);
    Val rhs = Eval(node.b, state);
    BinaryOp op = node.binary_op;
    if (lhs.kind == Val::Kind::kQuantifier ||
        rhs.kind == Val::Kind::kQuantifier) {
      // Quantifier on the left, mirroring the comparison.
      if (lhs.kind != Val::Kind::kQuantifier) {
        std::swap(lhs, rhs);
        op = MirrorOp(op);
      }
      return Val::Bool(CompareQuantifier(
          quants[static_cast<std::size_t>(lhs.quant)], op, rhs, node.line,
          state));
    }
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod: {
        if (lhs.kind != Val::Kind::kNumber || rhs.kind != Val::Kind::kNumber) {
          Malformed(node.line, "arithmetic needs numbers");
        }
        switch (op) {
          case BinaryOp::kAdd: return Val::Number(lhs.number + rhs.number);
          case BinaryOp::kSub: return Val::Number(lhs.number - rhs.number);
          case BinaryOp::kMul: return Val::Number(lhs.number * rhs.number);
          case BinaryOp::kDiv: return Val::Number(lhs.number / rhs.number);
          default: {
            // Remainder of the truncated operands; the conversion and
            // the division must both be defined.
            if (!(std::fabs(lhs.number) < 9e18) ||
                !(std::fabs(rhs.number) < 9e18)) {
              Malformed(node.line, "modulo operands out of range");
            }
            const auto divisor = static_cast<long long>(rhs.number);
            if (divisor == 0) Malformed(node.line, "modulo by zero");
            return Val::Number(static_cast<double>(
                static_cast<long long>(lhs.number) % divisor));
          }
        }
      }
      default:
        return Val::Bool(CompareScalars(lhs, op, rhs, node.line));
    }
  }

  /// Whether a member takes part in a comparison, as the interpreter's
  /// StateView decides: the device has the attribute, and against a
  /// number the attribute is numeric.
  static bool Participates(const Member& m, bool numeric) {
    return m.attribute >= 0 &&
           (!numeric || m.spec->kind == devices::AttributeKind::kNumeric);
  }

  /// A participating member's value at domain index `index`.
  static Val MemberValue(const Member& m, int index, bool numeric) {
    return numeric ? Val::Number(m.spec->NumericAt(index))
                   : Val::String(m.spec->ValueName(index));
  }

  static bool CompareQuantifier(const Quant& quant, BinaryOp op,
                                const Val& rhs, int line,
                                const SystemState& state) {
    if (rhs.kind == Val::Kind::kQuantifier) {
      Malformed(line, "cannot compare two quantifiers");
    }
    const bool numeric = rhs.kind == Val::Kind::kNumber;
    bool any_match = false;
    bool all_match = true;
    bool saw_device = false;
    for (const Member& m : quant.members) {
      if (!Participates(m, numeric)) continue;
      saw_device = true;
      const int index = state.physical(m.device, m.attribute);
      const bool match =
          CompareScalars(MemberValue(m, index, numeric), op, rhs, line);
      any_match = any_match || match;
      all_match = all_match && match;
    }
    // Vacuous quantification: all() over the empty set holds, any()
    // does not.
    if (!saw_device) return quant.universal;
    return quant.universal ? all_match : any_match;
  }
};

/// Lowers a parsed property expression into a Program, resolving names
/// against the model.  Each construct the interpreter rejects becomes a
/// kFail node at the position where the interpreter would throw.
class CompiledInvariant::Program::Compiler {
 public:
  Compiler(Program& program, const std::vector<devices::Device>& devices)
      : p_(program), devices_(devices) {}

  int Compile(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kBoolLit:
        return Const(expr, Val::Bool(expr.bool_value));
      case ExprKind::kNumberLit:
        return Const(expr, Val::Number(expr.number_value));
      case ExprKind::kStringLit:
        return Const(expr, Val::String(expr.text));
      case ExprKind::kIdent:
        if (expr.text == "mode") return Add(expr, Op::kMode);
        return Fail(expr, "unknown identifier '" + expr.text +
                              "' (only 'mode' is predefined)");
      case ExprKind::kUnary: {
        const int a = Compile(*expr.a);
        return Add(expr,
                   expr.unary_op == dsl::UnaryOp::kNot ? Op::kNot : Op::kNeg,
                   a);
      }
      case ExprKind::kBinary:
        return CompileBinary(expr);
      case ExprKind::kTernary: {
        const int a = Compile(*expr.a);
        if (!expr.b) return Add(expr, Op::kElvis, a, -1, Compile(*expr.c));
        const int b = Compile(*expr.b);
        return Add(expr, Op::kTernary, a, b, Compile(*expr.c));
      }
      case ExprKind::kCall:
        return CompileCall(expr);
      default:
        return Fail(expr, "unsupported construct in property expression");
    }
  }

 private:
  Program& p_;
  const std::vector<devices::Device>& devices_;

  int Add(const Expr& expr, Op op, int a = -1, int b = -1, int c = -1) {
    Node node;
    node.op = op;
    node.line = expr.line;
    node.a = a;
    node.b = b;
    node.c = c;
    p_.nodes.push_back(std::move(node));
    return static_cast<int>(p_.nodes.size()) - 1;
  }

  int Const(const Expr& expr, Val value) {
    const int n = Add(expr, Op::kConst);
    p_.nodes.back().constant = std::move(value);
    return n;
  }

  int Fail(const Expr& expr, const std::string& message) {
    const int n = Add(expr, Op::kFail);
    p_.nodes.back().message = MalformedText(expr.line, message);
    return n;
  }

  int WithData(int n, int data) {
    p_.nodes[static_cast<std::size_t>(n)].data = data;
    return n;
  }

  std::vector<int> DevicesWithRole(const std::string& role) const {
    std::vector<int> out;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      if (devices_[d].HasRole(role)) out.push_back(static_cast<int>(d));
    }
    return out;
  }

  int CompileCall(const Expr& expr) {
    if (expr.a) return Fail(expr, "method calls are not part of the language");
    // The interpreter reads string arguments left to right and rejects
    // the first that is missing or not a string literal.
    auto args = [&expr](std::size_t count, std::string& error) {
      std::vector<std::string> out;
      for (std::size_t i = 0; i < count; ++i) {
        if (i >= expr.items.size() ||
            expr.items[i]->kind != ExprKind::kStringLit) {
          error = expr.text + " expects string argument #" +
                  std::to_string(i + 1);
          return out;
        }
        out.push_back(expr.items[i]->text);
      }
      return out;
    };
    std::string error;
    const std::string& name = expr.text;
    if (name == "any" || name == "all") {
      const std::vector<std::string> a = args(2, error);
      if (!error.empty()) return Fail(expr, error);
      Quant quant;
      quant.universal = name == "all";
      for (int d : DevicesWithRole(a[0])) {
        const devices::Device& device = devices_[static_cast<std::size_t>(d)];
        Member m;
        m.device = d;
        m.attribute = device.AttributeIndex(a[1]);
        if (m.attribute >= 0) {
          m.spec = device.attributes()[static_cast<std::size_t>(m.attribute)];
        }
        quant.members.push_back(m);
      }
      p_.quants.push_back(std::move(quant));
      return WithData(Add(expr, Op::kQuant),
                      static_cast<int>(p_.quants.size()) - 1);
    }
    if (name == "count") {
      const std::vector<std::string> a = args(3, error);
      if (!error.empty()) return Fail(expr, error);
      Table table;
      for (int d : DevicesWithRole(a[0])) {
        const devices::Device& device = devices_[static_cast<std::size_t>(d)];
        const int attr = device.AttributeIndex(a[1]);
        if (attr < 0) continue;
        const devices::AttributeSpec& spec =
            *device.attributes()[static_cast<std::size_t>(attr)];
        table.rows.push_back(RowOf(d, attr, [&](int v) {
          return spec.ValueName(v) == a[2];
        }));
      }
      p_.tables.push_back(std::move(table));
      return WithData(Add(expr, Op::kCount),
                      static_cast<int>(p_.tables.size()) - 1);
    }
    if (name == "online" || name == "offline") {
      const std::vector<std::string> a = args(1, error);
      if (!error.empty()) return Fail(expr, error);
      p_.device_sets.push_back(DevicesWithRole(a[0]));
      return WithData(Add(expr, name == "online" ? Op::kOnline : Op::kOffline),
                      static_cast<int>(p_.device_sets.size()) - 1);
    }
    if (name == "exists") {
      const std::vector<std::string> a = args(1, error);
      if (!error.empty()) return Fail(expr, error);
      return Const(expr, Val::Bool(!DevicesWithRole(a[0]).empty()));
    }
    return Fail(expr, "unknown property function '" + name + "'");
  }

  /// table[v] = match(v) over the attribute's domain, plus the
  /// out-of-domain entry (index -1 renders like any out-of-range index).
  template <typename Match>
  Row RowOf(int device, int attribute, const Match& match) const {
    const devices::AttributeSpec& spec =
        *devices_[static_cast<std::size_t>(device)]
             .attributes()[static_cast<std::size_t>(attribute)];
    Row row;
    row.device = device;
    row.attribute = attribute;
    for (int v = 0; v < spec.domain_size(); ++v) {
      row.table.push_back(match(v) ? 1 : 0);
    }
    row.table.push_back(match(-1) ? 1 : 0);
    return row;
  }

  int CompileBinary(const Expr& expr) {
    const BinaryOp op = expr.binary_op;
    const int a = Compile(*expr.a);
    const int b = Compile(*expr.b);
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      return Add(expr, op == BinaryOp::kAnd ? Op::kAnd : Op::kOr, a, b);
    }
    if (const int fast = CompileModeIs(expr, a, b); fast >= 0) return fast;
    if (const int fast = CompileMatch(expr, a, b); fast >= 0) return fast;
    const int n = Add(expr, Op::kBinary, a, b);
    p_.nodes[static_cast<std::size_t>(n)].binary_op = op;
    return n;
  }

  const Node& At(int n) const { return p_.nodes[static_cast<std::size_t>(n)]; }

  bool IsConst(int n, Val::Kind kind) const {
    return At(n).op == Op::kConst && At(n).constant.kind == kind;
  }

  /// `mode == "Away"` / `"Away" != mode`: a per-mode truth table.
  int CompileModeIs(const Expr& expr, int a, int b) {
    if (expr.binary_op != BinaryOp::kEq && expr.binary_op != BinaryOp::kNe) {
      return -1;
    }
    if (At(b).op == Op::kMode) std::swap(a, b);
    if (At(a).op != Op::kMode || !IsConst(b, Val::Kind::kString)) return -1;
    const std::string& literal = At(b).constant.str;
    std::vector<char> table;
    for (const std::string& mode : p_.modes) {
      table.push_back((mode == literal) == (expr.binary_op == BinaryOp::kEq));
    }
    p_.mode_tables.push_back(std::move(table));
    return WithData(Add(expr, Op::kModeIs),
                    static_cast<int>(p_.mode_tables.size()) - 1);
  }

  /// any()/all() against a number or string literal: each member's
  /// outcome per value index, computed once.  Falls back to kBinary
  /// (returns -1) when the comparison itself is malformed, so the error
  /// is raised at run time exactly as the interpreter raises it.
  int CompileMatch(const Expr& expr, int a, int b) {
    BinaryOp op = expr.binary_op;
    if (At(a).op != Op::kQuant) {
      std::swap(a, b);
      op = MirrorOp(op);
    }
    if (At(a).op != Op::kQuant ||
        !(IsConst(b, Val::Kind::kNumber) || IsConst(b, Val::Kind::kString))) {
      return -1;
    }
    const Quant& quant = p_.quants[static_cast<std::size_t>(At(a).data)];
    const Val rhs = At(b).constant;
    const bool numeric = rhs.kind == Val::Kind::kNumber;
    Table table;
    table.universal = quant.universal;
    try {
      for (const Member& m : quant.members) {
        if (!Participates(m, numeric)) continue;
        table.rows.push_back(RowOf(m.device, m.attribute, [&](int v) {
          return CompareScalars(MemberValue(m, v, numeric), op, rhs,
                                expr.line);
        }));
      }
    } catch (const SemanticError&) {
      return -1;
    }
    if (table.rows.empty()) {
      // No member takes part: the vacuous result, whatever the state.
      return Const(expr, Val::Bool(quant.universal));
    }
    p_.tables.push_back(std::move(table));
    return WithData(Add(expr, Op::kMatch),
                    static_cast<int>(p_.tables.size()) - 1);
  }
};

CompiledInvariant::CompiledInvariant(
    const props::Property& property, std::size_t property_index,
    const std::vector<devices::Device>& devices,
    const std::vector<std::string>& modes)
    : property_index_(property_index),
      detail_("assertion violated: " + property.description + " (" +
              property.id + ")"),
      references_mode_(props::ReferencesMode(property.ParsedExpression())) {
  for (const devices::Device& device : devices) {
    bool carries = false;
    for (const std::string& role : property.roles) {
      carries = carries || device.HasRole(role);
    }
    role_devices_.push_back(carries ? 1 : 0);
  }
  auto program = std::make_shared<Program>();
  program->modes = modes;
  program->root =
      Program::Compiler(*program, devices).Compile(property.ParsedExpression());
  program_ = std::move(program);
}

bool CompiledInvariant::Holds(const SystemState& state) const {
  return program_->EvalBool(program_->root, state);
}

}  // namespace iotsan::model
