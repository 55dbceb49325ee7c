#include "promela/emitter.hpp"

#include <cctype>
#include <map>
#include <set>

#include "dsl/printer.hpp"
#include "props/property.hpp"
#include "util/strings.hpp"

namespace iotsan::promela {

namespace {

using dsl::BinaryOp;
using dsl::Expr;
using dsl::ExprKind;
using dsl::Stmt;
using dsl::StmtKind;

std::string Capitalize(const std::string& s) {
  std::string out = s;
  if (!out.empty()) {
    out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  }
  return out;
}

std::string Sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "v_" + out;
  }
  return out;
}

/// Emits the model.  Device state follows the paper's Fig. 7 naming:
/// one global array per device type (g_STLockArr, g_STPresSensorArr, ...)
/// with current<Attr> fields.
class Emitter {
 public:
  Emitter(const model::SystemModel& model, const EmitOptions& options)
      : model_(model), options_(options) {
    IndexDevices();
  }

  std::string Run() {
    EmitHeader();
    EmitMtypes();
    EmitTypedefs();
    EmitGlobals();
    EmitHandlers();
    EmitMainLoop();
    EmitLtl();
    return std::move(out_);
  }

 private:
  const model::SystemModel& model_;
  const EmitOptions& options_;
  std::string out_;
  // device index -> (type struct name, index within the per-type array)
  std::vector<std::pair<std::string, int>> device_slot_;
  std::map<std::string, std::vector<int>> devices_by_type_;
  std::set<std::string> mtypes_;

  void IndexDevices() {
    for (std::size_t i = 0; i < model_.devices().size(); ++i) {
      const std::string struct_name =
          "ST" + Capitalize(model_.devices()[i].type().name);
      auto& members = devices_by_type_[struct_name];
      device_slot_.push_back({struct_name, static_cast<int>(members.size())});
      members.push_back(static_cast<int>(i));
    }
  }

  std::string DeviceRef(int device) const {
    const auto& [struct_name, slot] = device_slot_[device];
    return "g_" + struct_name + "Arr[" + std::to_string(slot) + "]";
  }

  std::string FieldName(const std::string& attribute) const {
    return "current" + Capitalize(attribute);
  }

  void EmitHeader() {
    out_ += "/* Generated by iotsan: Promela model of IoT system \"" +
            model_.deployment().name + "\".\n";
    out_ += " * " + std::to_string(model_.devices().size()) + " device(s), " +
            std::to_string(model_.apps().size()) + " app(s), " +
            std::to_string(model_.subscriptions().size()) +
            " subscription(s).\n */\n\n";
    out_ += "#define MAX_EVENTS " + std::to_string(options_.max_events) +
            "\n\n";
  }

  void EmitMtypes() {
    // Enumerated attribute values and location modes share one mtype.
    for (const devices::Device& device : model_.devices()) {
      for (const devices::AttributeSpec* attr : device.attributes()) {
        if (attr->kind != devices::AttributeKind::kEnum) continue;
        for (const std::string& value : attr->values) {
          mtypes_.insert(Sanitize(value));
        }
      }
    }
    for (const std::string& mode : model_.modes()) {
      mtypes_.insert(Sanitize(mode));
    }
    out_ += "mtype = { ";
    bool first = true;
    for (const std::string& name : mtypes_) {
      if (!first) out_ += ", ";
      first = false;
      out_ += name;
    }
    out_ += " };\n\n";
  }

  void EmitTypedefs() {
    for (const auto& [struct_name, members] : devices_by_type_) {
      const devices::Device& representative =
          model_.devices()[members.front()];
      out_ += "typedef " + struct_name + " {\n";
      for (const devices::AttributeSpec* attr :
           representative.attributes()) {
        if (attr->kind == devices::AttributeKind::kEnum) {
          out_ += "    mtype " + FieldName(attr->name) + ";\n";
        } else {
          out_ += "    short " + FieldName(attr->name) + ";\n";
        }
      }
      out_ += "    bool online;\n";
      out_ += "    byte subNotifiers[" +
              std::to_string(
                  std::max<std::size_t>(model_.subscriptions().size(), 1)) +
              "];\n";
      out_ += "}\n\n";
    }
  }

  void EmitGlobals() {
    for (const auto& [struct_name, members] : devices_by_type_) {
      out_ += struct_name + " g_" + struct_name + "Arr[" +
              std::to_string(members.size()) + "];";
      out_ += "  /*";
      for (int device : members) {
        out_ += " " + model_.devices()[device].id();
      }
      out_ += " */\n";
    }
    out_ += "mtype location_mode = " + Sanitize(model_.modes()[0]) + ";\n";
    out_ += "\n";
  }

  // ---- Expression translation ---------------------------------------------

  /// Best-effort SmartScript -> Promela expression translation within the
  /// context of one app.  Unsupported constructs degrade to commented
  /// skips, never to silently wrong code.
  std::string TransExpr(const model::InstalledApp& app, const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNullLit:
        return "0";
      case ExprKind::kBoolLit:
        return expr.bool_value ? "true" : "false";
      case ExprKind::kNumberLit:
        return strings::FormatNumber(expr.number_value);
      case ExprKind::kStringLit: {
        const std::string name = Sanitize(expr.text);
        if (mtypes_.count(name)) return name;
        return "/* \"" + expr.text + "\" */ 0";
      }
      case ExprKind::kIdent: {
        if (const model::Value* binding = app.Binding(expr.text)) {
          const model::Value& value = *binding;
          if (value.is_device()) return DeviceRef(value.DeviceIndex());
          if (value.is_number()) {
            return strings::FormatNumber(value.AsNumber());
          }
          if (value.is_string()) {
            const std::string name = Sanitize(value.AsString());
            if (mtypes_.count(name)) return name;
            return "/* " + value.AsString() + " */ 0";
          }
          if (!value.is_null()) return "/* " + expr.text + " */ 0";
          return "0";
        }
        return Sanitize(expr.text);
      }
      case ExprKind::kBinary: {
        const char* op = "&&";
        switch (expr.binary_op) {
          case BinaryOp::kAdd: op = "+"; break;
          case BinaryOp::kSub: op = "-"; break;
          case BinaryOp::kMul: op = "*"; break;
          case BinaryOp::kDiv: op = "/"; break;
          case BinaryOp::kMod: op = "%"; break;
          case BinaryOp::kEq: op = "=="; break;
          case BinaryOp::kNe: op = "!="; break;
          case BinaryOp::kLt: op = "<"; break;
          case BinaryOp::kLe: op = "<="; break;
          case BinaryOp::kGt: op = ">"; break;
          case BinaryOp::kGe: op = ">="; break;
          case BinaryOp::kAnd: op = "&&"; break;
          case BinaryOp::kOr: op = "||"; break;
          case BinaryOp::kIn: return "/* in */ true";
        }
        return "(" + TransExpr(app, *expr.a) + " " + op + " " +
               TransExpr(app, *expr.b) + ")";
      }
      case ExprKind::kUnary:
        return (expr.unary_op == dsl::UnaryOp::kNot ? "!" : "-") +
               TransExpr(app, *expr.a);
      case ExprKind::kTernary: {
        const std::string cond = TransExpr(app, *expr.a);
        const std::string then_branch =
            expr.b ? TransExpr(app, *expr.b) : cond;
        return "(" + cond + " -> " + then_branch + " : " +
               TransExpr(app, *expr.c) + ")";
      }
      case ExprKind::kMember: {
        // location.mode and device attribute reads.
        if (expr.a->kind == ExprKind::kIdent &&
            expr.a->text == "location" && expr.text == "mode") {
          return "location_mode";
        }
        if (strings::StartsWith(expr.text, "current")) {
          return TransExpr(app, *expr.a) + "." + expr.text;
        }
        if (expr.text == "value" || expr.text == "numericValue") {
          return "evt_value";
        }
        return "/* ." + expr.text + " */ 0";
      }
      default:
        return "/* " + dsl::PrintExpr(expr) + " */ 0";
    }
  }

  // ---- Statement translation ----------------------------------------------

  void TransStmt(const model::InstalledApp& app, const Stmt& stmt,
                 int indent) {
    const std::string pad(static_cast<std::size_t>(indent) * 4, ' ');
    switch (stmt.kind) {
      case StmtKind::kIf: {
        out_ += pad + "if\n";
        out_ += pad + ":: (" + TransExpr(app, *stmt.expr) + ") ->\n";
        for (const dsl::StmtPtr& s : stmt.body) {
          TransStmt(app, *s, indent + 1);
        }
        out_ += pad + ":: else ->";
        if (stmt.else_body.empty()) {
          out_ += " skip\n";
        } else {
          out_ += "\n";
          for (const dsl::StmtPtr& s : stmt.else_body) {
            TransStmt(app, *s, indent + 1);
          }
        }
        out_ += pad + "fi;\n";
        break;
      }
      case StmtKind::kExpr:
        TransExprStmt(app, *stmt.expr, pad);
        break;
      case StmtKind::kVarDecl:
        if (stmt.expr) {
          out_ += pad + "/* def " + stmt.name + " = " +
                  dsl::PrintExpr(*stmt.expr) + " */\n";
        }
        break;
      case StmtKind::kReturn:
        out_ += pad + "goto handler_done;\n";
        break;
      case StmtKind::kForIn:
      case StmtKind::kWhile:
      case StmtKind::kBlock:
        out_ += pad + "d_step { /* loop lowered in the native model */ }\n";
        break;
    }
  }

  void TransExprStmt(const model::InstalledApp& app, const Expr& expr,
                     const std::string& pad) {
    if (expr.kind != ExprKind::kCall) {
      out_ += pad + "skip; /* " + dsl::PrintExpr(expr) + " */\n";
      return;
    }
    // Device commands: receiver resolves to a bound device.
    if (expr.a && expr.a->kind == ExprKind::kIdent) {
      if (const model::Value* binding = app.Binding(expr.a->text)) {
        std::vector<int> targets;
        if (binding->is_device()) {
          targets.push_back(binding->DeviceIndex());
        } else if (binding->is_list()) {
          for (const model::Value& v : binding->AsList()) {
            if (v.is_device()) targets.push_back(v.DeviceIndex());
          }
        }
        for (int device : targets) {
          const devices::CommandSpec* cmd =
              model_.devices()[device].type().FindCommand(expr.text);
          if (cmd == nullptr) continue;
          out_ += pad + "ST_Command.evtType = " + Sanitize(expr.text) +
                  ";\n";
          if (!cmd->takes_argument) {
            out_ += pad + DeviceRef(device) + "." + FieldName(cmd->attribute) +
                    " = " + Sanitize(cmd->value) + ";\n";
          } else if (!expr.items.empty()) {
            out_ += pad + DeviceRef(device) + "." + FieldName(cmd->attribute) +
                    " = " + TransExpr(app, *expr.items[0]) + ";\n";
          }
          out_ += pad + "notify_subscribers();\n";
        }
        if (!targets.empty()) return;
      }
    }
    if (!expr.a && expr.text == "setLocationMode" && !expr.items.empty()) {
      out_ += pad + "location_mode = " + TransExpr(app, *expr.items[0]) +
              ";\n";
      out_ += pad + "notify_subscribers();\n";
      return;
    }
    if (!expr.a && (expr.text == "subscribe" || expr.text == "schedule")) {
      out_ += pad + "skip; /* registration handled by the generator */\n";
      return;
    }
    out_ += pad + "skip; /* " + dsl::PrintExpr(expr) + " */\n";
  }

  void EmitHandlers() {
    out_ += "mtype ST_Command_evtType;\n";
    out_ += "#define ST_Command_set(x) ST_Command_evtType = x\n";
    out_ += "typedef STCmd { mtype evtType; }\n";
    out_ += "STCmd ST_Command;\n";
    out_ += "inline notify_subscribers() { skip; /* event queue drain in "
            "the native engine */ }\n\n";

    for (const model::InstalledApp& app : model_.apps()) {
      const std::string app_prefix = Sanitize(app.config.label);
      std::set<std::string> emitted;
      for (const ir::HandlerInfo& handler : app.analysis->handlers) {
        if (!emitted.insert(handler.name).second) continue;
        const dsl::MethodDecl* method =
            app.analysis->app.FindMethod(handler.name);
        if (method == nullptr) continue;
        out_ += "inline " + app_prefix + "_" + handler.name + "() {\n";
        for (const dsl::StmtPtr& stmt : method->body) {
          TransStmt(app, *stmt, 1);
        }
        out_ += "handler_done: skip;\n";
        out_ += "}\n\n";
      }
    }
  }

  void EmitMainLoop() {
    out_ += "/* Algorithm 1: main event loop of the IoT system. */\n";
    out_ += "active proctype SmartThingsMain() {\n";
    out_ += "    byte event_i;\n";
    out_ += "    for (event_i : 1 .. MAX_EVENTS) {\n";
    out_ += "        if\n";
    for (const model::ExternalEventSpec& spec : model_.external_events()) {
      switch (spec.kind) {
        case model::ExternalEventSpec::Kind::kSensor: {
          const devices::Device& device = model_.devices()[spec.device];
          const devices::AttributeSpec& attr =
              *device.attributes()[spec.attribute];
          for (int v = 0; v < attr.domain_size(); ++v) {
            out_ += "        :: " + DeviceRef(spec.device) + "." +
                    FieldName(attr.name) + " = ";
            if (attr.kind == devices::AttributeKind::kEnum) {
              out_ += Sanitize(attr.values[static_cast<std::size_t>(v)]);
            } else {
              out_ += std::to_string(attr.NumericAt(v));
            }
            out_ += "; notify_subscribers()\n";
          }
          break;
        }
        case model::ExternalEventSpec::Kind::kAppTouch:
          out_ += "        :: /* app touch: " +
                  model_.apps()[spec.app].config.label +
                  " */ notify_subscribers()\n";
          break;
        case model::ExternalEventSpec::Kind::kTimerTick:
          out_ += "        :: /* timer tick */ notify_subscribers()\n";
          break;
        case model::ExternalEventSpec::Kind::kUserModeChange:
          for (const std::string& mode : model_.modes()) {
            out_ += "        :: location_mode = " + Sanitize(mode) +
                    "; notify_subscribers()\n";
          }
          break;
      }
    }
    out_ += "        fi;\n";
    out_ += "    }\n";
    out_ += "}\n\n";
  }

  // ---- LTL -------------------------------------------------------------------

  /// Translates a property expression (any/all/count over roles) into a
  /// closed Promela formula over the emitted globals.
  std::string TransProp(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kBinary: {
        if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
          const char* op = expr.binary_op == BinaryOp::kAnd ? "&&" : "||";
          return "(" + TransProp(*expr.a) + " " + op + " " +
                 TransProp(*expr.b) + ")";
        }
        // Comparison: quantifier expansion when one side is any()/all().
        const Expr* quant = nullptr;
        const Expr* other = nullptr;
        bool mirrored = false;
        if (expr.a->kind == ExprKind::kCall &&
            (expr.a->text == "any" || expr.a->text == "all")) {
          quant = expr.a.get();
          other = expr.b.get();
        } else if (expr.b->kind == ExprKind::kCall &&
                   (expr.b->text == "any" || expr.b->text == "all")) {
          quant = expr.b.get();
          other = expr.a.get();
          mirrored = true;
        }
        const char* op = "==";
        switch (expr.binary_op) {
          case BinaryOp::kEq: op = "=="; break;
          case BinaryOp::kNe: op = "!="; break;
          case BinaryOp::kLt: op = mirrored ? ">" : "<"; break;
          case BinaryOp::kLe: op = mirrored ? ">=" : "<="; break;
          case BinaryOp::kGt: op = mirrored ? "<" : ">"; break;
          case BinaryOp::kGe: op = mirrored ? "<=" : ">="; break;
          default: break;
        }
        if (quant == nullptr) {
          return "(" + TransProp(*expr.a) + " " + op + " " +
                 TransProp(*expr.b) + ")";
        }
        const std::string role = quant->items[0]->text;
        const std::string attr = quant->items[1]->text;
        const bool universal = quant->text == "all";
        std::string rhs = TransProp(*other);
        std::string joined;
        for (std::size_t d = 0; d < model_.devices().size(); ++d) {
          const devices::Device& device = model_.devices()[d];
          if (!device.HasRole(role)) continue;
          if (device.AttributeIndex(attr) < 0) continue;
          if (!joined.empty()) joined += universal ? " && " : " || ";
          joined += "(" + DeviceRef(static_cast<int>(d)) + "." +
                    FieldName(attr) + " " + op + " " + rhs + ")";
        }
        if (joined.empty()) return universal ? "true" : "false";
        return "(" + joined + ")";
      }
      case ExprKind::kUnary:
        return "!" + TransProp(*expr.a);
      case ExprKind::kIdent:
        if (expr.text == "mode") return "location_mode";
        return Sanitize(expr.text);
      case ExprKind::kStringLit: {
        const std::string name = Sanitize(expr.text);
        return mtypes_.count(name) ? name : "0";
      }
      case ExprKind::kNumberLit:
        return strings::FormatNumber(expr.number_value);
      case ExprKind::kBoolLit:
        return expr.bool_value ? "true" : "false";
      default:
        return "true";
    }
  }

  void EmitLtl() {
    for (const props::Property& property : model_.active_properties()) {
      if (property.kind != props::PropertyKind::kInvariant) continue;
      out_ += "/* " + property.id + ": " + property.description + " */\n";
      out_ += "ltl " + strings::ToLower(property.id) + " { [] " +
              TransProp(property.ParsedExpression()) + " }\n";
    }
  }
};

}  // namespace

std::string EmitPromela(const model::SystemModel& model,
                        const EmitOptions& options) {
  return Emitter(model, options).Run();
}

}  // namespace iotsan::promela
