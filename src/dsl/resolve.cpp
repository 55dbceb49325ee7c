#include "dsl/resolve.hpp"

#include <cctype>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace iotsan::dsl {

namespace {

/// The Builtin spelled `name`, or -1.
int LookupBuiltin(std::string_view name) {
  static const std::map<std::string_view, int> kTable = {
#define IOTSAN_BUILTIN_ENTRY(id, spelling) {spelling, id},
      IOTSAN_BUILTINS(IOTSAN_BUILTIN_ENTRY)
#undef IOTSAN_BUILTIN_ENTRY
  };
  auto it = kTable.find(name);
  return it != kTable.end() ? it->second : -1;
}

class Resolver {
 public:
  explicit Resolver(App& app) : app_(app) {}

  void Run() {
    for (MethodDecl& method : app_.methods) Method(method);
  }

 private:
  struct Scope {
    int parent = -1;
    std::map<std::string, int, std::less<>> slots;  // name -> slot
  };
  struct Use {
    Expr* ident;
    int scope;
  };

  App& app_;
  // The current method's scopes, slots and identifier uses.
  std::vector<Scope> scopes_;
  std::vector<std::pair<int, std::string>> slot_names_;  // (scope, name)
  std::vector<Use> uses_;
  int current_ = -1;

  void Method(MethodDecl& method) {
    scopes_.clear();
    slot_names_.clear();
    uses_.clear();
    const int begin = Open();
    Params(method.params);
    Body(method.body);
    Close(begin);
    // Only now is every scope's name set complete: a use may precede the
    // declaration it can see (in a loop, or once the declaring statement
    // has run), so uses resolve after the walk.
    for (const Use& use : uses_) {
      use.ident->slot = Lookup(use.scope, use.ident->text);
    }
    method.outer_slot.clear();
    for (const auto& [scope, name] : slot_names_) {
      method.outer_slot.push_back(Lookup(scopes_[scope].parent, name));
    }
  }

  int Lookup(int scope, std::string_view name) const {
    for (; scope >= 0; scope = scopes_[scope].parent) {
      auto it = scopes_[scope].slots.find(name);
      if (it != scopes_[scope].slots.end()) return it->second;
    }
    return -1;
  }

  int Open() {
    scopes_.push_back({current_, {}});
    current_ = static_cast<int>(scopes_.size()) - 1;
    return static_cast<int>(slot_names_.size());
  }

  SlotRange Close(int begin) {
    current_ = scopes_[current_].parent;
    return {begin, static_cast<int>(slot_names_.size())};
  }

  int NewSlot(const std::string& name) {
    slot_names_.emplace_back(current_, name);
    const int slot = static_cast<int>(slot_names_.size()) - 1;
    scopes_[current_].slots[name] = slot;
    return slot;
  }

  /// The current scope's slot for `name`, allocated on first use.
  int Declare(const std::string& name) {
    auto it = scopes_[current_].slots.find(name);
    return it != scopes_[current_].slots.end() ? it->second : NewSlot(name);
  }

  /// Parameters take consecutive slots; a repeated name sees the last.
  void Params(const std::vector<std::string>& params) {
    for (const std::string& param : params) NewSlot(param);
  }

  void Body(std::vector<StmtPtr>& body) {
    for (StmtPtr& stmt : body) Statement(*stmt);
  }

  void Statement(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kExpr:
      case StmtKind::kReturn:
        if (stmt.expr) Expression(*stmt.expr);
        break;
      case StmtKind::kVarDecl:
        if (stmt.expr) Expression(*stmt.expr);
        stmt.slot = Declare(stmt.name);
        break;
      case StmtKind::kIf: {
        Expression(*stmt.expr);
        int begin = Open();
        Body(stmt.body);
        stmt.scope = Close(begin);
        begin = Open();
        Body(stmt.else_body);
        stmt.else_scope = Close(begin);
        break;
      }
      case StmtKind::kForIn: {
        Expression(*stmt.expr);
        const int begin = Open();
        stmt.slot = Declare(stmt.name);
        Body(stmt.body);
        stmt.scope = Close(begin);
        break;
      }
      case StmtKind::kWhile: {
        const int begin = Open();
        Expression(*stmt.expr);
        Body(stmt.body);
        stmt.scope = Close(begin);
        break;
      }
      case StmtKind::kBlock: {
        const int begin = Open();
        Body(stmt.body);
        stmt.scope = Close(begin);
        break;
      }
    }
  }

  void Expression(Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNullLit:
      case ExprKind::kBoolLit:
      case ExprKind::kNumberLit:
        break;
      case ExprKind::kStringLit:
        Interpolation(expr);
        break;
      case ExprKind::kIdent:
        Ident(expr);
        break;
      case ExprKind::kCall:
        expr.builtin = LookupBuiltin(expr.text);
        if (!expr.a) {
          if (expr.builtin < 0 &&
              strings::StartsWith(expr.text, "runEvery")) {
            expr.builtin = kRunEvery;
          }
          expr.method = app_.FindMethod(expr.text);
        }
        break;
      case ExprKind::kMember:
        expr.builtin = LookupBuiltin(expr.text);
        if (strings::StartsWith(expr.text, "current") &&
            expr.text.size() > 7) {
          expr.attribute = expr.text.substr(7);
          expr.attribute[0] = static_cast<char>(
              std::tolower(static_cast<unsigned char>(expr.attribute[0])));
        }
        break;
      case ExprKind::kClosure: {
        const int begin = Open();
        Params(expr.params.empty() ? std::vector<std::string>{"it"}
                                   : expr.params);
        Body(expr.body);
        expr.scope = Close(begin);
        return;  // the body is the closure's scope; no children below
      }
      case ExprKind::kAssign:
        // An assignment to an undeclared name declares it in the scope
        // the assignment runs in.
        if (expr.a->kind == ExprKind::kIdent) Declare(expr.a->text);
        break;
      default:
        break;
    }
    for (ExprPtr* child : {&expr.a, &expr.b, &expr.c}) {
      if (*child) Expression(**child);
    }
    for (ExprPtr& item : expr.items) Expression(*item);
    for (NamedArg& arg : expr.named) Expression(*arg.value);
  }

  void Ident(Expr& expr) {
    expr.builtin = LookupBuiltin(expr.text);
    // Inputs bind in declaration order, so a repeated name sees the last.
    for (std::size_t i = 0; i < app_.inputs.size(); ++i) {
      if (app_.inputs[i].name == expr.text) expr.index = static_cast<int>(i);
    }
    uses_.push_back({&expr, current_});
  }

  /// Splits `${...}` fragments out of a string literal, parsing each
  /// once; an unparseable fragment stays verbatim.
  void Interpolation(Expr& expr) {
    const std::string& text = expr.text;
    expr.parts.clear();
    if (text.find("${") == std::string::npos) return;
    std::string literal;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t start = text.find("${", pos);
      if (start == std::string::npos) {
        literal += text.substr(pos);
        break;
      }
      literal += text.substr(pos, start - pos);
      const std::size_t end = text.find('}', start);
      if (end == std::string::npos) {
        literal += text.substr(start);
        break;
      }
      const std::string inner = text.substr(start + 2, end - start - 2);
      ExprPtr parsed;
      try {
        parsed = ParseExpression(inner);
      } catch (const Error&) {
        // kept verbatim below
      }
      if (parsed) {
        if (!literal.empty()) expr.parts.push_back({std::move(literal), {}});
        literal.clear();
        Expression(*parsed);
        expr.parts.push_back({"${" + inner + "}", std::move(parsed)});
      } else {
        literal += "${" + inner + "}";
      }
      pos = end + 1;
    }
    if (!literal.empty()) expr.parts.push_back({std::move(literal), {}});
  }
};

}  // namespace

void ResolveNames(App& app) { Resolver(app).Run(); }

}  // namespace iotsan::dsl
