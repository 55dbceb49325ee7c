// Abstract syntax tree for SmartScript apps.
//
// The AST is a tagged-node design (one struct per syntactic class with a
// kind discriminator) rather than a virtual hierarchy: every consumer in
// iotsan — the static analyzer (src/ir), the evaluator (src/model), the
// type-inference pass, and the Promela emitter (src/promela) — switches
// exhaustively over node kinds, which a closed enum makes checkable.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace iotsan::dsl {

struct Expr;
struct Stmt;
struct MethodDecl;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExprKind {
  kNullLit,
  kBoolLit,
  kNumberLit,
  kStringLit,
  kListLit,      // [a, b, c]
  kMapLit,       // [key: v, ...]  (Groovy map literal)
  kIdent,
  kBinary,       // arithmetic / comparison / logic / 'in'
  kUnary,        // -x, !x
  kTernary,      // c ? a : b   and elvis a ?: b (cond == lhs)
  kCall,         // f(args) or recv.m(args); named args kept separately
  kMember,       // recv.name  (property access; '?.': safe member)
  kIndex,        // recv[expr]
  kClosure,      // { params -> stmts }  (implicit param: it)
  kAssign,       // target = value, +=, -=
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kIn,
};

enum class UnaryOp { kNeg, kNot };

enum class AssignOp { kAssign, kAddAssign, kSubAssign };

/// One `key: value` named argument in a call or map literal entry.
struct NamedArg {
  std::string name;
  ExprPtr value;
};

/// The frame slots [begin, end) of one scope's locals, nested scopes'
/// included (name resolution, see Expr).
struct SlotRange {
  int begin = 0;
  int end = 0;
};

/// One piece of an interpolated string: literal `text`, or a `${...}`
/// fragment's parsed `expr` with `text` its verbatim fallback.
struct StringPart {
  std::string text;
  ExprPtr expr;
};

struct Expr {
  ExprKind kind;
  int line = 0;
  int column = 0;

  // kBoolLit
  bool bool_value = false;
  // kNumberLit
  double number_value = 0;
  bool is_decimal = false;
  // kStringLit, kIdent, kMember (member name), kCall (callee name when
  // it is a plain identifier call)
  std::string text;

  // kBinary / kUnary / kAssign operators.
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;
  AssignOp assign_op = AssignOp::kAssign;

  // Children.  Meaning depends on kind:
  //  kBinary: a=lhs, b=rhs. kUnary: a. kTernary: a=cond, b=then, c=else.
  //  kMember/kIndex: a=receiver (b=index for kIndex).
  //  kCall: a=receiver (may be null for free calls).
  //  kAssign: a=target, b=value.
  ExprPtr a, b, c;

  // kListLit elements; kCall positional arguments.
  std::vector<ExprPtr> items;
  // kMapLit entries; kCall named arguments.
  std::vector<NamedArg> named;

  // kMember with '?.'
  bool safe_navigation = false;

  // kClosure
  std::vector<std::string> params;          // empty => implicit `it`
  std::vector<StmtPtr> body;

  // Name resolution, filled once per analysed app by ResolveNames
  // (dsl/resolve.hpp) so the evaluator looks no name up by string.
  // Other passes ignore these fields; clones start unresolved.
  //  kIdent: `slot` = the enclosing method's frame slot of the innermost
  //    scope that can declare `text` (-1: none); `index` = the app input
  //    named `text` (-1: none).
  //  kIdent/kCall/kMember: `builtin` = the Builtin named `text` (-1:
  //    none).  kCall without receiver: `method` = the app method named
  //    `text`.
  //  kMember: `attribute` = the attribute a `current<Attr>` member reads.
  //  kStringLit: `parts` when `text` interpolates `${...}`.
  //  kClosure: `scope`; its parameters (or `it`) take its first slots.
  int slot = -1;
  int index = -1;
  int builtin = -1;
  const MethodDecl* method = nullptr;
  std::string attribute;
  std::vector<StringPart> parts;
  SlotRange scope;

  Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
};

enum class StmtKind {
  kExpr,
  kVarDecl,   // def x = e
  kIf,
  kReturn,
  kForIn,     // for (x in e) { ... }
  kWhile,
  kBlock,
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  int column = 0;

  // kVarDecl: name + optional init (in `expr`).
  std::string name;

  // kExpr / kReturn value / kIf condition / kForIn iterable / kWhile cond.
  ExprPtr expr;

  // kIf: then/else branches. kForIn/kWhile/kBlock: body in `body`.
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;

  // Name resolution (see Expr): kVarDecl/kForIn `slot` = the local
  // `name` declares; `scope` = the then/loop/block scope, `else_scope`
  // the else scope.
  int slot = -1;
  SlotRange scope;
  SlotRange else_scope;

  Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;
};

/// One `input "name", "type", title: ..., required: ..., multiple: ...`
/// declaration inside preferences (paper Fig. 1).
struct InputDecl {
  std::string name;        // app global this input defines
  std::string type;        // "capability.switch", "number", "enum", ...
  std::string title;
  std::string section;     // enclosing section description
  bool required = true;
  bool multiple = false;
  std::vector<std::string> options;  // for "enum" inputs
  ExprPtr default_value;             // optional `defaultValue:`
  int line = 0;
};

/// A `def name(params) { ... }` method.
struct MethodDecl {
  std::string name;
  std::vector<std::string> params;
  std::vector<StmtPtr> body;
  int line = 0;
  /// Name resolution (see Expr): one entry per frame slot (parameters
  /// first), the slot of the same name in the nearest enclosing scope
  /// that can declare it, or -1.
  std::vector<int> outer_slot;
};

/// A parsed SmartScript application.
struct App {
  // definition(...) metadata.
  std::string name;
  std::string namespace_;
  std::string author;
  std::string description;
  std::string category;

  std::vector<InputDecl> inputs;
  std::vector<MethodDecl> methods;

  /// Source name the app was parsed from (diagnostics / reports).
  std::string source_name;

  const MethodDecl* FindMethod(std::string_view method_name) const;
  const InputDecl* FindInput(std::string_view input_name) const;
};

/// Deep-copy helpers (AST nodes are move-only; corpus variants clone).
ExprPtr CloneExpr(const Expr& e);
StmtPtr CloneStmt(const Stmt& s);

}  // namespace iotsan::dsl
