#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/corpus.hpp"
#include "dsl/parser.hpp"
#include "dsl/printer.hpp"
#include "util/error.hpp"

namespace iotsan::dsl {
namespace {

// ---- Expressions ----------------------------------------------------------

std::string Parsed(std::string_view source) {
  return PrintExpr(*ParseExpression(source));
}

TEST(ExprParserTest, Precedence) {
  EXPECT_EQ(Parsed("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Parsed("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(Parsed("a || b && c"), "(a || (b && c))");
  EXPECT_EQ(Parsed("a == b || c == d"), "((a == b) || (c == d))");
  EXPECT_EQ(Parsed("1 < 2 == true"), "((1 < 2) == true)");
  EXPECT_EQ(Parsed("-a + b"), "(-a + b)");
  EXPECT_EQ(Parsed("!a && b"), "(!a && b)");
}

TEST(ExprParserTest, Associativity) {
  EXPECT_EQ(Parsed("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(Parsed("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(ExprParserTest, TernaryAndElvis) {
  EXPECT_EQ(Parsed("a ? b : c"), "(a ? b : c)");
  EXPECT_EQ(Parsed("a ?: c"), "(a ?: c)");
  EXPECT_EQ(Parsed("a ? b : c ? d : e"), "(a ? b : (c ? d : e))");
}

TEST(ExprParserTest, MemberIndexCall) {
  EXPECT_EQ(Parsed("a.b.c"), "a.b.c");
  EXPECT_EQ(Parsed("a[1]"), "a[1]");
  EXPECT_EQ(Parsed("f(1, 2)"), "f(1, 2)");
  EXPECT_EQ(Parsed("a.f(x)"), "a.f(x)");
  EXPECT_EQ(Parsed("a?.b"), "a?.b");
  EXPECT_EQ(Parsed("evt.device.off()"), "evt.device.off()");
}

TEST(ExprParserTest, NamedArguments) {
  EXPECT_EQ(Parsed("sendEvent(name: \"smoke\", value: \"detected\")"),
            "sendEvent(name: \"smoke\", value: \"detected\")");
}

TEST(ExprParserTest, ListAndMapLiterals) {
  EXPECT_EQ(Parsed("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(Parsed("[]"), "[]");
  EXPECT_EQ(Parsed("[a: 1, b: 2]"), "[a: 1, b: 2]");
  EXPECT_EQ(Parsed("[:]"), "[:]");
  EXPECT_EQ(Parsed("[\"x\", y]"), "[\"x\", y]");
}

TEST(ExprParserTest, Closures) {
  ExprPtr e = ParseExpression("list.findAll { it.currentSwitch == \"on\" }");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->text, "findAll");
  ASSERT_EQ(e->items.size(), 1u);
  EXPECT_EQ(e->items[0]->kind, ExprKind::kClosure);
  EXPECT_TRUE(e->items[0]->params.empty());  // implicit `it`
}

TEST(ExprParserTest, ClosureWithExplicitParams) {
  ExprPtr e = ParseExpression("list.collect { a, b -> a }");
  ASSERT_EQ(e->items.size(), 1u);
  EXPECT_EQ(e->items[0]->params,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ExprParserTest, InOperator) {
  EXPECT_EQ(Parsed("x in [1, 2]"), "(x in [1, 2])");
}

TEST(ExprParserTest, MultiLineContinuation) {
  // Non-statement-starting operators continue across newlines.
  EXPECT_EQ(Parsed("a &&\n b"), "(a && b)");
  EXPECT_EQ(Parsed("a ==\n b"), "(a == b)");
}

TEST(ExprParserTest, RejectsMalformed) {
  EXPECT_THROW(ParseExpression("1 +"), ParseError);
  EXPECT_THROW(ParseExpression("(1"), ParseError);
  EXPECT_THROW(ParseExpression("a b"), ParseError);
  EXPECT_THROW(ParseExpression("f(1,"), ParseError);
  EXPECT_THROW(ParseExpression("[1, 2"), ParseError);
  EXPECT_THROW(ParseExpression("a ? b"), ParseError);
}

// ---- Apps -------------------------------------------------------------------

constexpr const char* kMinimalApp = R"APP(
definition(name: "Test App", namespace: "test", author: "t")

preferences {
    section("Devices") {
        input "sw", "capability.switch", title: "Switch"
        input "motion", "capability.motionSensor", required: false
        input "things", "capability.contactSensor", multiple: true
        input "level", "number", title: "Level"
        input "choice", "enum", options: ["a", "b"]
    }
}

def installed() {
    subscribe(sw, "switch.on", onHandler)
}

def onHandler(evt) {
    if (evt.value == "on") {
        sw.off()
    } else {
        log.debug "ignored"
    }
}
)APP";

TEST(AppParserTest, DefinitionMetadata) {
  App app = ParseApp(kMinimalApp);
  EXPECT_EQ(app.name, "Test App");
  EXPECT_EQ(app.namespace_, "test");
  EXPECT_EQ(app.author, "t");
}

TEST(AppParserTest, InputsParsed) {
  App app = ParseApp(kMinimalApp);
  ASSERT_EQ(app.inputs.size(), 5u);
  EXPECT_EQ(app.inputs[0].name, "sw");
  EXPECT_EQ(app.inputs[0].type, "capability.switch");
  EXPECT_EQ(app.inputs[0].title, "Switch");
  EXPECT_TRUE(app.inputs[0].required);
  EXPECT_FALSE(app.inputs[0].multiple);
  EXPECT_FALSE(app.inputs[1].required);
  EXPECT_TRUE(app.inputs[2].multiple);
  EXPECT_EQ(app.inputs[4].options, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(app.inputs[0].section, "Devices");
}

TEST(AppParserTest, MethodsParsed) {
  App app = ParseApp(kMinimalApp);
  ASSERT_EQ(app.methods.size(), 2u);
  EXPECT_EQ(app.methods[0].name, "installed");
  EXPECT_TRUE(app.methods[0].params.empty());
  EXPECT_EQ(app.methods[1].name, "onHandler");
  EXPECT_EQ(app.methods[1].params, (std::vector<std::string>{"evt"}));
  EXPECT_NE(app.FindMethod("onHandler"), nullptr);
  EXPECT_EQ(app.FindMethod("nope"), nullptr);
}

TEST(AppParserTest, CommandCallSyntax) {
  // Groovy's paren-free command call.
  App app = ParseApp(R"APP(
definition(name: "C", namespace: "t")
def installed() {
    subscribe sw, "switch", handler
}
def handler(evt) { }
)APP");
  const Stmt& stmt = *app.methods[0].body[0];
  ASSERT_EQ(stmt.kind, StmtKind::kExpr);
  EXPECT_EQ(stmt.expr->kind, ExprKind::kCall);
  EXPECT_EQ(stmt.expr->text, "subscribe");
  EXPECT_EQ(stmt.expr->items.size(), 3u);
}

TEST(AppParserTest, StatementsRoundTripThroughPrinter) {
  App app = ParseApp(kMinimalApp);
  // Printing and reparsing must preserve the structure.
  App reparsed = ParseApp(PrintApp(app));
  EXPECT_EQ(reparsed.name, app.name);
  EXPECT_EQ(reparsed.inputs.size(), app.inputs.size());
  EXPECT_EQ(reparsed.methods.size(), app.methods.size());
  EXPECT_EQ(PrintApp(reparsed), PrintApp(app));
}

TEST(AppParserTest, ControlFlowStatements) {
  App app = ParseApp(R"APP(
definition(name: "CF", namespace: "t")
def run() {
    def total = 0
    for (x in [1, 2, 3]) {
        total = total + x
    }
    while (total > 10) {
        total = total - 1
    }
    if (total == 10) {
        return total
    } else if (total > 5) {
        return 5
    }
    return 0
}
)APP");
  const auto& body = app.methods[0].body;
  ASSERT_EQ(body.size(), 5u);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kForIn);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kIf);
  ASSERT_EQ(body[3]->else_body.size(), 1u);
  EXPECT_EQ(body[3]->else_body[0]->kind, StmtKind::kIf);  // else-if chain
  EXPECT_EQ(body[4]->kind, StmtKind::kReturn);
}

TEST(AppParserTest, MissingDefinitionRejected) {
  EXPECT_THROW(ParseApp("def foo() { }"), SemanticError);
  EXPECT_THROW(ParseApp("definition(namespace: \"x\")"), SemanticError);
}

TEST(AppParserTest, SyntaxErrorsRejected) {
  EXPECT_THROW(ParseApp("definition(name: \"X\")\ndef f( {"), ParseError);
  EXPECT_THROW(ParseApp("definition(name: \"X\")\npreferences { junk }"),
               ParseError);
  EXPECT_THROW(
      ParseApp("definition(name: \"X\")\ndef f() { if true { } }"),
      ParseError);
}

TEST(AppParserTest, PageBlocksFlattened) {
  App app = ParseApp(R"APP(
definition(name: "Paged", namespace: "t")
preferences {
    page(name: "p1", title: "First") {
        section("S") {
            input "a", "number"
        }
    }
}
)APP");
  ASSERT_EQ(app.inputs.size(), 1u);
  EXPECT_EQ(app.inputs[0].name, "a");
}

TEST(AppParserTest, CosmeticSectionElementsIgnored) {
  App app = ParseApp(R"APP(
definition(name: "Cosmetic", namespace: "t")
preferences {
    section("S") {
        paragraph "Some explanation text"
        input "a", "number"
    }
}
)APP");
  ASSERT_EQ(app.inputs.size(), 1u);
}

// ---- Nesting bound -----------------------------------------------------------

/// `depth` copies of `open`, then `middle`, then `depth` copies of `close`.
std::string Nest(int depth, std::string_view open, std::string_view middle,
                 std::string_view close = "") {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += middle;
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

/// The ParseError message of parsing `source` as an app ("" if none).
std::string AppError(const std::string& source) {
  try {
    ParseApp(source, "deep");
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

int AstDepth(const std::vector<StmtPtr>& body);

/// Statement and expression nodes on the longest path down from `e`.
int AstDepth(const Expr* e) {
  if (e == nullptr) return 0;
  int below = std::max({AstDepth(e->a.get()), AstDepth(e->b.get()),
                        AstDepth(e->c.get()), AstDepth(e->body)});
  for (const ExprPtr& item : e->items) {
    below = std::max(below, AstDepth(item.get()));
  }
  for (const NamedArg& arg : e->named) {
    below = std::max(below, AstDepth(arg.value.get()));
  }
  return 1 + below;
}

int AstDepth(const std::vector<StmtPtr>& body) {
  int deepest = 0;
  for (const StmtPtr& s : body) {
    deepest = std::max(deepest, 1 + std::max({AstDepth(s->expr.get()),
                                              AstDepth(s->body),
                                              AstDepth(s->else_body)}));
  }
  return deepest;
}

TEST(NestingTest, BoundIsFarAboveTheDeepestCorpusApp) {
  int deepest = 0;
  for (const corpus::CorpusApp& app : corpus::AllApps()) {
    const App parsed = ParseApp(app.source, app.name);
    for (const InputDecl& input : parsed.inputs) {
      deepest = std::max(deepest, AstDepth(input.default_value.get()));
    }
    for (const MethodDecl& method : parsed.methods) {
      deepest = std::max(deepest, AstDepth(method.body));
    }
  }
  // The deepest corpus app is 8 statement and expression nodes deep.
  EXPECT_EQ(deepest, 8);
  // The parser holds at most three nesting levels per node (a statement,
  // or an operator, call or member step with the precedence and unary
  // steps under it), and three per redundant pair of parentheses.  The
  // bound leaves room for apps four times deeper than any corpus app.
  EXPECT_GT(kMaxNesting, 4 * 3 * deepest);
}

TEST(NestingTest, HostileNestingIsALocatedParseError) {
  // 100 000 unary minus signs used to overflow the stack.
  try {
    ParseExpression(std::string(100000, '-') + "1");
    FAIL() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "<expr>:1:" + std::to_string(kMaxNesting - 1) +
                  ": nesting deeper than " + std::to_string(kMaxNesting) +
                  " levels");
  }
  EXPECT_THROW(ParseExpression(Nest(100000, "(", "1", ")")), ParseError);
  EXPECT_THROW(ParseExpression(Nest(100000, "a = ", "1")), ParseError);
  EXPECT_THROW(ParseExpression(Nest(100000, "a ? b : ", "1")), ParseError);
  EXPECT_THROW(ParseExpression(Nest(100000, "{ ", "1", " }")), ParseError);
  EXPECT_THROW(ParseExpression(Nest(100000, "[", "1", "]")), ParseError);
  // Loops build these left-deep trees without recursing, but every AST
  // walker (and the destructor) recurses once per node.
  EXPECT_THROW(ParseExpression(Nest(100000, "1 + ", "1")), ParseError);
  EXPECT_THROW(ParseExpression("a" + Nest(100000, ".b", "")), ParseError);
  EXPECT_THROW(ParseExpression("a" + Nest(100000, ".b()", "")), ParseError);
  EXPECT_THROW(ParseExpression("a" + Nest(100000, "[0]", "")), ParseError);

  const std::string head = "definition(name: \"X\")\ndef f() {\n";
  for (const std::string& body :
       {Nest(100000, "if (a) ", "b()"), Nest(100000, "if (a) {", "}", "}"),
        Nest(100000, "if (a) b() else ", "c()"),
        Nest(100000, "while (a) ", "b()"),
        Nest(100000, "f { ", "1", " }")}) {
    const std::string error = AppError(head + body + "\n}\n");
    EXPECT_EQ(error.rfind("deep:", 0), 0u) << error;
    EXPECT_NE(error.find(": nesting deeper than"), std::string::npos)
        << error;
  }
}

TEST(NestingTest, NestingBelowTheBoundParses) {
  EXPECT_EQ(Parsed(Nest(40, "(", "1", ")")), "1");
  EXPECT_EQ(Parsed(Nest(40, "-", "1")), Nest(40, "-", "1"));
  EXPECT_NO_THROW(ParseExpression(Nest(200, "1 + ", "1")));
  EXPECT_NO_THROW(ParseExpression("a" + Nest(200, ".b", "")));
}

TEST(AppParserTest, CloneProducesIdenticalPrint) {
  App app = ParseApp(kMinimalApp);
  for (const MethodDecl& m : app.methods) {
    for (const StmtPtr& s : m.body) {
      StmtPtr clone = CloneStmt(*s);
      EXPECT_EQ(PrintStmt(*clone), PrintStmt(*s));
    }
  }
}

}  // namespace
}  // namespace iotsan::dsl
