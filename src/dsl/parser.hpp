// SmartScript parser: source text -> dsl::App.
#pragma once

#include <string_view>

#include "dsl/ast.hpp"
#include "util/error.hpp"

namespace iotsan::dsl {

/// How deeply statements, expressions and closures may nest before the
/// parser rejects the source with a located NestingError.  App source and
/// property expressions are untrusted input, and the parser and every
/// AST walker after it (resolver, type inference, evaluator, printer,
/// Promela emitter) recurse once per level.  Far above the deepest
/// corpus app, which parser_test pins.
inline constexpr int kMaxNesting = 256;

/// The ParseError thrown for source nested past kMaxNesting levels.
class NestingError : public ParseError {
 public:
  using ParseError::ParseError;
};

/// Parses a complete SmartScript application: a `definition(...)` header,
/// an optional `preferences { ... }` block, and `def` methods.  Throws
/// iotsan::ParseError (syntax; NestingError past kMaxNesting levels) or
/// iotsan::SemanticError (structural problems such as a missing
/// definition block).
App ParseApp(std::string_view source, std::string_view source_name = "<app>");

/// Parses a single expression (used by the property language and tests).
ExprPtr ParseExpression(std::string_view source,
                        std::string_view source_name = "<expr>");

}  // namespace iotsan::dsl
