// Static analysis: dsl::App -> ir::AnalyzedApp.
#pragma once

#include <string_view>

#include "ir/analyzed_app.hpp"

namespace iotsan::ir {

/// Runs the full static analysis over a parsed app: type inference,
/// subscription/schedule extraction, per-handler input/output event
/// summaries (propagated over the app's internal call graph), API-use
/// collection, dynamic-discovery detection, and the evaluator's name
/// resolution (dsl/resolve.hpp).
AnalyzedApp AnalyzeApp(dsl::App app);

/// Convenience: parse + analyze.
AnalyzedApp AnalyzeSource(std::string_view source,
                          std::string_view source_name = "<app>");

}  // namespace iotsan::ir
