#pragma once

// The per-query report derived from a finished run, defined once. The
// PlanValidation record sets the Section 5 model's prediction next to the
// measured time (the paper's Section 6.1 check). For a traced run,
// analyze_query finds the query's root span, walks its critical path,
// pairs each model term with the critical-path stage it prices, and fills
// the diagnosis engine's input. QesSession records the PlanValidation
// only: it never walks the trace, so a concurrent workload under an obs
// context does not assemble one DAG per query.

#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "obs/diag.hpp"
#include "obs/span.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"

namespace orv {

/// What the planner predicted for `executed` vs what the run measured.
/// `executed` differs from plan.chosen when the run was forced. A
/// calibrated plan also carries its uncalibrated prediction.
obs::PlanValidation plan_validation(const PlanDecision& plan,
                                    Algorithm executed,
                                    const QesResult& result,
                                    std::string label);

/// The executor's accounting copied into the diagnosis engine's input,
/// without a critical path (analyze_query adds one).
obs::DiagnosisInput diagnosis_input(std::string label, Algorithm algorithm,
                                    const QesResult& result);

struct QueryAnalysis {
  /// diagnosis_input of the run, with `diag.path` set to the critical path
  /// of the query's root span (empty when the trace has none).
  obs::DiagnosisInput diag;
  /// Model term vs critical-path seconds per stage, in this order:
  /// network (transfer), disk (read), spill (write), cpu (cpu_build +
  /// cpu_lookup), then cache_wait and other, which the model does not
  /// price (predicted 0). Empty when the critical path is.
  std::vector<obs::StageAccuracy> stages;
};

/// Analyses one query's trace: `spans` is the snapshot of a context that
/// traced exactly this run of `algorithm`, and `model` the cost breakdown
/// priced for it.
QueryAnalysis analyze_query(std::vector<obs::SpanRecord> spans,
                            Algorithm algorithm, const QesResult& result,
                            const CostBreakdown& model,
                            std::string label = {});

}  // namespace orv
