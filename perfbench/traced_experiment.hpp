#pragma once

/// \file traced_experiment.hpp
/// runner::runExperiment, assembled step by step with a span around each
/// public call into a layer — the benchmark's traced run.
///
/// The assembly mirrors runner/experiment.cpp call for call. It is kept
/// honest by the driver: every traced pass's results digest must equal the
/// untraced pass's (which calls runExperiment itself), so any drift between
/// this copy and the library shows up as a failed benchmark run.

#include <cstddef>
#include <vector>

#include "runner/experiment.hpp"

namespace perfbench {

/// One timed interval. Times are seconds on the process's steady clock;
/// `parent` indexes the enclosing span in the same list (-1 for a root).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Spans of one experiment, in opening order. Not thread-safe: each
/// experiment records into its own recorder.
class SpanRecorder {
 public:
  int open(const char* name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.open(name)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

double steadySeconds();

struct TracedOutput {
  dtncache::runner::ExperimentOutput output;
  /// Root span "experiment" (the runExperiment-equivalent work) with its
  /// layer children, then the root span "net.replay_floor": the same trace
  /// replayed through a fresh net::Network with a no-op contact handler.
  std::vector<Span> spans;
  std::size_t observedPairs = 0;  ///< estimator pairs seen by the end of the run
};

TracedOutput runTracedExperiment(const dtncache::runner::ExperimentConfig& config);

}  // namespace perfbench
