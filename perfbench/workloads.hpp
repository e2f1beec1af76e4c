// workloads.hpp — the benchmark's three workloads (README.md says why each
// was chosen, and what its seed controls).
#pragma once

#include <memory>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// World size (the tracer keeps one span list per rank).
  [[nodiscard]] virtual int ranks() const = 0;

  /// One timed operation under CC. Checks that need no reference run are
  /// made here; a failed one sets OpResult::error.
  virtual OpResult run_op(int index, Tracer* tracer) = 0;

  /// Run the native reference (after the timed operations, so it cannot
  /// raise the timed process's peak RSS before that is read) and apply the
  /// checks that compare against it to every operation.
  virtual void check_against_reference(std::vector<OpResult>& ops) = 0;

  /// Extra per-layer measurements of the traced run: the native comparison,
  /// the bare-runtime floor and the scheduler alone. Returns named values
  /// that are not per-operation. Extra runs whose outputs are checked add
  /// to `attempted`, and those failing a check to `failed`.
  virtual LayerSample traced_extras(const std::vector<OpResult>& ops,
                                    const Tracer& tracer, int* attempted,
                                    int* failed) = 0;
};

/// Null for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace perfbench
