// bench.hpp — shared pieces of the MANATEE end-to-end benchmark: options,
// the per-operation result, per-rank app timestamps and the span tracer.
//
// Everything here lives in the benchmark's own code. The program is driven
// only through its public entry points (split::Engine, split::Lifecycle,
// split::Api, umpi::Runtime, sched::run_tasks and the RunReport / fabric /
// writer / coordinator counters); spans sit at the boundaries the benchmark
// can see from outside: the workload, Engine construction, each run() and
// restart(), each rank's app entry and exit, and each Api call of the
// cc_world loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deliberate corruption of one correctness check, so the benchmark's own
/// tests can show that each check can fail (never used by a measured run).
enum class Perturb { kNone, kFingerprint, kSum, kHop };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Perturb perturb = Perturb::kNone;
  /// Private per-run directory (mkdtemp under TMPDIR) for checkpoint images.
  std::string private_dir;
};

/// splitmix64 over (seed, a, b): the one source of every seeded input.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b = 0);

/// Spans of the traced run. List 0 belongs to the driver thread; list r + 1
/// to world rank r, written only by that rank's task, so recording takes no
/// lock. Spans stay in memory until write_chrome_json() at the end.
class Tracer {
 public:
  struct Ref {
    int list = -1;
    int index = -1;
  };

  Tracer(Clock::time_point origin, int ranks);

  Ref begin(int list, const char* name, Ref parent);
  void end(Ref ref);

  /// Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const char* name) const;
  [[nodiscard]] std::size_t span_count() const;

  /// Chrome trace-event JSON ("X" events, tid = list), viewable offline in
  /// Perfetto or chrome://tracing; args carry the span id and parent id.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Ref parent;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<std::vector<Span>> lists_;
};

/// Opens a span when a tracer is present; closes it on scope exit (also
/// when the app unwinds with StopAfterCheckpoint).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, int list, const char* name, Tracer::Ref parent)
      : tracer_(tracer) {
    if (tracer_ != nullptr) ref_ = tracer_->begin(list, name, parent);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(ref_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] Tracer::Ref ref() const noexcept { return ref_; }

 private:
  Tracer* tracer_;
  Tracer::Ref ref_;
};

/// App entry and exit time of every rank in one run()/restart(). Always on
/// (one clock read per rank each way): setup_s and the finalize and app
/// times come from it in untraced runs too.
class RankTimes {
 public:
  explicit RankTimes(int ranks)
      : entry_(static_cast<std::size_t>(ranks)),
        exit_(static_cast<std::size_t>(ranks)) {}

  void enter(int rank) { entry_[static_cast<std::size_t>(rank)] = Clock::now(); }
  void leave(int rank) { exit_[static_cast<std::size_t>(rank)] = Clock::now(); }

  [[nodiscard]] Clock::time_point last_entry() const;
  [[nodiscard]] Clock::time_point first_exit() const;
  /// Median over ranks of exit − entry, seconds.
  [[nodiscard]] double median_app_s() const;

 private:
  std::vector<Clock::time_point> entry_;
  std::vector<Clock::time_point> exit_;
};

/// Records one rank's app entry/exit and its "app" span.
class AppScope {
 public:
  AppScope(RankTimes& times, int rank, Tracer* tracer, Tracer::Ref parent)
      : times_(times), rank_(rank), span_(tracer, rank + 1, "app", parent) {
    times_.enter(rank_);
  }
  ~AppScope() { times_.leave(rank_); }
  AppScope(const AppScope&) = delete;
  AppScope& operator=(const AppScope&) = delete;

  [[nodiscard]] Tracer::Ref ref() const noexcept { return span_.ref(); }

 private:
  RankTimes& times_;
  int rank_;
  SpanScope span_;
};

/// Named values of one operation's layers (units fixed in main.cpp).
using LayerSample = std::vector<std::pair<std::string, double>>;

/// One timed workload execution.
struct OpResult {
  Clock::time_point start;        ///< just before the first Engine construction
  Clock::time_point all_entered;  ///< every rank inside the app (first run())
  Clock::time_point end;          ///< the last run()/restart() returned
  double vt_makespan_s = 0;
  /// First failed check (or the exception text); empty when the op passed.
  std::string error;
  LayerSample layers;
};

[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
