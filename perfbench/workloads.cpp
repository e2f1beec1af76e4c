#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <span>
#include <string>

#include "core/drain_graph.hpp"
#include "sched/scheduler.hpp"
#include "simnet/time.hpp"
#include "split/engine.hpp"
#include "split/lifecycle.hpp"
#include "umpi/runtime.hpp"
#include "workloads/vasp_proxy.hpp"

namespace perfbench {

using manatee::simnet::SimTime;
using manatee::split::Api;
using manatee::split::Engine;
using manatee::split::EngineConfig;
using manatee::split::Protocol;
using manatee::split::RunReport;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Layer counters of one operation, summed over its run()/restart()
/// segments (peak stack: maximum).
struct EngineTally {
  double wrapper_calls = 0;
  double protocol_msgs = 0;
  double cc_updates = 0;
  double coll_msgs = 0;
  double coll_bytes = 0;
  double p2p_msgs = 0;
  double p2p_bytes = 0;
  double ctrl_msgs = 0;
  double dispatches = 0;
  double peak_stack = 0;
  double cycles = 0;
  double image_bytes = 0;
  double written_bytes = 0;
  double vt_stall_ns = 0;
  double vt_restart_ns = 0;

  void add(Engine& engine, const RunReport& r) {
    using manatee::simnet::TrafficClass;
    auto& fabric = engine.runtime().fabric();
    const auto coll = fabric.counters(TrafficClass::kCollective);
    const auto p2p = fabric.counters(TrafficClass::kUserP2P);
    wrapper_calls += static_cast<double>(r.wrapper_collective_calls + r.wrapper_p2p_calls);
    protocol_msgs += static_cast<double>(r.ckpt_protocol_messages);
    for (const auto& c : engine.coordinator().cycle_stats()) {
      cc_updates += static_cast<double>(c.cc_updates_sent);
    }
    coll_msgs += static_cast<double>(r.collective_messages);
    coll_bytes += static_cast<double>(coll.bytes);
    p2p_msgs += static_cast<double>(p2p.messages);
    p2p_bytes += static_cast<double>(p2p.bytes);
    ctrl_msgs += static_cast<double>(fabric.counters(TrafficClass::kControl).messages);
    dispatches += static_cast<double>(r.sched.dispatches);
    peak_stack = std::max(peak_stack, static_cast<double>(r.sched.peak_committed));
    cycles += static_cast<double>(r.checkpoints);
    image_bytes += static_cast<double>(r.image_bytes_total);
    written_bytes += static_cast<double>(r.written_bytes_total);
    for (const SimTime d : r.ckpt_durations) vt_stall_ns += static_cast<double>(d);
    vt_restart_ns += static_cast<double>(r.restart_duration);
  }

  void append_to(LayerSample& out) const {
    const double per_gen = cycles > 0 ? 1.0 / cycles : 0.0;
    out.emplace_back("split.wrapper_calls", wrapper_calls);
    out.emplace_back("core.protocol_msgs", protocol_msgs);
    out.emplace_back("core.cc_updates", cc_updates);
    out.emplace_back("umpi.coll_msgs", coll_msgs);
    out.emplace_back("umpi.coll_mb", coll_bytes / kMiB);
    out.emplace_back("simnet.p2p_msgs", p2p_msgs);
    out.emplace_back("simnet.p2p_mb", p2p_bytes / kMiB);
    out.emplace_back("simnet.ctrl_msgs", ctrl_msgs);
    out.emplace_back("sched.dispatches", dispatches);
    out.emplace_back("sched.dispatches_per_call",
                     wrapper_calls > 0 ? dispatches / wrapper_calls : 0.0);
    out.emplace_back("sched.peak_stack_mb", peak_stack / kMiB);
    out.emplace_back("ckpt.cycles", cycles);
    out.emplace_back("ckpt.image_mb_per_gen", image_bytes * per_gen / kMiB);
    out.emplace_back("ckpt.written_mb_per_gen", written_bytes * per_gen / kMiB);
    out.emplace_back("ckpt.vt_stall_ms", vt_stall_ns / 1e6);
    out.emplace_back("ckpt.vt_restart_ms", vt_restart_ns / 1e6);
  }
};

/// Median wall time of `reps` calls of `fn`, seconds.
template <typename Fn>
double median_wall(int reps, Fn&& fn) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  return median(walls);
}

double run_tasks_s(const manatee::sched::SchedConfig& config, int tasks) {
  return median_wall(3, [&] { manatee::sched::run_tasks(config, tasks, [](int) {}); });
}

/// CC-minus-native overheads (wall and virtual) from the operations'
/// medians, plus the scheduler alone with one empty task per rank.
LayerSample overheads(const std::vector<OpResult>& ops, const std::vector<double>& native_walls,
                      double native_vt_s, const manatee::sched::SchedConfig& sched, int ranks) {
  std::vector<double> walls, vts;
  for (const auto& op : ops) {
    walls.push_back(seconds_between(op.start, op.end));
    vts.push_back(op.vt_makespan_s);
  }
  return {
      {"core.cc_overhead_s", median(walls) - median(native_walls)},
      {"core.vt_cc_overhead_ms", (median(vts) - native_vt_s) * 1e3},
      {"sched.run_tasks_s", run_tasks_s(sched, ranks)},
  };
}

/// A failure-free run's virtual makespan is a pure function of its inputs:
/// every operation of the process must report the first one's.
void check_same_vt(std::vector<OpResult>& ops) {
  for (auto& op : ops) {
    if (op.error.empty() && op.vt_makespan_s != ops.front().vt_makespan_s) {
      op.error = "virtual makespan differs between identical runs";
    }
  }
}

// ---------------------------------------------------------------------------
// VASP proxy workloads.

/// What a VASP rank's app needs from the driver; the driver swaps the
/// RankTimes and parent span between segments, while no rank runs.
struct VaspAppContext {
  RankTimes* times = nullptr;
  Tracer* tracer = nullptr;
  Tracer::Ref parent;
  std::vector<std::uint64_t>* fingerprints = nullptr;
};

class VaspBase : public Workload {
 protected:
  static constexpr int kWorld = 64;
  static constexpr int kRanksPerNode = 16;

  [[nodiscard]] int ranks() const override { return kWorld; }

  VaspBase(const Options& options, manatee::workloads::VaspProxy proxy)
      : options_(options), proxy_(proxy) {
    // Seeded load imbalance: each rank's modelled compute per FFT stage is
    // up to 2% above the proxy's, so the virtual makespan depends on the
    // seed while every rank's data (and fingerprint) does not.
    const SimTime base = proxy_.compute_per_fft_ns;
    for (int r = 0; r < kWorld; ++r) {
      compute_ns_.push_back(base + static_cast<SimTime>(
                                       mix(options_.seed, 1, static_cast<std::uint64_t>(r)) %
                                       static_cast<std::uint64_t>(base / 50)));
    }
  }

  [[nodiscard]] EngineConfig config(Protocol protocol) const {
    EngineConfig cfg;
    cfg.runtime.world_size = kWorld;
    cfg.runtime.ranks_per_node = kRanksPerNode;
    cfg.protocol = protocol;
    return cfg;
  }

  [[nodiscard]] manatee::split::WrappedApp app(VaspAppContext& ctx) const {
    return [this, &ctx](Api& api) {
      const int r = api.rank();
      AppScope scope(*ctx.times, r, ctx.tracer, ctx.parent);
      manatee::workloads::VaspProxy instance = proxy_;
      instance.compute_per_fft_ns = compute_ns_[static_cast<std::size_t>(r)];
      instance(api);
      (*ctx.fingerprints)[static_cast<std::size_t>(r)] = instance.outcome.fingerprint;
    };
  }

  /// Bytes of registered state every rank's image must hold at least.
  [[nodiscard]] std::uint64_t registered_bytes_per_rank() const {
    const int band = kWorld / std::max(1, proxy_.band_groups);
    const std::uint64_t doubles =
        static_cast<std::uint64_t>(proxy_.wavefunction_elems) +
        static_cast<std::uint64_t>(proxy_.pseudopotential_elems) +
        2ULL * static_cast<std::uint64_t>(proxy_.fft_block_elems) *
            static_cast<std::uint64_t>(band) +
        3ULL * 64;
    return doubles * sizeof(double) + 4 * sizeof(double);
  }

  /// The uninterrupted native run: reference fingerprints and virtual time.
  void run_reference() {
    std::vector<std::uint64_t> fps(kWorld, 0);
    RankTimes times(kWorld);
    VaspAppContext ctx{&times, nullptr, {}, &fps};
    const auto t0 = Clock::now();
    Engine engine(config(Protocol::kNative));
    const RunReport report = engine.run(app(ctx));
    native_walls_.push_back(seconds_between(t0, Clock::now()));
    if (reference_.empty()) {
      reference_ = fps;
      native_vt_s_ = report.seconds();
      if (options_.perturb == Perturb::kFingerprint) reference_[0] ^= 1;
    }
  }

  /// Every rank's fingerprint equals the native run's.
  void check_fingerprints(OpResult& op,
                          const std::vector<std::uint64_t>& fps) const {
    if (!op.error.empty()) return;
    for (std::size_t r = 0; r < fps.size(); ++r) {
      if (fps[r] != reference_[r]) {
        op.error = "rank " + std::to_string(r) +
                   " fingerprint differs from the native run";
        return;
      }
    }
  }

  Options options_;
  manatee::workloads::VaspProxy proxy_;
  std::vector<SimTime> compute_ns_;
  std::vector<std::uint64_t> reference_;
  double native_vt_s_ = 0;
  std::vector<double> native_walls_;
  /// Per-operation final fingerprints, checked once the reference exists.
  std::vector<std::vector<std::uint64_t>> op_fingerprints_;
};

manatee::workloads::VaspProxy vasp_cc_proxy() {
  manatee::workloads::VaspProxy p;
  p.scf_iterations = 16;
  p.ffts_per_iteration = 12;
  p.band_groups = 2;
  return p;
}

manatee::workloads::VaspProxy vasp_chain_proxy() {
  manatee::workloads::VaspProxy p;
  p.scf_iterations = 8;
  p.ffts_per_iteration = 12;
  p.fft_block_elems = 128;
  p.band_groups = 2;
  p.wavefunction_elems = 64 * 1024;       // hot: 512 KiB per rank
  p.pseudopotential_elems = 192 * 1024;   // cold: 1.5 MiB per rank
  return p;
}

class VaspCc final : public VaspBase {
 public:
  explicit VaspCc(const Options& options) : VaspBase(options, vasp_cc_proxy()) {}

  OpResult run_op(int /*index*/, Tracer* tracer) override {
    OpResult op;
    std::vector<std::uint64_t> fps(kWorld, 0);
    RankTimes times(kWorld);
    VaspAppContext ctx{&times, tracer, {}, &fps};
    op.start = Clock::now();
    SpanScope workload_span(tracer, 0, "workload", {});
    RunReport report;
    EngineTally tally;
    try {
      std::optional<SpanScope> engine_span(std::in_place, tracer, 0, "engine",
                                           workload_span.ref());
      Engine engine(config(Protocol::kCC));
      engine_span.reset();
      SpanScope run_span(tracer, 0, "run", workload_span.ref());
      ctx.parent = run_span.ref();
      report = engine.run(app(ctx));
      op.end = Clock::now();
      tally.add(engine, report);
    } catch (const std::exception& e) {
      op.end = Clock::now();
      op.error = std::string("run failed: ") + e.what();
    }
    op.all_entered = times.last_entry();
    op.vt_makespan_s = report.seconds();
    tally.append_to(op.layers);
    op.layers.emplace_back("split.app_s", times.median_app_s());
    op.layers.emplace_back("core.finalize_s", seconds_between(times.first_exit(), op.end));

    const auto s = static_cast<std::uint64_t>(proxy_.scf_iterations);
    const auto f = static_cast<std::uint64_t>(proxy_.ffts_per_iteration);
    const std::uint64_t want_coll = kWorld * (s * (3 * f + 1) + 1);
    const std::uint64_t want_p2p = kWorld * s * f * 4;
    if (op.error.empty() && (report.wrapper_collective_calls != want_coll ||
                             report.wrapper_p2p_calls != want_p2p)) {
      op.error = "wrapper calls " + std::to_string(report.wrapper_collective_calls) +
                 " coll / " + std::to_string(report.wrapper_p2p_calls) +
                 " p2p, closed form " + std::to_string(want_coll) + " / " +
                 std::to_string(want_p2p);
    }
    op_fingerprints_.push_back(std::move(fps));
    return op;
  }

  void check_against_reference(std::vector<OpResult>& ops) override {
    run_reference();
    check_same_vt(ops);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      check_fingerprints(ops[i], op_fingerprints_[i]);
      if (ops[i].error.empty() && ops[i].vt_makespan_s < native_vt_s_) {
        ops[i].error = "CC virtual makespan below the native one";
      }
    }
  }

  LayerSample traced_extras(const std::vector<OpResult>& ops, const Tracer&,
                            int* /*attempted*/, int* /*failed*/) override {
    while (native_walls_.size() < 3) run_reference();
    return overheads(ops, native_walls_, native_vt_s_, config(Protocol::kCC).runtime.sched,
                     kWorld);
  }
};

class VaspChain final : public VaspBase {
 public:
  static constexpr int kHops = 2;

  explicit VaspChain(const Options& options) : VaspBase(options, vasp_chain_proxy()) {
    // A collective-count trigger counts the collectives its segment executes
    // after replay, and the schedule fires its values in ascending order,
    // one per segment. So trigger k is the gap from hop k-1 to hop k: about
    // a third of the run, drawn from the seed in disjoint windows of 1/32
    // of the run (distinct values, or one fire would consume two). The last
    // hop lands by three quarters of the run, well before the last wrapper
    // boundary.
    const std::uint64_t total =
        static_cast<std::uint64_t>(proxy_.scf_iterations) *
            (3 * static_cast<std::uint64_t>(proxy_.ffts_per_iteration) + 1) +
        1;
    const std::uint64_t window = total / 32;
    for (int k = 0; k < kHops; ++k) {
      const auto kk = static_cast<std::uint64_t>(k);
      triggers_.push_back(total / (kHops + 1) + kk * window +
                          mix(options_.seed, 2, kk) % window);
    }
    planned_hops_ = kHops;
    if (options_.perturb == Perturb::kHop) {
      // A planned hop placed past the last collective: it can never fire,
      // so the chain must come back one crash short.
      triggers_.push_back(total + 1000);
      ++planned_hops_;
    }
  }

  OpResult run_op(int index, Tracer* tracer) override {
    OpResult op;
    std::vector<std::uint64_t> fps(kWorld, 0);
    const auto max_segments = static_cast<std::size_t>(planned_hops_) + 1;
    std::vector<RankTimes> times(max_segments, RankTimes(kWorld));
    VaspAppContext ctx{&times[0], tracer, {}, &fps};

    const auto image_dir = std::filesystem::path(options_.private_dir) /
                           ("chain_" + std::to_string(index));
    std::filesystem::create_directories(image_dir);

    manatee::split::LifecycleConfig lc;
    lc.engine = config(Protocol::kCC);
    lc.engine.image_dir = image_dir.string();
    lc.engine.retain_generations = 1;
    lc.engine.failures.at_collectives = triggers_;
    lc.engine.record_trace = tracer != nullptr;
    lc.max_segments = max_segments;

    EngineTally tally;
    std::vector<double> segment_s, restore_s;
    std::string oracle_error;
    Clock::time_point segment_start;
    std::size_t segments = 0;
    SpanScope workload_span(tracer, 0, "workload", {});
    std::optional<SpanScope> segment_span;

    lc.on_segment = [&](Engine& engine, const RunReport& r, std::size_t seg) {
      const auto returned = Clock::now();
      segment_span.reset();
      tally.add(engine, r);
      if (seg > 0) restore_s.push_back(seconds_between(segment_start, times[seg].last_entry()));
      if (r.stopped_after_checkpoint) {
        segment_s.push_back(seconds_between(segment_start, returned));
        if (tracer != nullptr && oracle_error.empty()) {
          const auto graph = engine.make_drain_graph();
          for (std::uint64_t c = 1; c <= r.checkpoints; ++c) {
            const auto verdict = graph.check_safe_state(c, true);
            if (!verdict.ok) {
              oracle_error = "segment " + std::to_string(seg) + " cycle " +
                             std::to_string(c) + ": " + verdict.error;
            }
          }
        }
      }
      op.vt_makespan_s += r.seconds();
      if (r.stopped_after_checkpoint && seg + 1 < times.size()) {
        ctx.times = &times[seg + 1];
        segment_span.emplace(tracer, 0, "restart", workload_span.ref());
        ctx.parent = segment_span->ref();
      }
      segment_start = Clock::now();
      ++segments;
    };

    manatee::split::LifecycleReport report;
    op.start = Clock::now();
    segment_start = op.start;
    segment_span.emplace(tracer, 0, "run", workload_span.ref());
    ctx.parent = segment_span->ref();
    try {
      manatee::split::Lifecycle lifecycle(lc);
      report = lifecycle.run(app(ctx));
      op.end = Clock::now();
    } catch (const std::exception& e) {
      op.end = Clock::now();
      op.error = std::string("lifecycle failed: ") + e.what();
    }
    segment_span.reset();
    op.all_entered = times[0].last_entry();
    tally.append_to(op.layers);
    double app_s = 0;
    for (std::size_t s = 0; s < segments; ++s) app_s += times[s].median_app_s();
    op.layers.emplace_back("split.app_s", app_s);
    op.layers.emplace_back(
        "core.finalize_s",
        seconds_between(times[segments == 0 ? 0 : segments - 1].first_exit(), op.end));
    op.layers.emplace_back("ckpt.segment_s", median(segment_s));
    op.layers.emplace_back("ckpt.restore_s", median(restore_s));

    if (op.error.empty()) op.error = check_chain(report);
    if (op.error.empty()) op.error = oracle_error;
    op_fingerprints_.push_back(std::move(fps));
    std::error_code ec;
    if (op.error.empty()) std::filesystem::remove_all(image_dir, ec);
    return op;
  }

  void check_against_reference(std::vector<OpResult>& ops) override {
    run_reference();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      check_fingerprints(ops[i], op_fingerprints_[i]);
    }
  }

  LayerSample traced_extras(const std::vector<OpResult>& ops, const Tracer&,
                            int* /*attempted*/, int* /*failed*/) override {
    return overheads(ops, native_walls_, native_vt_s_, config(Protocol::kCC).runtime.sched,
                     kWorld);
  }
 private:
  /// Hop accounting: every planned hop is one checkpoint, one crash and one
  /// restart from the generation just written, and every generation holds
  /// at least the registered state of all ranks.
  [[nodiscard]] std::string check_chain(const manatee::split::LifecycleReport& report) const {
    const auto hops = static_cast<std::uint64_t>(planned_hops_);
    if (!report.completed) return "chain did not run to completion";
    if (report.crashes != hops || report.checkpoints != hops) {
      return "planned " + std::to_string(hops) + " hops, got " +
             std::to_string(report.crashes) + " crashes and " +
             std::to_string(report.checkpoints) + " checkpoints";
    }
    for (std::size_t k = 0; k < report.restored_generations.size(); ++k) {
      if (report.restored_generations[k] != k + 1) {
        return "restart " + std::to_string(k + 1) + " restored generation " +
               std::to_string(report.restored_generations[k]);
      }
    }
    const std::uint64_t floor = registered_bytes_per_rank() * kWorld;
    for (std::size_t s = 0; s + 1 < report.segments.size(); ++s) {
      if (report.segments[s].image_bytes_total < floor) {
        return "generation " + std::to_string(s + 1) + " holds " +
               std::to_string(report.segments[s].image_bytes_total) +
               " image bytes, below the registered state " + std::to_string(floor);
      }
    }
    return {};
  }

  std::vector<std::uint64_t> triggers_;
  int planned_hops_ = 0;
};

// ---------------------------------------------------------------------------
// cc_world: a 4096-rank world whose ranks loop over an 8-byte allreduce and
// a barrier. Written here, not taken from workloads/, so every Api call of
// the loop can carry its own span.

class CcWorld final : public Workload {
 public:
  static constexpr int kWorld = 4096;
  static constexpr int kRanksPerNode = 64;
  static constexpr int kIterations = 4;

  [[nodiscard]] int ranks() const override { return kWorld; }

  explicit CcWorld(const Options& options) : options_(options) {
    for (int it = 0; it < kIterations; ++it) {
      const auto base = static_cast<std::int64_t>(
          mix(options_.seed, 3, static_cast<std::uint64_t>(it)) % 1'000'000'007ULL);
      base_.push_back(base);
      // Closed form: sum over r of (base + r).
      std::int64_t want = kWorld * base + std::int64_t{kWorld} * (kWorld - 1) / 2;
      if (options_.perturb == Perturb::kSum) ++want;
      expected_.push_back(want);
    }
  }

  OpResult run_op(int /*index*/, Tracer* tracer) override {
    OpResult op;
    RankTimes times(kWorld);
    std::vector<int> completed(kWorld, 0);
    std::atomic<int> wrong{0};
    op.start = Clock::now();
    SpanScope workload_span(tracer, 0, "workload", {});
    RunReport report;
    EngineTally tally;
    try {
      std::optional<SpanScope> engine_span(std::in_place, tracer, 0, "engine",
                                           workload_span.ref());
      Engine engine(config(Protocol::kCC));
      engine_span.reset();
      SpanScope run_span(tracer, 0, "run", workload_span.ref());
      report = engine.run(app(times, completed, wrong, tracer, run_span.ref()));
      op.end = Clock::now();
      tally.add(engine, report);
    } catch (const std::exception& e) {
      op.end = Clock::now();
      op.error = std::string("run failed: ") + e.what();
    }
    op.all_entered = times.last_entry();
    op.vt_makespan_s = report.seconds();
    tally.append_to(op.layers);
    op.layers.emplace_back("split.app_s", times.median_app_s());
    op.layers.emplace_back("core.finalize_s", seconds_between(times.first_exit(), op.end));
    if (op.error.empty()) op.error = check(completed, wrong.load());
    const auto want_calls = static_cast<std::uint64_t>(kWorld) * 2 * kIterations;
    if (op.error.empty() && report.wrapper_collective_calls != want_calls) {
      op.error = "wrapper collective calls " +
                 std::to_string(report.wrapper_collective_calls) + ", planned " +
                 std::to_string(want_calls);
    }
    return op;
  }

  void check_against_reference(std::vector<OpResult>& ops) override { check_same_vt(ops); }

  LayerSample traced_extras(const std::vector<OpResult>& ops, const Tracer& tracer,
                            int* attempted, int* failed) override {
    // Native comparison on the same inputs.
    std::vector<double> native_walls;
    double native_vt = 0;
    for (int i = 0; i < 3; ++i) {
      RankTimes times(kWorld);
      std::vector<int> completed(kWorld, 0);
      std::atomic<int> wrong{0};
      const auto t0 = Clock::now();
      Engine engine(config(Protocol::kNative));
      native_vt = engine.run(app(times, completed, wrong, nullptr, {})).seconds();
      native_walls.push_back(seconds_between(t0, Clock::now()));
      ++*attempted;
      if (!check(completed, wrong.load()).empty()) ++*failed;
    }
    // The same loop straight on the runtime: no wrappers, no drain manager.
    const double bare = median_wall(3, [&] {
      std::atomic<int> wrong{0};
      manatee::umpi::Runtime runtime(config(Protocol::kNative).runtime);
      runtime.run([&](manatee::umpi::Rank& rank) {
        for (int it = 0; it < kIterations; ++it) {
          const std::int64_t mine = base_[static_cast<std::size_t>(it)] + rank.world_rank();
          std::int64_t sum = 0;
          rank.allreduce(rank.world(), std::as_bytes(std::span(&mine, 1)),
                         std::as_writable_bytes(std::span(&sum, 1)),
                         manatee::umpi::Datatype::kInt64, manatee::umpi::ReduceOp::kSum);
          if (sum != expected_[static_cast<std::size_t>(it)]) wrong.fetch_add(1);
          rank.barrier(rank.world());
        }
      });
      ++*attempted;
      if (wrong.load() != 0) ++*failed;
    });

    std::vector<double> calls = tracer.durations("allreduce");
    for (const double d : tracer.durations("barrier")) calls.push_back(d);
    LayerSample out =
        overheads(ops, native_walls, native_vt, config(Protocol::kCC).runtime.sched, kWorld);
    out.emplace_back("umpi.bare_run_s", bare);
    out.emplace_back("split.call_us", median(calls) * 1e6);
    return out;
  }
 private:
  [[nodiscard]] EngineConfig config(Protocol protocol) const {
    EngineConfig cfg;
    cfg.runtime.world_size = kWorld;
    cfg.runtime.ranks_per_node = kRanksPerNode;
    // One OS thread per rank is not viable at 4096 ranks on a few cores, so
    // fibers. One worker, not one per core: with a worker per core the wall
    // time follows cross-core wakeup latency, which moves with the host's
    // load (README.md, "cc_world").
    cfg.runtime.sched.backend = manatee::sched::Backend::kFibers;
    cfg.runtime.sched.workers = 1;
    cfg.protocol = protocol;
    return cfg;
  }

  [[nodiscard]] manatee::split::WrappedApp app(RankTimes& times, std::vector<int>& completed,
                                               std::atomic<int>& wrong, Tracer* tracer,
                                               Tracer::Ref parent) const {
    return [this, &times, &completed, &wrong, tracer, parent](Api& api) {
      const int r = api.rank();
      AppScope scope(times, r, tracer, parent);
      int done = 0;
      for (int it = 0; it < kIterations; ++it) {
        const auto i = static_cast<std::size_t>(it);
        {
          // Seeded per-rank compute of 10–11 µs (virtual) per iteration.
          SpanScope s(tracer, r + 1, "compute", scope.ref());
          api.compute(10'000 + static_cast<SimTime>(
                                   mix(options_.seed, 4, static_cast<std::uint64_t>(r) * kIterations + i) %
                                   1'000));
        }
        const std::int64_t mine = base_[i] + r;
        std::int64_t sum = 0;
        {
          SpanScope s(tracer, r + 1, "allreduce", scope.ref());
          api.allreduce<std::int64_t>(manatee::split::kWorldComm, std::span(&mine, 1),
                                      std::span(&sum, 1), manatee::umpi::ReduceOp::kSum);
        }
        if (sum != expected_[i]) wrong.fetch_add(1, std::memory_order_relaxed);
        ++done;
        {
          SpanScope s(tracer, r + 1, "barrier", scope.ref());
          api.barrier(manatee::split::kWorldComm);
        }
        ++done;
      }
      completed[static_cast<std::size_t>(r)] = done;
    };
  }

  /// Every rank's allreduce results equal the closed-form sum and every
  /// rank completed the planned number of collectives.
  [[nodiscard]] static std::string check(const std::vector<int>& completed, int wrong) {
    if (wrong != 0) return std::to_string(wrong) + " allreduce results differ from the closed-form sum";
    for (std::size_t r = 0; r < completed.size(); ++r) {
      if (completed[r] != 2 * kIterations) {
        return "rank " + std::to_string(r) + " completed " +
               std::to_string(completed[r]) + " of " +
               std::to_string(2 * kIterations) + " collectives";
      }
    }
    return {};
  }

  Options options_;
  std::vector<std::int64_t> base_;
  std::vector<std::int64_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "vasp_cc") return std::make_unique<VaspCc>(options);
  if (options.workload == "vasp_chain") return std::make_unique<VaspChain>(options);
  if (options.workload == "cc_world") return std::make_unique<CcWorld>(options);
  return nullptr;
}

}  // namespace perfbench
