// manatee_perfbench — runs one named workload for a fixed time, checks the
// program's outputs and prints one JSON result line.
//
//   manatee_perfbench --workload vasp_cc|vasp_chain|cc_world --seed N
//                     --seconds S --trace 0|1 [--spans PATH]
//                     [--perturb fingerprint|sum|hop]
//
// --trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
// vt_makespan_s); --trace 1 records spans, prints the per-layer metrics and
// writes the spans to PATH. --perturb corrupts one correctness check on
// purpose (the benchmark's own tests use it). Exit code 2 on bad usage.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "simnet/mailbox.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Blocking waits give up after this much wall time, so a drain deadlock
/// ends as a failed operation instead of a hang (the longest legitimate
/// wait, cc_world's finalize, is about 1.5 s).
constexpr long kWatchdogMs = 20'000;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"vt_makespan_s", "sim_s"},
};

constexpr MetricDef kPerLayer[] = {
    {"split.wrapper_calls", "count"},
    {"split.app_s", "s"},
    {"split.call_us", "us"},
    {"core.cc_overhead_s", "s"},
    {"core.vt_cc_overhead_ms", "sim_ms"},
    {"core.finalize_s", "s"},
    {"core.protocol_msgs", "count"},
    {"core.cc_updates", "count"},
    {"umpi.coll_msgs", "count"},
    {"umpi.coll_mb", "MiB"},
    {"umpi.bare_run_s", "s"},
    {"simnet.p2p_msgs", "count"},
    {"simnet.p2p_mb", "MiB"},
    {"simnet.ctrl_msgs", "count"},
    {"sched.dispatches", "count"},
    {"sched.dispatches_per_call", "1/call"},
    {"sched.peak_stack_mb", "MiB"},
    {"sched.run_tasks_s", "s"},
    {"ckpt.cycles", "count"},
    {"ckpt.image_mb_per_gen", "MiB"},
    {"ckpt.written_mb_per_gen", "MiB"},
    {"ckpt.vt_stall_ms", "sim_ms"},
    {"ckpt.vt_restart_ms", "sim_ms"},
    {"ckpt.segment_s", "s"},
    {"ckpt.restore_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "manatee_perfbench: %s\nusage: manatee_perfbench --workload "
               "vasp_cc|vasp_chain|cc_world --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--perturb fingerprint|sum|hop]\n",
               why);
  std::exit(2);
}

/// Drop every MANATEE_* variable (scheduler, collective preset, switch
/// drain, stack budget, log level, ...): the caller's environment must not
/// change the numbers.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("MANATEE_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const auto& name : names) {
    std::fprintf(stderr, "perfbench: ignoring %s from the environment\n", name.c_str());
    ::unsetenv(name.c_str());
  }
}

Options parse(int argc, char** argv, std::string* spans_path) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), o.seed);
      if (ec != std::errc() || p != value.data() + value.size()) usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600) {
        usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      *spans_path = value;
    } else if (flag == "--perturb") {
      if (value == "fingerprint") {
        o.perturb = Perturb::kFingerprint;
      } else if (value == "sum") {
        o.perturb = Perturb::kSum;
      } else if (value == "hop") {
        o.perturb = Perturb::kHop;
      } else {
        usage("unknown --perturb");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

/// VmHWM of this process, MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

std::string private_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string pattern = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                        "/manatee_perfbench_XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    std::perror("perfbench: mkdtemp");
    std::exit(1);
  }
  return pattern;
}

std::string number(double v) {
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

void print_result(int attempted, int failed, const MetricDef* defs, std::size_t n,
                  const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name + "\": {\"value\": " +
           number(it != values.end() ? it->second : 0.0) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  scrub_environment();
  std::string spans_path;
  Options options = parse(argc, argv, &spans_path);
  options.private_dir = private_dir();
  auto workload = make_workload(options);
  if (workload == nullptr) {
    std::filesystem::remove(options.private_dir);
    usage(("unknown workload " + options.workload).c_str());
  }
  manatee::simnet::MessageStore::set_wait_timeout_ms(kWatchdogMs);

  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>(process_start, workload->ranks());

  // Whole operations until the measuring time is used up (at least one).
  std::vector<OpResult> ops;
  const auto loop_start = Clock::now();
  do {
    ops.push_back(workload->run_op(static_cast<int>(ops.size()), tracer.get()));
  } while (seconds_between(loop_start, Clock::now()) < options.seconds);
  const double peak_rss = peak_rss_mib();

  try {
    workload->check_against_reference(ops);
  } catch (const std::exception& e) {
    for (auto& op : ops) {
      if (op.error.empty()) op.error = std::string("native reference failed: ") + e.what();
    }
  }
  int attempted = static_cast<int>(ops.size());
  int failed = 0;
  LayerSample extras;
  if (options.trace) {
    try {
      extras = workload->traced_extras(ops, *tracer, &attempted, &failed);
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::fprintf(stderr, "perfbench: traced extra run failed: %s\n", e.what());
    }
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].error.empty()) continue;
    ++failed;
    std::fprintf(stderr, "perfbench: %s operation %zu failed: %s\n",
                 options.workload.c_str(), i, ops[i].error.c_str());
  }

  std::error_code ec;
  if (failed == 0) {
    std::filesystem::remove_all(options.private_dir, ec);
  } else {
    std::fprintf(stderr, "perfbench: images kept in %s\n", options.private_dir.c_str());
  }

  std::map<std::string, double> values;
  std::vector<double> walls, vts;
  for (const auto& op : ops) {
    walls.push_back(seconds_between(op.start, op.end));
    vts.push_back(op.vt_makespan_s);
  }
  if (!options.trace) {
    values["wall_s"] = median(walls);
    values["setup_s"] = seconds_between(process_start, ops.front().all_entered);
    values["peak_rss_mb"] = peak_rss;
    values["vt_makespan_s"] = median(vts);
    print_result(attempted, failed, kEndToEnd, std::size(kEndToEnd), values);
    return 0;
  }

  std::map<std::string, std::vector<double>> per_op;
  for (const auto& op : ops) {
    for (const auto& [name, v] : op.layers) per_op[name].push_back(v);
  }
  for (auto& [name, v] : per_op) values[name] = median(v);
  for (const auto& [name, v] : extras) values[name] = v;
  values["trace.wall_s"] = median(walls);
  values["trace.spans"] = static_cast<double>(tracer->span_count());
  if (!spans_path.empty()) tracer->write_chrome_json(spans_path);
  print_result(attempted, failed, kPerLayer, std::size(kPerLayer), values);
  return 0;
}
