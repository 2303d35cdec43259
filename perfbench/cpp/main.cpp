// The serving benchmark program (built by perfbench/CMakeLists.txt, run
// through perfbench/run.py).
//
//   perfbench_run prepare --fixtures DIR
//       trains the demo artifacts the workloads serve (once per build).
//
//   perfbench_run run --workload NAME --seed N --seconds S --trace 0|1
//                     --fixtures DIR --daemon PATH --work DIR
//                     --p50-bound X [--smoke] [--corrupt-expectation]
//                     [--git-sha SHA] [--git-dirty 0|1]
//                     [--source-digest HEX]
//       starts example_model_server as its own process, measures set-up,
//       drives the workload over loopback TCP for S seconds, checks every
//       answer against the in-process one, and prints the end-to-end
//       metrics (--trace 0) or the per-layer metrics of the traced
//       in-process replay (--trace 1). The last stdout line is the result
//       object {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/utsname.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/bitgemm.h"
#include "core/bitops.h"
#include "serve/tcp_transport.h"

namespace {

using namespace perfbench;
using namespace rrambnn;
namespace fs = std::filesystem;

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string fixtures;
  std::string daemon;
  std::string work;
  /// The latency_p50_us bound of BENCHMARK.json (required for run).
  double p50_bound = std::nan("");
  bool smoke = false;
  bool corrupt = false;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
};

Options ParseOptions(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: perfbench_run prepare|run ...");
  }
  Options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = std::stoi(value());
    else if (arg == "--fixtures") o.fixtures = value();
    else if (arg == "--daemon") o.daemon = value();
    else if (arg == "--work") o.work = value();
    else if (arg == "--p50-bound") o.p50_bound = std::stod(value());
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--corrupt-expectation") o.corrupt = true;
    else if (arg == "--git-sha") o.git_sha = value();
    else if (arg == "--git-dirty") o.git_dirty = value();
    else if (arg == "--source-digest") o.source_digest = value();
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.fixtures.empty()) throw std::invalid_argument("--fixtures is required");
  if (o.command == "run" &&
      (o.workload.empty() || o.daemon.empty() || o.work.empty() ||
       o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1) ||
       !(o.p50_bound > 0.0))) {
    throw std::invalid_argument(
        "run needs --workload, --daemon, --work, --seconds > 0, --trace 0|1, "
        "--p50-bound > 0");
  }
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double (all its digits).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string MetricsObject(const std::vector<NamedValue>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string IsaTier() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vpopcntdq")) return "avx512-vpopcntdq";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "scalar";
}

std::string Fingerprint(const Options& o,
                        const std::vector<std::string>& daemon_argv) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  utsname uts{};
  uname(&uts);
  std::string argv_json = "[";
  for (std::size_t i = 0; i < daemon_argv.size(); ++i) {
    argv_json += (i ? ", " : "") + JsonString(daemon_argv[i]);
  }
  argv_json += "]";
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(o.workload)
     << ", \"seed\": " << o.seed << ", \"seconds\": " << JsonNumber(o.seconds)
     << ", \"trace\": " << o.trace << ", \"nproc\": " << nproc
     << ", \"isa\": " << JsonString(IsaTier())
     << ", \"xnor_gemm_kernel\": " << JsonString(core::XnorGemmKernelName())
     << ", \"sign_pack_kernel\": " << JsonString(core::SignPackKernelName())
     << ", \"kernel_release\": " << JsonString(uts.release)
     << ", \"compiler\": " << JsonString(std::string("g++ ") + __VERSION__)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"git_sha\": " << JsonString(o.git_sha)
     << ", \"git_dirty\": " << JsonString(o.git_dirty)
     << ", \"source_digest\": " << JsonString(o.source_digest)
     << ", \"daemon_argv\": " << argv_json
     << ", \"daemon_omp_num_threads\": \"1\""
     << ", \"client_omp_num_threads\": " << JsonString(omp ? omp : "unset")
     << "}";
  return os.str();
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<NamedValue>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed()),
              correct ? MetricsObject(metrics).c_str() : "{}");
  std::fflush(stdout);
}

void PrintLines(const char* tag, const std::vector<NamedValue>& values) {
  for (const NamedValue& v : values) {
    std::printf("%-7s %-44s %14.3f %s\n", tag, v.name.c_str(), v.value,
                v.unit.c_str());
  }
}

const char* CheckStatus(const Check& c) {
  if (!c.claimed) return "info";
  return c.passed() ? "pass" : "FAIL";
}

void PrintChecks(const std::vector<Check>& checks) {
  for (const Check& c : checks) {
    std::printf("check   %-44s %14.3f >= %.2f %s%s\n", c.name.c_str(),
                c.value, c.min, CheckStatus(c), c.gated ? " (gated)" : "");
  }
}

std::string ChecksObject(const std::vector<Check>& checks) {
  std::string out = "{";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += (i ? ", " : "") + JsonString(checks[i].name) +
           ": {\"value\": " + JsonNumber(checks[i].value) +
           ", \"min\": " + JsonNumber(checks[i].min) +
           ", \"status\": " + JsonString(CheckStatus(checks[i])) + "}";
  }
  return out + "}";
}

/// Starts the daemon, then waits until every model answered one predict;
/// returns the seconds from exec to that point.
double StartDaemon(const Options& o, const std::vector<std::string>& args,
                   const std::string& port_file, const RequestSet& requests,
                   std::unique_ptr<Daemon>& daemon, std::uint16_t& port,
                   Tally& checks) {
  fs::remove(port_file);
  daemon = std::make_unique<Daemon>(o.daemon, args,
                                    (fs::path(o.work) / "daemon.log").string());
  port = daemon->WaitForPort(port_file, 30.0);
  serve::TcpClient client("127.0.0.1", port);
  for (std::size_t m = 0; m < requests.num_models(); ++m) {
    serve::Request request = requests.Get(m);
    request.id = m + 1;
    checks.Record(client.Roundtrip(request), requests.Expected(m), 0.0);
  }
  return Seconds(Clock::now() - daemon->started());
}

int Run(const Options& o) {
  const Workload& w = FindWorkload(o.workload);
  fs::create_directories(o.work);
  fs::create_directories(fs::path(o.work) / "results");

  // Inputs and in-process answers before any timing.
  RequestSet requests(w, o.fixtures, o.seed);
  if (o.corrupt) requests.CorruptOneExpectation();

  const std::string port_file = (fs::path(o.work) / "daemon.port").string();
  std::vector<std::string> args;
  for (std::size_t m = 0; m < requests.num_models(); ++m) {
    args.push_back("--model");
    args.push_back(requests.model_name(m) + "=" + requests.artifact(m));
  }
  args.insert(args.end(), {"--backend", w.backend});
  args.insert(args.end(), w.daemon_flags.begin(), w.daemon_flags.end());
  args.insert(args.end(), {"--listen", "0", "--port-file", port_file});
  std::vector<std::string> daemon_argv = {o.daemon};
  daemon_argv.insert(daemon_argv.end(), args.begin(), args.end());

  // -- Set-up: several cold starts, the last daemon stays up ---------------
  const int starts = o.smoke ? 1 : 9;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  Tally checks;
  for (int s = 0; s < starts; ++s) {
    if (daemon) daemon->Stop();
    setup_s.push_back(
        StartDaemon(o, args, port_file, requests, daemon, port, checks));
  }

  const double warmup_s = o.smoke ? 0.2 : 1.0;
  const LoadResult load =
      w.open_loop
          ? RunOpenLoop(port, w, requests, o.seed, warmup_s, o.seconds)
          : RunClosedLoop(port, w, requests, warmup_s, o.seconds);
  // The unloaded probe runs on the daemon the load has warmed, after a few
  // untimed roundtrips; the daemon's own predict latency over the probe
  // comes from its stats counters.
  Tally unloaded;
  double unloaded_server_us = 0.0;
  if (o.trace == 1) {
    (void)RunUnloaded(port, requests, 10);
    const PredictTotals before = ServerPredictTotals(port);
    unloaded = RunUnloaded(port, requests, w.unloaded_requests);
    const PredictTotals after = ServerPredictTotals(port);
    unloaded_server_us = (after.latency_us - before.latency_us) /
                         static_cast<double>(after.requests - before.requests);
  }
  const double rss_mb = daemon->PeakRssMb();
  const serve::Response stats = DaemonVerb(port, serve::RequestKind::kStats);
  const serve::Response health = DaemonVerb(port, serve::RequestKind::kHealth);
  const double server_errors =
      ScrapeCounter(port, "rrambnn_tcp_request_errors_total");
  const int daemon_exit = daemon->Stop();

  std::uint64_t mismatches = checks.mismatched + unloaded.mismatched +
                             load.tally.mismatched;
  ReplayResult replay;
  if (o.trace == 1) {
    replay = RunReplay(
        w, requests,
        (fs::path(o.work) / ("trace-" + w.name + ".jsonl")).string());
    mismatches += replay.mismatches;
  }
  const std::string fingerprint = Fingerprint(o, daemon_argv);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  if (checks.failed() + unloaded.failed() > 0) {
    std::printf("error: %llu set-up or probe request(s) failed\n",
                static_cast<unsigned long long>(checks.failed() +
                                                unloaded.failed()));
    PrintResult(false, load.tally, {});
    return 1;
  }
  if (mismatches > 0) {
    std::printf("MISMATCH: %llu served prediction(s) differ from the "
                "in-process answers; no numbers are reported\n",
                static_cast<unsigned long long>(mismatches));
    PrintResult(false, load.tally, {});
    return 1;
  }
  if (daemon_exit != 0) {
    std::printf("error: daemon exit status %d (see %s/daemon.log)\n",
                daemon_exit, o.work.c_str());
    PrintResult(false, load.tally, {});
    return 1;
  }

  const Tally& t = load.tally;
  const double attempted = static_cast<double>(t.attempted);
  // Latency quantiles are medians over slices of 1000 answers (so each
  // slice's p99 has 10 samples beyond it): this VM stalls for several ms at
  // random, and a stall should move one slice, not the run.
  constexpr std::size_t kSlice = 1000;
  const double p50 = SlicedQuantile(t, 0.50, kSlice);
  std::vector<NamedValue> e2e = {
      {"rows_per_s", static_cast<double>(t.rows_ok) / load.window_s, "rows/s"},
      {"latency_p50_us", p50, "us"},
      {"latency_p99_us", SlicedQuantile(t, 0.99, kSlice), "us"},
      {"answered_frac",
       attempted > 0 ? 1.0 - static_cast<double>(t.failed()) / attempted : 0.0,
       "fraction"},
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
  std::vector<NamedValue> info = {
      {"requests_timed", attempted, "count"},
      {"latency_slices",
       std::max(1.0, std::floor(static_cast<double>(t.latencies_us.size()) /
                                static_cast<double>(kSlice))),
       "count"},
      {"whole_run_p50_us", Percentile(t.latencies_us, 0.50), "us"},
      {"whole_run_p99_us", Percentile(t.latencies_us, 0.99), "us"},
      {"error_frac", attempted > 0 ? t.failed() / attempted : 0.0, "fraction"},
      {"shed", static_cast<double>(t.shed), "count"},
      {"deadline_exceeded", static_cast<double>(t.deadline_exceeded), "count"},
      {"timeouts", static_cast<double>(t.timeouts), "count"},
      {"broken_connections", static_cast<double>(t.broken), "count"},
      {"window_s", load.window_s, "s"},
      {"setup_starts", static_cast<double>(setup_s.size()), "count"},
  };
  bool valid = attempted > 0 && t.ok > 0;
  if (w.open_loop) {
    info.push_back({"send_lateness_p50_us", Percentile(load.lateness_us, 0.5),
                    "us"});
    info.push_back({"send_lateness_p99_us",
                    Percentile(load.lateness_us, 0.99), "us"});
    info.push_back({"send_lateness_max_us", Percentile(load.lateness_us, 1.0),
                    "us"});
    // Latency runs from the scheduled send time, so a late generator adds
    // its lateness to the requests it delays. Timed from the actual send
    // instead, the median shows how far lateness moved latency_p50_us; past
    // that metric's bound the run measures the generator, not the daemon.
    const double shift =
        Percentile(t.latencies_us, 0.5) - Percentile(load.from_send_us, 0.5);
    info.push_back({"send_lateness_p50_shift_us", shift, "us"});
    // A smoke run's one short window sits right after start-up, where the
    // daemon's first health sweeps can starve the generator; it checks names
    // and answers, not timing.
    if (shift > o.p50_bound * p50 && !o.smoke) {
      std::printf("INVALID: generator lateness moved latency_p50_us by "
                  "%.1f us, over %.2f x %.1f us\n",
                  shift, o.p50_bound, p50);
      valid = false;
    }
  }
  if (!o.smoke && t.latencies_us.size() < 1000) {
    std::printf("INVALID: %zu timed answers; p99 needs at least 1000\n",
                t.latencies_us.size());
    valid = false;
  }
  PrintLines("e2e", e2e);
  PrintLines("info", info);

  std::vector<NamedValue> layer;
  if (o.trace == 1) {
    double requests_total = 0, shed = 0, deadline = 0, latency_total = 0;
    for (const serve::ModelStatsWire& m : stats.models) {
      requests_total += static_cast<double>(m.requests);
      shed += static_cast<double>(m.shed);
      deadline += static_cast<double>(m.deadline_exceeded);
      latency_total += m.total_latency_us;
    }
    double reprograms = 0, sweeps = 0;
    for (const serve::ModelHealthWire& h : health.health) {
      reprograms += static_cast<double>(h.reprograms);
      sweeps += static_cast<double>(h.sweeps);
    }
    const double unloaded_p50 = Percentile(unloaded.latencies_us, 0.5);
    // Roundtrip time outside the daemon's predict and its health hooks.
    const double transport_us = Mean(unloaded.latencies_us) -
                                unloaded_server_us - replay.hooks_mean_us;
    layer = replay.metrics;
    layer.push_back({"health.reprograms", reprograms, "count"});
    layer.push_back({"health.sweeps", sweeps, "count"});
    layer.push_back({"serve.transport_us", transport_us, "us"});
    layer.push_back({"serve.wait_us", p50 - unloaded_p50, "us"});
    layer.push_back({"serve.requests", requests_total, "count"});
    layer.push_back({"serve.shed", shed, "count"});
    layer.push_back({"serve.deadline_exceeded", deadline, "count"});
    layer.push_back({"serve.errors", server_errors, "count"});
    layer.push_back({"serve.server_mean_us",
                     requests_total > 0 ? latency_total / requests_total : 0.0,
                     "us"});
    replay.checks.push_back(MakeCheck(
        w, "share.transport_wait_over_predict",
        (transport_us + p50 - unloaded_p50) / replay.predict_mean_us, 1.0));
    PrintLines("layer", layer);
    PrintLines("detail", replay.detail);
    PrintChecks(replay.checks);
    for (const Check& c : replay.checks) {
      if (c.gated && !c.passed()) {
        std::printf("INVALID: %s %.3f is below %.2f\n", c.name.c_str(),
                    c.value, c.min);
        valid = false;
      }
    }
  }

  std::ofstream record(fs::path(o.work) / "results" /
                       (w.name + "-seed" + std::to_string(o.seed) + "-trace" +
                        std::to_string(o.trace) + ".json"));
  record << "{\"fingerprint\": " << fingerprint
         << ", \"end_to_end\": " << MetricsObject(e2e)
         << ", \"info\": " << MetricsObject(info)
         << ", \"per_layer\": " << MetricsObject(layer)
         << ", \"detail\": " << MetricsObject(replay.detail)
         << ", \"checks\": " << ChecksObject(replay.checks) << "}\n";

  if (!valid) {
    PrintResult(false, t, {});
    return 1;
  }
  PrintResult(true, t, o.trace == 1 ? layer : e2e);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Options o = ParseOptions(argc, argv);
    if (o.command == "prepare") {
      PrepareFixtures(o.fixtures);
      return 0;
    }
    if (o.command == "run") return Run(o);
    throw std::invalid_argument("unknown command " + o.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
