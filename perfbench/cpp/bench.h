// Shared declarations of the serving benchmark program: the workload table,
// the seeded request set with its precomputed answers, failure accounting,
// and the pieces main.cpp composes (daemon control, load generation, the
// traced in-process replay). See perfbench/README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace perfbench {

namespace serve = rrambnn::serve;
using rrambnn::Tensor;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d);
double Micros(Clock::duration d);

/// One named traffic mix against the daemon.
struct Workload {
  std::string name;
  /// Demo task names; each is also the model name the daemon serves.
  std::vector<std::string> models;
  std::string backend;
  std::int64_t rows_per_request = 0;
  /// Open loop: a seeded exponential arrival schedule at `rate_per_s`.
  /// Closed loop: `connections` clients, each waiting for its answer.
  bool open_loop = false;
  double rate_per_s = 0.0;
  int connections = 4;
  /// Daemon flags beyond --model / --backend / --listen / --port-file.
  std::vector<std::string> daemon_flags;
  /// Health hooks the daemon runs (mirrored by the in-process replay).
  double drift_ber = 0.0;
  std::uint64_t drift_every = 0;
  std::uint64_t check_every = 0;
  /// Distinct seeded requests generated per model.
  std::int64_t pool_per_model = 0;
  /// Requests per in-process replay pass (a multiple of the hook interval
  /// times the model count, so every pass ends on the same hook state).
  std::int64_t replay_requests = 0;
  /// Serial requests of the unloaded one-connection roundtrip probe.
  std::int64_t unloaded_requests = 0;
  /// The traced-run check the workload's rationale rests on.
  std::string rationale_check;

  bool hooks() const { return drift_every > 0 || check_every > 0; }
};

const std::vector<Workload>& AllWorkloads();
/// Throws std::invalid_argument naming the known workloads.
const Workload& FindWorkload(const std::string& name);

/// Seeded inputs of one workload with the in-process answers to them.
/// Request k of any sequence goes to model k % models and pool entry
/// (k / models) % pool, so every traffic source indexes the same requests.
class RequestSet {
 public:
  RequestSet(const Workload& workload, const std::string& fixtures,
             std::uint64_t seed);

  std::size_t num_models() const { return models_.size(); }
  const std::string& model_name(std::size_t m) const {
    return models_[m].name;
  }
  std::string artifact(std::size_t m) const;

  std::size_t ModelOf(std::uint64_t k) const { return k % models_.size(); }
  /// Request k + cycle() is request k again.
  std::size_t cycle() const {
    return models_.size() * models_.front().requests.size();
  }
  const serve::Request& Get(std::uint64_t k) const;
  const std::vector<std::int64_t>& Expected(std::uint64_t k) const;

  /// Flips one expected label, so a correct server must fail the run (the
  /// benchmark's self-test of its own correctness gate).
  void CorruptOneExpectation();

 private:
  struct Pool {
    std::string name;
    std::vector<serve::Request> requests;
    std::vector<std::vector<std::int64_t>> expected;
    std::int64_t num_classes = 0;
  };
  std::size_t PoolIndex(std::uint64_t k) const;

  std::string fixtures_;
  std::vector<Pool> models_;
};

/// Trains and saves the demo artifacts a workload set needs (ecg, eeg,
/// image) into `dir`, skipping those already present.
void PrepareFixtures(const std::string& dir);
std::string FixturePath(const std::string& dir, const std::string& model);

/// Outcome accounting of a batch of served requests.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rows_ok = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t error_responses = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t broken = 0;
  /// Latencies of the correct answers, and when each request started (s
  /// from the start of its traffic), in the same order.
  std::vector<double> latencies_us;
  std::vector<double> started_s;

  std::uint64_t failed() const {
    return error_responses + shed + deadline_exceeded + timeouts + broken;
  }
  /// Classifies one response against its expected answer; a correct answer
  /// also records its latency.
  void Record(const serve::Response& response,
              const std::vector<std::int64_t>& expected, double latency_us,
              double started_s = 0.0);
  void Merge(const Tally& other);
};

/// Quantile q of the latencies, taken in consecutive slices of at least
/// `slice` requests by start time, then the median over slices: one slice
/// hit by a host stall moves it less than it moves the whole-run quantile.
double SlicedQuantile(const Tally& tally, double q, std::size_t slice);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// -- Daemon (daemon.cpp) ----------------------------------------------------

/// The daemon as a child process: started with OMP_NUM_THREADS=1, killed if
/// the benchmark dies, stopped (SIGTERM, then SIGKILL) and reaped on scope
/// exit.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the daemon to write its bound port to `port_file`.
  std::uint16_t WaitForPort(const std::string& port_file, double timeout_s);
  /// VmHWM of the live process, in MB.
  double PeakRssMb() const;
  /// Graceful stop; returns the exit status (or -1 when it had to be
  /// killed).
  int Stop();
  Clock::time_point started() const { return started_; }

 private:
  int pid_ = -1;
  Clock::time_point started_;
};

/// A stats/health verb or /metrics scrape of a running daemon.
serve::Response DaemonVerb(std::uint16_t port, serve::RequestKind kind);
/// Predict requests and their summed in-daemon predict latency, over every
/// model (the stats verb).
struct PredictTotals {
  double requests = 0.0;
  double latency_us = 0.0;
};
PredictTotals ServerPredictTotals(std::uint16_t port);
/// Sum of every sample of a Prometheus counter family on /metrics.
double ScrapeCounter(std::uint16_t port, const std::string& family);

// -- Load generation (loadgen.cpp) -------------------------------------------

struct LoadResult {
  Tally tally;
  double window_s = 0.0;
  /// Open loop only: how late the generator sent against its schedule, and
  /// the latencies of the answered requests timed from the actual send.
  std::vector<double> lateness_us;
  std::vector<double> from_send_us;
};

/// `connections` clients in closed loop: warm up, then measure for
/// `window_s`. Requests cycle through the request set.
LoadResult RunClosedLoop(std::uint16_t port, const Workload& workload,
                         const RequestSet& requests, double warmup_s,
                         double window_s);

/// Seeded exponential arrivals at the workload's rate over `connections`
/// connections, one sender and one receiver thread. Latency runs from each
/// request's scheduled send time.
LoadResult RunOpenLoop(std::uint16_t port, const Workload& workload,
                       const RequestSet& requests, std::uint64_t seed,
                       double warmup_s, double window_s);

/// Serial roundtrips on one connection with nothing else running.
Tally RunUnloaded(std::uint16_t port, const RequestSet& requests,
                  std::int64_t count);

// -- In-process replay (replay.cpp) ------------------------------------------

struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A share the traced run shows against its threshold. A claimed check is
/// printed pass or FAIL; the others are for information. A gated check that
/// fails makes the run invalid.
struct Check {
  std::string name;
  double value = 0.0;
  /// Passes when value >= min.
  double min = 0.0;
  bool claimed = false;
  bool gated = false;

  bool passed() const { return value >= min; }
};

/// trace.coverage is gated on every workload; any other check is claimed on
/// the workload whose rationale it is.
Check MakeCheck(const Workload& workload, const std::string& name,
                double value, double min);

struct ReplayResult {
  /// Per-layer metrics that every workload reports.
  std::vector<NamedValue> metrics;
  /// Per-model layer and per-stage detail (model-specific names).
  std::vector<NamedValue> detail;
  /// Shares the workload's rationale rests on, and trace coverage.
  std::vector<Check> checks;
  double predict_mean_us = 0.0;
  /// Drift plus check time per request.
  double hooks_mean_us = 0.0;
  std::uint64_t mismatches = 0;
};

/// Replays `workload.replay_requests` requests serially in process: an
/// untraced pass through serve::ModelServer::Handle paired with
/// Engine::Predict, then the same requests through the benchmark's own
/// reconstruction of the serving path, alternately with tracing off and on.
/// Writes the span log to `trace_path`. Throws when the passes disagree on
/// health reprograms (they are seeded, so any difference is a bug).
ReplayResult RunReplay(const Workload& workload, const RequestSet& requests,
                       const std::string& trace_path);

}  // namespace perfbench
