// The multi-model serving daemon as a process: registers named `.rbnn`
// artifacts, then serves length-prefixed requests (docs/protocol.md) over
// one of two transports:
//
//   pipe mode (default): requests on stdin, responses on stdout, until
//   end-of-stream — a serving session is a shell pipeline:
//
//     { ./model_client request predict ecg --task ecg
//       ./model_client request predict eeg --task eeg
//       ./model_client request stats; } |
//     ./model_server --model ecg=ecg.rbnn --model eeg=eeg.rbnn |
//     ./model_client decode --task ecg=ecg --task eeg=eeg
//
//   TCP mode (--listen): a concurrent epoll/poll event loop serving many
//   connections at once (src/serve/tcp_transport.h), drained gracefully on
//   SIGTERM/SIGINT:
//
//     ./model_server --model ecg=ecg.rbnn --listen 127.0.0.1:7070 &
//     ./model_client --connect 127.0.0.1:7070 predict ecg --task ecg
//
// Logs go to stderr in both modes, keeping stdout a pure response stream.
// One process serves any number of models concurrently-resident up to
// --capacity (LRU eviction beyond it), hot-reloads a model when its
// artifact file changes on disk, and answers stats/list/reload verbs —
// the "fleet of pre-programmed monitors" deployment of the paper as a
// daemon. Served predictions are bit-identical to Engine::FromArtifact +
// Predict in-process (CI diffs the digests against artifact_tool eval on
// both transports).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/model_server.h"
#include "serve/tcp_transport.h"

using namespace rrambnn;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: model_server --model NAME=PATH.rbnn [--model NAME=PATH ...]\n"
      "                    [--backend NAME] [--capacity N]\n"
      "                    [--no-hot-reload] [--resident-mapped] [--no-mmap]\n"
      "                    [--lazy-verify]\n"
      "                    [--health-check-every N] [--drift-ber X]\n"
      "                    [--drift-every N] [--drift-seed N]\n"
      "                    [--default-deadline-ms N] [--max-inflight N]\n"
      "                    [--max-inflight-global N]\n"
      "                    [--listen [HOST:]PORT [--loops N] [--workers N]\n"
      "                     [--max-connections N] [--idle-timeout-ms N]\n"
      "                     [--max-queued-frames N]\n"
      "                     [--poll] [--port-file PATH]]\n"
      "default: reads framed requests on stdin, writes responses on stdout\n"
      "  --backend NAME     serve every model on this backend instead of the\n"
      "                     one stored in its artifact\n"
      "  --capacity N       max resident models (LRU eviction; default 8)\n"
      "  --no-hot-reload    do not watch artifact mtimes\n"
      "  --resident-mapped  mmap-ed models never count against --capacity\n"
      "                     and are never evicted (thousands-resident fleet)\n"
      "  --no-mmap          copy v2 artifacts instead of mapping them\n"
      "  --lazy-verify      defer per-chunk CRC checks to first access\n"
      "                     (fast cold start over a large fleet)\n"
      "  --health-check-every N  run a fleet-health sweep (BER estimate,\n"
      "                     classify, heal, verify) after every Nth predict\n"
      "                     request per model (0: only on the health verb)\n"
      "  --drift-ber X      simulated aging: flip a fraction X of each chip's\n"
      "                     stored bits per drift interval\n"
      "  --drift-every N    inject drift after every Nth predict request per\n"
      "                     model (0: no drift simulation)\n"
      "  --drift-seed N     seed of the simulated drift draws\n"
      "  --default-deadline-ms N  apply this deadline (ms from arrival) to\n"
      "                     predicts that carry none; expired requests are\n"
      "                     answered deadline-exceeded without predicting\n"
      "  --max-inflight N   shed predicts beyond N in flight on one model\n"
      "                     with a retryable overloaded error (0: unlimited)\n"
      "  --max-inflight-global N  same cap across every model\n"
      "  --listen [H:]PORT  serve over TCP instead of stdio (port 0 picks an\n"
      "                     ephemeral port; SIGTERM drains gracefully; the\n"
      "                     same port answers HTTP GET /metrics with\n"
      "                     Prometheus text exposition)\n"
      "  --loops N          TCP event-loop threads, each with its own\n"
      "                     SO_REUSEPORT listener and connection table\n"
      "                     (default 1)\n"
      "  --workers N        TCP request worker threads per loop (default 4)\n"
      "  --max-connections N  concurrent TCP connection cap (default 256)\n"
      "  --idle-timeout-ms N  close TCP connections idle this long\n"
      "  --max-queued-frames N  per-loop queue-depth cap: predict frames\n"
      "                     arriving while N are already waiting for a worker\n"
      "                     are shed with a retryable overloaded error\n"
      "  --poll             use the portable poll() event backend\n"
      "  --port-file PATH   write the bound TCP port to PATH (for scripts\n"
      "                     that listen on an ephemeral port)\n");
  return 2;
}

std::atomic<serve::TcpServer*> g_tcp_server{nullptr};

void HandleStopSignal(int) {
  // Lock-free atomic load + RequestStop (an atomic store and one pipe
  // write) — all async-signal-safe.
  if (serve::TcpServer* server =
          g_tcp_server.load(std::memory_order_relaxed)) {
    server->RequestStop();
  }
}

/// "HOST:PORT" or bare "PORT" (host defaults to 127.0.0.1).
bool ParseListenSpec(const std::string& spec, serve::TcpServerConfig* config) {
  const std::size_t colon = spec.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const long port = std::atol(port_text.c_str());
  if (port < 0 || port > 65535) return false;
  config->port = static_cast<std::uint16_t>(port);
  if (colon != std::string::npos && colon > 0) {
    config->host = spec.substr(0, colon);
  }
  return true;
}

void PrintExitSummary(const serve::ModelServer& server) {
  std::fprintf(stderr,
               "model_server: %llu request(s) ok, %llu failed (of which "
               "%llu shed, %llu deadline-exceeded)\n",
               static_cast<unsigned long long>(server.requests_ok()),
               static_cast<unsigned long long>(server.requests_failed()),
               static_cast<unsigned long long>(server.shed_total()),
               static_cast<unsigned long long>(
                   server.deadline_exceeded_total()));
  for (const auto& info : server.registry().List()) {
    const serve::ModelStats& s = info.stats;
    std::fprintf(stderr,
                 "model_server:   %-12s %s  requests=%llu rows=%llu "
                 "mean=%.0fus max=%.0fus rows/s=%.0f\n",
                 info.name.c_str(), info.resident ? "resident" : "evicted ",
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.rows), s.MeanLatencyUs(),
                 s.max_latency_us, s.RowsPerSec());
  }
}

}  // namespace

int main(int argc, char** argv) {
  serve::RegistryConfig config;
  serve::HealthServingConfig health_config;
  serve::ServingLimits limits;
  serve::TcpServerConfig tcp_config;
  bool listen = false;
  std::string port_file;
  std::vector<std::pair<std::string, std::string>> models;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--model" && has_value) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "bad --model spec '%s' (want NAME=PATH)\n",
                     spec.c_str());
        return Usage();
      }
      models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--backend" && has_value) {
      config.backend_override = argv[++i];
    } else if (arg == "--capacity" && has_value) {
      config.capacity = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--no-hot-reload") {
      config.hot_reload = false;
    } else if (arg == "--resident-mapped") {
      config.resident_mapped = true;
    } else if (arg == "--no-mmap") {
      config.load.allow_mmap = false;
    } else if (arg == "--lazy-verify") {
      config.load.verify = false;
    } else if (arg == "--health-check-every" && has_value) {
      health_config.check_every_requests =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--drift-ber" && has_value) {
      health_config.drift_ber = std::atof(argv[++i]);
    } else if (arg == "--drift-every" && has_value) {
      health_config.drift_every_requests =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--drift-seed" && has_value) {
      health_config.drift_seed =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--default-deadline-ms" && has_value) {
      limits.default_deadline_ms =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-inflight" && has_value) {
      limits.max_inflight_per_model =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-inflight-global" && has_value) {
      limits.max_inflight_global =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-queued-frames" && has_value) {
      tcp_config.max_queued_frames =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--listen" && has_value) {
      if (!ParseListenSpec(argv[++i], &tcp_config)) {
        std::fprintf(stderr, "bad --listen spec '%s' (want [HOST:]PORT)\n",
                     argv[i]);
        return Usage();
      }
      listen = true;
    } else if (arg == "--loops" && has_value) {
      tcp_config.event_loops = static_cast<std::size_t>(
          std::atoll(argv[++i]));
    } else if (arg == "--workers" && has_value) {
      tcp_config.worker_threads = static_cast<std::size_t>(
          std::atoll(argv[++i]));
    } else if (arg == "--max-connections" && has_value) {
      tcp_config.max_connections = static_cast<std::size_t>(
          std::atoll(argv[++i]));
    } else if (arg == "--idle-timeout-ms" && has_value) {
      tcp_config.idle_timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--poll") {
      tcp_config.force_poll = true;
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (models.empty()) {
    std::fprintf(stderr, "model_server: no --model registered\n");
    return Usage();
  }
  try {
    serve::ModelServer server(config, health_config, limits);
    for (const auto& [name, path] : models) {
      server.registry().Register(name, path);
      std::fprintf(stderr, "model_server: registered %s = %s\n", name.c_str(),
                   path.c_str());
    }
    if (health_config.check_every_requests > 0 ||
        health_config.drift_every_requests > 0) {
      std::fprintf(stderr,
                   "model_server: health sweeps every %llu request(s), drift "
                   "ber=%g every %llu request(s) seed=%llu\n",
                   static_cast<unsigned long long>(
                       health_config.check_every_requests),
                   health_config.drift_ber,
                   static_cast<unsigned long long>(
                       health_config.drift_every_requests),
                   static_cast<unsigned long long>(health_config.drift_seed));
    }
    std::fprintf(stderr,
                 "model_server: serving %zu model(s), capacity %zu%s%s\n",
                 models.size(), config.capacity,
                 config.hot_reload ? ", hot reload" : "",
                 config.backend_override.empty()
                     ? ""
                     : (", backend " + config.backend_override).c_str());
    if (limits.default_deadline_ms > 0 || limits.max_inflight_per_model > 0 ||
        limits.max_inflight_global > 0 || tcp_config.max_queued_frames > 0) {
      std::fprintf(
          stderr,
          "model_server: limits: deadline=%llums inflight/model=%zu "
          "inflight=%zu queued-frames/loop=%zu (0 = unlimited)\n",
          static_cast<unsigned long long>(limits.default_deadline_ms),
          limits.max_inflight_per_model, limits.max_inflight_global,
          tcp_config.max_queued_frames);
    }

    if (listen) {
      serve::TcpServer tcp(server, tcp_config);
      const std::uint16_t port = tcp.Start();
      std::fprintf(stderr,
                   "model_server: metrics at http://%s:%u/metrics (same "
                   "port as the framed protocol)\n",
                   tcp_config.host.c_str(), static_cast<unsigned>(port));
      if (!port_file.empty()) {
        std::FILE* f = std::fopen(port_file.c_str(), "w");
        if (!f) {
          std::fprintf(stderr, "model_server: cannot write %s\n",
                       port_file.c_str());
          return 1;
        }
        std::fprintf(f, "%u\n", static_cast<unsigned>(port));
        std::fclose(f);
      }
      g_tcp_server = &tcp;
      std::signal(SIGTERM, HandleStopSignal);
      std::signal(SIGINT, HandleStopSignal);
      try {
        tcp.Run();  // until a stop signal completes the graceful drain
      } catch (...) {
        // Detach the handlers while `tcp` is still alive: a signal arriving
        // after the unwind must not RequestStop() a destroyed server.
        g_tcp_server = nullptr;
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        throw;
      }
      g_tcp_server = nullptr;
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGINT, SIG_DFL);
      PrintExitSummary(server);
      return 0;
    }

    const std::uint64_t served = server.ServeStream(std::cin, std::cout);
    std::fprintf(stderr, "model_server: end of stream after %llu request(s)\n",
                 static_cast<unsigned long long>(served));
    PrintExitSummary(server);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "model_server: %s\n", e.what());
    return 1;
  }
  return 0;
}
