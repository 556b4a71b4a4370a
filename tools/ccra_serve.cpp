//===- tools/ccra_serve.cpp - Allocation service daemon -------------------===//
//
// The allocation engine as a long-lived daemon: binds a Unix-domain or
// loopback-TCP socket, speaks the framed protocol of service/WireProtocol.h,
// answers repeat requests from a content-addressed allocation cache,
// queues cold requests for workers that each allocate one request at a
// time, sheds load when the bounded queue overflows, and drains gracefully
// on SIGTERM/SIGINT (stops accepting, finishes in-flight work, flushes
// responses, exits 0).
//
//   ccra_serve [options]
//     --unix=PATH        listen on a Unix-domain socket at PATH
//     --port=N           listen on 127.0.0.1:N (default; 0 = ephemeral,
//                        the chosen port is printed on stdout)
//     --pool-threads=N   worker threads (default 0 = hardware)
//     --queue=N          request queue capacity (default 64)
//     --max-payload=N    per-frame payload limit in bytes (default 16 MiB)
//     --write-timeout=MS slow-client response write budget (default 5000)
//     --cache-bytes=N    budget of both caches in bytes (default 64 MiB):
//                        an eighth for parsed modules, the rest for
//                        responses; 0 disables both
//     --version          print build info and exit
//
// On successful startup prints exactly one line to stdout:
//   listening unix <path>     or     listening tcp <port>
// so wrappers (tools/check.sh, tests) can scrape the endpoint.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/BuildInfo.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

using namespace ccra;

namespace {

std::atomic<bool> StopRequested{false};

void onStopSignal(int) { StopRequested.store(true); }

void printUsage() {
  std::cerr << "usage: ccra_serve [--unix=PATH | --port=N] [--pool-threads=N]\n"
               "                  [--queue=N] [--max-payload=N]\n"
               "                  [--write-timeout=MS] [--cache-bytes=N]\n"
               "                  [--version]\n";
}

bool parseUnsigned(const std::string &Arg, std::size_t Prefix, unsigned &Out) {
  return std::sscanf(Arg.c_str() + Prefix, "%u", &Out) == 1;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Config;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    unsigned V = 0;
    if (Arg == "--version") {
      std::cout << buildInfoString() << '\n';
      return 0;
    } else if (Arg.rfind("--unix=", 0) == 0) {
      Config.UnixPath = Arg.substr(7);
    } else if (Arg.rfind("--port=", 0) == 0) {
      if (!parseUnsigned(Arg, 7, V)) {
        printUsage();
        return 2;
      }
      Config.TcpPort = static_cast<int>(V);
    } else if (Arg.rfind("--pool-threads=", 0) == 0) {
      if (!parseUnsigned(Arg, 15, Config.PoolThreads)) {
        printUsage();
        return 2;
      }
    } else if (Arg.rfind("--queue=", 0) == 0) {
      if (!parseUnsigned(Arg, 8, Config.QueueCapacity) ||
          Config.QueueCapacity == 0) {
        printUsage();
        return 2;
      }
    } else if (Arg.rfind("--max-payload=", 0) == 0) {
      if (!parseUnsigned(Arg, 14, V) || V == 0) {
        printUsage();
        return 2;
      }
      Config.MaxPayloadBytes = V;
    } else if (Arg.rfind("--write-timeout=", 0) == 0) {
      if (!parseUnsigned(Arg, 16, V)) {
        printUsage();
        return 2;
      }
      Config.WriteTimeoutMs = static_cast<int>(V);
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parseUnsigned(Arg, 14, V)) {
        printUsage();
        return 2;
      }
      Config.CacheBytes = V;
    } else {
      std::cerr << "unknown option " << Arg << '\n';
      printUsage();
      return 2;
    }
  }

  // Graceful drain on SIGTERM/SIGINT. The handler only flips a flag (all
  // the real work is async-signal-unsafe); the main thread polls it.
  // Installed before start() so a supervisor's fast restart signal in the
  // startup window still drains instead of taking the default action.
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "ccra_serve: " << Err << '\n';
    return 1;
  }
  if (!Config.UnixPath.empty())
    std::cout << "listening unix " << Config.UnixPath << std::endl;
  else
    std::cout << "listening tcp " << Server.boundPort() << std::endl;
  std::cerr << buildInfoString() << '\n';

  while (!StopRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::cerr << "ccra_serve: draining\n";
  Server.requestDrain();
  Server.wait();

  TelemetrySnapshot Final = Server.stats();
  std::cerr << "ccra_serve: drained after "
            << static_cast<unsigned long long>(
                   Final.count(telemetry::ServeRequests))
            << " requests ("
            << static_cast<unsigned long long>(
                   Final.count(telemetry::ServeResponsesOk))
            << " ok, "
            << static_cast<unsigned long long>(Final.count(telemetry::ServeShed))
            << " shed, "
            << static_cast<unsigned long long>(
                   Final.count(telemetry::CacheHits))
            << " cache hits)\n";
  return 0;
}
