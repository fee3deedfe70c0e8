// gpml_server: the network query server (docs/server.md).
//
//   gpml_server [--port N] [--bind ADDR] [--workers N] [--queue N]
//               [--idle-timeout-ms N] [--slow-query-ms N]
//               [--load NAME=KIND ...]
//
// Serves the NDJSON query protocol and the HTTP GET /metrics and
// /slow_queries endpoints on one port. --load materializes generator
// graphs at startup (e.g. --load bank=fraud --load demo=paper) with the
// load_graph op's default sizes; clients can add more at runtime with that
// op. --workers N is the number of queries that run at once (each on its
// connection's thread), --queue N how many more may wait for one of those
// run slots before a query is refused with SERVER_SATURATED. SIGINT/SIGTERM
// trigger a graceful drain: in-flight queries finish and get their
// responses.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/server.h"

namespace {

// Signal handlers can only poke a flag; the main thread does the draining.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--workers N] [--queue N]\n"
      "          [--idle-timeout-ms N] [--slow-query-ms N]\n"
      "          [--load NAME=KIND ...]\n"
      "--workers: queries that run at once (default 4); --queue: queries\n"
      "that may wait for a run slot (default 64; 0 = refuse when none is "
      "free)\n"
      "graph kinds: paper chain cycle complete diamond grid fraud random\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  gpml::server::ServerOptions options;
  options.port = 7687;

  struct Load {
    std::string name;
    const gpml::server::GraphKind* kind;
  };
  std::vector<Load> loads;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = std::atoi(next());
    } else if (arg == "--bind") {
      options.bind_address = next();
    } else if (arg == "--workers") {
      options.worker_threads = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--queue") {
      options.max_queue = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = std::atof(next());
    } else if (arg == "--slow-query-ms") {
      options.engine.slow_query_ms = std::atof(next());
    } else if (arg == "--load") {
      std::string spec = next();
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--load needs NAME=KIND, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      gpml::Result<const gpml::server::GraphKind*> kind =
          gpml::server::FindGraphKind(spec.substr(eq + 1));
      if (!kind.ok()) {
        std::fprintf(stderr, "--load %s: %s\n", spec.c_str(),
                     kind.status().message().c_str());
        return 2;
      }
      loads.push_back(Load{spec.substr(0, eq), *kind});
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  gpml::server::Server server(options);
  for (const Load& load : loads) {
    gpml::Result<gpml::PropertyGraph> graph =
        load.kind->build(gpml::server::JsonValue());
    gpml::Status added = graph.ok()
                             ? server.AddGraph(load.name, std::move(*graph))
                             : graph.status();
    if (!added.ok()) {
      std::fprintf(stderr, "--load %s=%s: %s\n", load.name.c_str(),
                   load.kind->name, added.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded graph '%s' (%s)\n", load.name.c_str(),
                 load.kind->name);
  }

  gpml::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.message().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "gpml_server listening on %s:%d (%zu queries at once, %zu may "
               "wait)\n",
               options.bind_address.c_str(), server.port(),
               std::max<size_t>(options.worker_threads, 1), options.max_queue);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  sigset_t empty;
  sigemptyset(&empty);
  while (g_stop == 0) sigsuspend(&empty);

  std::fprintf(stderr, "draining in-flight queries...\n");
  server.Stop();
  std::fprintf(stderr, "bye\n");
  return 0;
}
