// A standalone TriggerMan server (Figure 1's server process): hosts
// MiniDB plus a TriggerManager with driver threads, and exposes them over
// the wire protocol. Connect with `console --connect host:port` or the
// RemoteClient/RemoteDataSource library.
//
//   server_main [--port N] [--drivers N] [--queue-depth N] [--memory]
//
// --memory switches update staging from the durable write-ahead log (an
// ack is a durability receipt; Open() replays what a crash left
// unprocessed) to main-memory delivery (faster, no recovery safety).
// Runs until stdin closes or a "quit" line arrives.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/trigger_manager.h"
#include "db/database.h"
#include "ipc/server.h"
#include "ipc/socket_transport.h"

using namespace tman;

int main(int argc, char** argv) {
  uint16_t port = 7447;
  uint32_t drivers = 2;
  uint32_t queue_depth = 4096;
  bool durable = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--drivers") == 0 && i + 1 < argc) {
      drivers = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      queue_depth = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--memory") == 0) {
      durable = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--drivers N] [--queue-depth N] "
                   "[--memory]\n",
                   argv[0]);
      return 2;
    }
  }

  Database db;
  TriggerManagerOptions tmo;
  tmo.persistent_queue = durable;
  tmo.driver_config.num_cpus = drivers;
  TriggerManager tman(&db, tmo);
  if (auto s = tman.Open(); !s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  if (auto s = tman.Start(); !s.ok()) {
    std::fprintf(stderr, "start drivers: %s\n", s.ToString().c_str());
    return 1;
  }

  auto listener = TcpListener::Bind("0.0.0.0", port);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  uint16_t bound = (*listener)->port();
  TmanServerOptions options;
  options.max_queue_depth = queue_depth;
  TmanServer server(&tman, std::move(*listener), options);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("TriggerMan server listening on port %u (%s staging, %u "
              "drivers, queue depth %u). 'quit' to stop.\n",
              bound, durable ? "durable" : "memory", drivers,
              queue_depth);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      auto st = server.stats();
      auto ts = tman.stats();
      std::printf("  conns=%llu frames=%llu updates=%llu deduped=%llu "
                  "events=%llu credits=%llu proto_errors=%llu\n"
                  "  tokens=%llu firings=%llu\n",
                  static_cast<unsigned long long>(st.connections_accepted),
                  static_cast<unsigned long long>(st.frames_received),
                  static_cast<unsigned long long>(st.updates_applied),
                  static_cast<unsigned long long>(st.updates_deduped),
                  static_cast<unsigned long long>(st.events_pushed),
                  static_cast<unsigned long long>(st.credits_granted),
                  static_cast<unsigned long long>(st.protocol_errors),
                  static_cast<unsigned long long>(ts.tokens_processed),
                  static_cast<unsigned long long>(ts.rule_firings));
      std::fflush(stdout);
    }
  }

  server.Stop();
  tman.Stop();
  return 0;
}
