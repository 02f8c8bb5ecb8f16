// Multi-process TriggerMan cluster over real sockets: the same router +
// member-node protocol the deterministic cluster tests prove in-process,
// deployed as separate OS processes.
//
// Start three member nodes and a router front end:
//
//   cluster_main node --name n0 --port 7448 &
//   cluster_main node --name n1 --port 7449 &
//   cluster_main node --name n2 --port 7450 &
//   cluster_main router --port 7447 \
//       --node n0=127.0.0.1:7448 --node n1=127.0.0.1:7449 \
//       --node n2=127.0.0.1:7450
//
// Then point any wire-protocol client at the ROUTER as if it were a
// single TriggerMan server:
//
//   console --connect 127.0.0.1:7447
//   tman> cluster                  # ring ownership + per-node health
//   tman> create trigger watch from feed when feed.id >= 0 \
//             do raise event Seen(feed.id)   # broadcast to every member
//
// Update batches submitted to the router spread across the members by
// consistent hash (hot source "feed" additionally spreads by its id
// column). Kill a node process mid-stream: the router detects the death
// by heartbeat misses, reassigns its partitions, and replays unacked
// batches to the new owners; restart the process and it rejoins, reclaims
// partitions, and the shipped fences keep WAL-replayed tokens
// exactly-once. Every member must be started with the same --partitions /
// --vnodes (the partition function is cluster-wide configuration).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/router.h"
#include "core/trigger_manager.h"
#include "db/database.h"
#include "ipc/server.h"
#include "ipc/socket_transport.h"

using namespace tman;

namespace {

struct Peer {
  std::string name;
  std::string host;
  uint16_t port = 0;
};

bool ParsePeer(const std::string& arg, Peer* out) {
  size_t eq = arg.find('=');
  size_t colon = arg.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
    return false;
  }
  out->name = arg.substr(0, eq);
  out->host = arg.substr(eq + 1, colon - eq - 1);
  out->port = static_cast<uint16_t>(std::atoi(arg.c_str() + colon + 1));
  return !out->name.empty() && !out->host.empty() && out->port != 0;
}

ClusterConfig MakeConfig(uint32_t partitions, uint32_t vnodes,
                         DataSourceId feed) {
  ClusterConfig config;
  config.num_partitions = partitions;
  config.virtual_nodes = vnodes;
  config.ec_key_columns[feed] = 0;  // spread "feed" by its id column
  return config;
}

/// Wall-clock milliseconds for the node-side router-liveness lease.
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int RunNode(const std::string& name, uint16_t port, uint32_t partitions,
            uint32_t vnodes, uint32_t drivers) {
  Database db;
  TriggerManagerOptions tmo;
  tmo.durable_wal = true;  // a member ack is a durability receipt
  tmo.driver_config.num_cpus = drivers;
  TriggerManager tman(&db, tmo);
  if (auto s = tman.Open(); !s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  // The demo schema every member shares (catalogs are per-member; a
  // broadcast `create trigger` through the router reaches all of them).
  auto feed = tman.DefineStreamSource("feed", Schema({{"id", DataType::kInt}}));
  if (!feed.ok()) {
    std::fprintf(stderr, "define feed: %s\n",
                 feed.status().ToString().c_str());
    return 1;
  }

  // The node layer must exist before the drivers start: a rebooted member
  // recovers WAL tokens under a processing hold (Open() paused the task
  // queue) and only a partition-map install — handled by this ClusterNode
  // — may release it. Starting drivers first would be safe (they idle on
  // the paused queue) but keeping construction ahead of Start() makes the
  // ordering explicit.
  ClusterNodeOptions node_opts;
  node_opts.name = name;
  node_opts.config = MakeConfig(partitions, vnodes, *feed);
  // Self-hold when the router goes mute for a whole verdict window
  // (default membership: 100ms heartbeats, 3 misses).
  node_opts.router_lease_ms =
      MembershipOptions().heartbeat_interval_ms * MembershipOptions().miss_threshold;
  ClusterNode node(&tman, node_opts);
  node.NoteRouterTraffic(NowMs());  // lease epoch starts at boot

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

  // Hook mode: the stock TmanServer owns the sockets; partition-ownership
  // checks, map installs, router-channel loss and the liveness lease all
  // route through the ClusterNode.
  TmanServerOptions server_opts;
  server_opts.cluster_admit = [&node](const UpdateDescriptor& token) {
    return node.AdmitToken(token);
  };
  server_opts.cluster_map = [&node](const PartitionMapFrame& frame) {
    return node.HandlePartitionMap(frame);
  };
  server_opts.cluster_router_lost = [&node] { node.OnRouterChannelLost(); };
  server_opts.cluster_activity = [&node] { node.NoteRouterTraffic(NowMs()); };
  server_opts.cluster_tick = [&node] { node.TickRouterLease(NowMs()); };
  TmanServer server(&tman, std::move(*listener), server_opts);
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("cluster node %s listening on port %u (%u partitions, %u "
              "vnodes). 'quit' to stop.\n",
              name.c_str(), bound, partitions, vnodes);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      ClusterNodeStats st = node.stats();
      std::printf("  epoch=%llu accepted=%llu rejected=%llu applied=%llu "
                  "deduped=%llu fenced=%llu maps=%llu held=%d\n",
                  static_cast<unsigned long long>(node.epoch()),
                  static_cast<unsigned long long>(st.batches_accepted),
                  static_cast<unsigned long long>(st.batches_rejected),
                  static_cast<unsigned long long>(st.tokens_applied),
                  static_cast<unsigned long long>(st.tokens_deduped),
                  static_cast<unsigned long long>(st.tokens_fenced),
                  static_cast<unsigned long long>(st.maps_installed),
                  node.processing_held() ? 1 : 0);
      std::fflush(stdout);
    }
  }

  server.Stop(std::chrono::milliseconds(2000));  // drain, then final commit
  tman.Stop();
  return 0;
}

/// Best-effort file persistence for the router's durable state (epoch +
/// rejoin fences). Losing this file does not wedge the cluster — nodes
/// report their durable epoch on refused maps and the router adopts it —
/// but lost fences cost exactly-once for tokens re-routed at the moment
/// of a node death, so the demo keeps them on disk.
bool LoadRouterState(const std::string& path, RouterDurableState* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string blob;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) blob.append(buf, n);
  std::fclose(f);
  auto state = RouterDurableState::Decode(blob);
  if (!state.ok()) {
    std::fprintf(stderr, "router state %s corrupt (%s); starting fresh\n",
                 path.c_str(), state.status().ToString().c_str());
    return false;
  }
  *out = std::move(*state);
  return true;
}

void SaveRouterState(const std::string& path, const RouterDurableState& state) {
  std::string blob;
  state.Encode(&blob);
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "router state: cannot write %s\n", tmp.c_str());
    return;
  }
  size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  std::fflush(f);
  std::fclose(f);
  if (written != blob.size() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {  // atomic swap
    std::fprintf(stderr, "router state: persist to %s failed\n", path.c_str());
  }
}

int RunRouter(uint16_t port, const std::vector<Peer>& peers,
              uint32_t partitions, uint32_t vnodes,
              const std::string& state_path) {
  ClusterRouterOptions opts;
  // Data source ids are assigned per member in definition order; the demo
  // defines "feed" first everywhere, so its id is stable across members.
  opts.config = MakeConfig(partitions, vnodes, /*feed=*/1);
  if (LoadRouterState(state_path, &opts.initial_state)) {
    std::printf("router state: resuming at epoch %llu with %zu fences\n",
                static_cast<unsigned long long>(opts.initial_state.epoch),
                opts.initial_state.fences.size());
  }
  opts.persist_state = [state_path](const RouterDurableState& state) {
    SaveRouterState(state_path, state);
  };
  ClusterRouter router(opts);
  for (const Peer& peer : peers) {
    router.AddNode(peer.name,
                   [peer]() -> Result<std::unique_ptr<PollableTransport>> {
                     return TcpConnectPollable(peer.host, peer.port);
                   });
  }

  auto listener = TcpListener::Bind("0.0.0.0", port);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind: %s\n", listener.status().ToString().c_str());
    return 1;
  }
  uint16_t bound = (*listener)->port();
  Listener* raw_listener = listener->get();
  router.StartServing(
      [raw_listener]() -> Result<std::unique_ptr<PollableTransport>> {
        auto accepted = raw_listener->Accept();
        if (!accepted.ok()) return accepted.status();
        auto pollable = AsPollable(std::move(*accepted));
        if (pollable == nullptr) {
          return Status::Internal("accepted transport is not pollable");
        }
        return pollable;
      });

  std::printf("cluster router listening on port %u, %zu members. "
              "'stats' / 'quit'.\n",
              bound, peers.size());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "stats" || line == "cluster") {
      std::printf("%s\n", router.StatsString().c_str());
      std::fflush(stdout);
    }
  }

  (*listener)->Close();  // unblocks the accept loop
  router.StopServing();
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s node   --name NAME --port N [--partitions N] [--vnodes N]\n"
      "            [--drivers N]\n"
      "  %s router --port N --node NAME=HOST:PORT [--node ...]\n"
      "            [--partitions N] [--vnodes N] [--state PATH]\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  std::string mode = argv[1];
  std::string name = "node";
  uint16_t port = 0;
  uint32_t partitions = 32;
  uint32_t vnodes = 64;
  uint32_t drivers = 2;
  std::string state_path;
  std::vector<Peer> peers;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--vnodes") == 0 && i + 1 < argc) {
      vnodes = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--drivers") == 0 && i + 1 < argc) {
      drivers = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--state") == 0 && i + 1 < argc) {
      state_path = argv[++i];
    } else if (std::strcmp(argv[i], "--node") == 0 && i + 1 < argc) {
      Peer peer;
      if (!ParsePeer(argv[++i], &peer)) return Usage(argv[0]);
      peers.push_back(peer);
    } else {
      return Usage(argv[0]);
    }
  }
  if (mode == "node" && port != 0) {
    return RunNode(name, port, partitions, vnodes, drivers);
  }
  if (mode == "router" && port != 0 && !peers.empty()) {
    if (state_path.empty()) {
      state_path = "tman-router-" + std::to_string(port) + ".state";
    }
    return RunRouter(port, peers, partitions, vnodes, state_path);
  }
  return Usage(argv[0]);
}
