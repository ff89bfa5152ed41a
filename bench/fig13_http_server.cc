// Figure 13: HTTP server latency (a) and harmonic-mean throughput (b) with
// each request handled natively vs in a virtine (with/without snapshots),
// served concurrently: the sweep widens the server from 1 to 8 lanes.
//
// Every virtine request performs the paper's seven host interactions.  The
// native baseline is the same handler logic with all virtualization charges
// stripped (DESIGN.md S2).  Throughput is the harmonic mean of per-request
// throughput, as in the paper.  The lane sweep runs on the executor in
// virtual time (wasp::Executor::RunVirtual with closed-loop clients): each
// request is a task with its own channel, the request already written in,
// served by StaticHttpServer::HandleConnection under the route's key and
// holding its lane for its modeled cycles.  The native row serves the same
// snapshot-mode requests, each holding its lane for its de-isolated cycles.
// Latency (queue wait + service) and the lane scaling are thus
// machine-independent and repeat exactly (wall time on an oversubscribed
// host cannot express lane parallelism — same convention as fig9's modeled
// makespan).
//
// A second, real-socket phase measures the keep-alive win end to end: a
// vnet::Listener (epoll accept loop) fronts the same server on 127.0.0.1 and
// RunSocketClosedLoop sweeps the connection-reuse axis (requests per TCP
// connection 1 -> 64).  Reuse amortizes the per-connection charges — TCP
// connect + accept, executor dispatch, and in the virtine modes a shell
// acquire and a snapshot restore (without a snapshot, a boot and the first
// receive's exit) — over many requests served by the one held shell, so a
// request gets cheaper and wall RPS climbs with reuse.  A warm snapshot-mode
// connection has no fixed hypercall exit left: its first request arrives
// with the restore, and its last response leaves in its exit (send_exit),
// so a request costs two exits at every reuse.  The wall numbers are time
// over loopback: host-dependent, unlike the modeled cycles and hypercall
// exits per request each point also records from the server's counters
// (exits are printed, not gated).  Each mode's socket sweep runs on a fresh
// runtime that is settled first: in snapshot mode one connection captures
// the snapshot, and then as many keep-alive connections as the server has
// lanes are held open at once, so every point starts with the snapshot
// published and one warm shell per lane, all with one history.
//
// `--quick` runs a small 2-lane smoke of all three modes and exits non-zero
// on any wrong response or counter mismatch (the ci.sh gate for the
// concurrent serving path), on a lane table whose modeled columns differ
// when the sweep runs again on a fresh runtime, and on the keep-alive gate,
// in modeled cycles per request: in snapshot mode a request at 8
// requests/connection must cost less than at connection-per-request.  The full run gates reuse=64 at
// >= 2x cheaper than reuse=1.  Each virtine-mode point runs twice, and
// the run fails unless both agree exactly on modeled cycles and exits per
// request, which the gate reads.  The wall RPS ratio is printed and written
// beside it, ungated.  The last line counts bad responses and counter
// mismatches apart from failed gates, and names each failed gate.  `--soak S`
// replaces the sweeps with a wall-clock-paced soak: every client loops until
// the deadline, and the run fails on any bad response or counter drift.
// `--json PATH` writes the machine-readable results.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/vnet/listener.h"
#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/wasp/channel.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"

namespace {

constexpr const char* kRequest = "GET /static.html HTTP/1.0\r\n\r\n";
// The lane sweep's one route: its connections share one admission key and
// dispatch in submission order (no quota or breaker is configured).
constexpr const char* kRoute = "/static.html";
constexpr size_t kBodySize = 8192;

// One row of the lane sweep, in modeled time except for the wall column.
struct LaneRow {
  double mean_us = 0;
  double p99_us = 0;
  double rps = 0;  // harmonic mean of per-request throughput
  double wall_seconds = 0;
  int bad_responses = 0;
};

// Runs `clients` closed-loop clients of `per_client` single-shot requests
// each on `lanes` virtual lanes (Executor::RunVirtual).  Each request is a
// task with its own channel, the request already written in: it is served
// in `mode` and holds its lane for its modeled cycles, or, with
// `deisolated`, for its de-isolated cycles (the native baseline).  A
// request counts as bad unless it was admitted, answered 200 and carried
// the whole body; a run whose executor stats do not conserve, or that did
// not complete every request, counts once more.
LaneRow RunSweep(wasp::Runtime* runtime, wasp::HostEnv* files, int lanes, int clients,
                 int per_client, vnet::ServeMode mode, bool deisolated) {
  vnet::StaticHttpServer server(runtime, files);
  const size_t total = static_cast<size_t>(clients) * static_cast<size_t>(per_client);
  std::vector<std::unique_ptr<wasp::ByteChannel>> channels;
  std::vector<vnet::ServeStats> stats(total);
  std::vector<wasp::Executor::Arrival> arrivals(total);
  for (size_t i = 0; i < total; ++i) {
    channels.push_back(std::make_unique<wasp::ByteChannel>());
    wasp::ByteChannel& channel = *channels.back();
    channel.host().WriteString(kRequest);
    arrivals[i].key = kRoute;
    arrivals[i].task = [&server, &channel, &served = stats[i], mode, deisolated] {
      wasp::RunOutcome outcome;
      auto result = server.HandleConnection(channel, mode);
      if (!result.ok()) {
        outcome.status = result.status();
        return outcome;
      }
      served = *result;
      outcome.stats.total_cycles = deisolated ? served.deisolated_cycles : served.modeled_cycles;
      return outcome;
    };
  }
  wasp::ExecutorOptions options;
  options.workers = lanes;
  vbase::WallTimer timer;
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(runtime, options, std::move(arrivals),
                                 static_cast<size_t>(clients));
  LaneRow row;
  row.wall_seconds = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  std::vector<double> latencies_us;
  std::vector<double> rps;
  for (size_t i = 0; i < total; ++i) {
    const wasp::Executor::Served& served = run.served[i];
    if (served.admission != wasp::Admission::kAccepted || !served.outcome.status.ok() ||
        stats[i].status != 200 || channels[i]->host().Drain().size() < kBodySize) {
      ++row.bad_responses;
      continue;
    }
    latencies_us.push_back(served.done_us - served.arrival_us);
    rps.push_back(1e6 / latencies_us.back());
  }
  const wasp::ExecutorStats& es = run.stats;
  if (es.submitted != total || es.completed != total ||
      es.submitted != es.completed + es.faulted + es.queued + es.in_flight) {
    std::printf("executor stats mismatch (%s, %d lanes): submitted=%llu completed=%llu "
                "faulted=%llu queued=%llu in_flight=%llu, want %zu\n",
                vnet::ServeModeName(mode), lanes,
                static_cast<unsigned long long>(es.submitted),
                static_cast<unsigned long long>(es.completed),
                static_cast<unsigned long long>(es.faulted),
                static_cast<unsigned long long>(es.queued),
                static_cast<unsigned long long>(es.in_flight), total);
    ++row.bad_responses;
  }
  const vbase::Summary latency = vbase::Summarize(latencies_us);
  row.mean_us = latency.mean;
  row.p99_us = latency.p99;
  row.rps = vbase::HarmonicMean(rps);
  return row;
}

// The lane table: per lane count, the native (modeled), virtine and
// virtine+snapshot rows, in that order.
using LaneTable = std::vector<std::array<LaneRow, 3>>;

// Runs the rows virtine, virtine+snapshot, native (modeled), so each lane
// count's virtine row meets the pool its predecessor left, its snapshot row
// captures the key's snapshot if no row has yet, and the native row's
// requests all restore it.
LaneTable RunLaneSweep(wasp::Runtime* runtime, wasp::HostEnv* files,
                       const std::vector<int>& lane_sweep, int clients, int per_client) {
  LaneTable table;
  for (const int lanes : lane_sweep) {
    std::array<LaneRow, 3> rows;
    rows[1] = RunSweep(runtime, files, lanes, clients, per_client, vnet::ServeMode::kVirtine,
                       /*deisolated=*/false);
    rows[2] = RunSweep(runtime, files, lanes, clients, per_client,
                       vnet::ServeMode::kVirtineSnapshot, /*deisolated=*/false);
    rows[0] = RunSweep(runtime, files, lanes, clients, per_client,
                       vnet::ServeMode::kVirtineSnapshot, /*deisolated=*/true);
    table.push_back(rows);
  }
  return table;
}

constexpr const char* kLaneRowNames[3] = {"native (modeled)", "virtine", "virtine+snapshot"};

// A row's modeled columns as printed: mean, p99, RPS and the ratio to the
// native row.  The wall column is left out.
std::array<std::string, 4> ModeledColumns(const LaneRow& row, const LaneRow& native) {
  return {vbase::Fmt(row.mean_us, 1), vbase::Fmt(row.p99_us, 1), vbase::Fmt(row.rps, 0),
          vbase::Fmt(native.rps > 0 ? row.rps / native.rps : 0, 2) + "x"};
}

// One point of the real-socket connection-reuse sweep: a fresh listener +
// server pair, `clients` socket client threads, `reuse` requests per TCP
// connection.  In fixed-count mode each client spends per_client requests;
// duration_s > 0 switches to the wall-clock-paced soak.
struct SocketPoint {
  int reuse = 1;
  double rps = 0;       // completed requests / wall seconds (measured, wall)
  double mean_us = 0;
  double p99_us = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  vnet::ServerCounters counters;
  vnet::ListenerStats lstats;
  int mismatches = 0;
};

SocketPoint RunSocketPoint(wasp::Runtime* runtime, wasp::HostEnv* files,
                           vnet::ServeMode mode, int lanes, int clients, int per_client,
                           int reuse, double duration_s) {
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = lanes;
  sopts.max_queue_depth = static_cast<size_t>(4 * clients);
  sopts.block_when_full = false;  // the epoll loop must never block on admission
  vnet::ConcurrentHttpServer server(runtime, files, sopts);
  vnet::ListenerOptions lopts;
  lopts.mode = mode;
  vnet::Listener listener(&server, lopts);
  VB_CHECK(listener.Start().ok(), "listener start failed");

  vnet::SocketLoadOptions load;
  load.port = listener.port();
  load.clients = clients;
  load.requests_per_client = per_client;
  load.requests_per_connection = reuse;
  // The paper's httpd serves a small index page; a small object also keeps
  // the per-request guest byte-copy cost from drowning the per-connection
  // charges the reuse axis is measuring.
  load.target = "/index.html";
  load.duration_s = duration_s;
  const vnet::LoadResult result = vnet::RunSocketClosedLoop(load);
  // Clients never wait for the server's FIN; Stop() drains every in-flight
  // connection job so the counters below are settled.
  listener.Stop();

  SocketPoint pt;
  pt.reuse = reuse;
  pt.requests = result.latencies_us.size();
  pt.failures = result.failures;
  pt.rps = result.wall_seconds > 0 ? static_cast<double>(pt.requests) / result.wall_seconds
                                   : 0;
  pt.mean_us = result.latency.mean;
  pt.p99_us = result.latency.p99;
  pt.counters = server.counters(mode);
  pt.lstats = listener.stats();

  // Consistency: every socket request the clients counted must have been
  // forwarded by the listener, served 200 by a lane, and nothing rejected.
  if (pt.failures != 0 || pt.counters.requests != pt.requests ||
      pt.counters.status_2xx != pt.requests ||
      pt.lstats.requests_forwarded != pt.requests || pt.counters.rejected != 0 ||
      pt.lstats.edge_400 != 0 || pt.lstats.edge_413 != 0) {
    ++pt.mismatches;
  }
  if (duration_s <= 0) {
    // Fixed-count mode has exact expectations: per_client % reuse == 0, so
    // every connection carries exactly `reuse` requests.
    const uint64_t total = static_cast<uint64_t>(clients) * per_client;
    const uint64_t conns = total / static_cast<uint64_t>(reuse);
    if (pt.requests != total || pt.lstats.accepted != conns ||
        pt.counters.keepalive_reused != total - conns) {
      ++pt.mismatches;
    }
  }
  if (pt.mismatches > 0) {
    std::printf(
        "socket counter mismatch (%s, reuse=%d): client_ok=%llu failures=%llu "
        "served=%llu 2xx=%llu reused=%llu forwarded=%llu accepted=%llu "
        "edge_400=%llu edge_413=%llu rejected=%llu\n",
        vnet::ServeModeName(mode), reuse, static_cast<unsigned long long>(pt.requests),
        static_cast<unsigned long long>(pt.failures),
        static_cast<unsigned long long>(pt.counters.requests),
        static_cast<unsigned long long>(pt.counters.status_2xx),
        static_cast<unsigned long long>(pt.counters.keepalive_reused),
        static_cast<unsigned long long>(pt.lstats.requests_forwarded),
        static_cast<unsigned long long>(pt.lstats.accepted),
        static_cast<unsigned long long>(pt.lstats.edge_400),
        static_cast<unsigned long long>(pt.lstats.edge_413),
        static_cast<unsigned long long>(pt.counters.rejected));
  }
  return pt;
}

// Settles a fresh runtime for a socket sweep in `mode` on `lanes` lanes, so
// every point starts from what a settled server holds.  In snapshot mode
// one connection first captures the keep-alive guest's snapshot; otherwise a
// sweep's first point also pays the cold boots of however many connections
// race the first capture, a number that moves with thread timing.  Then
// `lanes` keep-alive connections are held open at once until each has its
// response, so each holds a shell of its own, and the sweep starts with
// `lanes` shells that share one history: whichever of them a connection
// takes, it costs the same.  Served one after another, these connections
// would all run on one shell, and each point's connections would meet
// shells of different histories in an order that moves with thread timing.
void SettleLanes(wasp::Runtime* runtime, wasp::HostEnv* files, vnet::ServeMode mode,
                 int lanes) {
  vnet::ConcurrentServerOptions sopts;
  sopts.lanes = lanes;
  vnet::ConcurrentHttpServer server(runtime, files, sopts);
  vnet::ConnectionOptions conn;
  conn.keep_alive = true;
  if (mode == vnet::ServeMode::kVirtineSnapshot) {
    wasp::ByteChannel capture;
    capture.host().WriteString(
        "GET /index.html HTTP/1.1\r\nHost: fig13\r\nConnection: close\r\n\r\n");
    const vbase::Result<vnet::ServeStats> stats =
        server.SubmitConnection(capture, mode, "/index.html", conn).get();
    VB_CHECK(stats.ok() && stats->r2xx == 1, "snapshot capture connection failed");
  }
  std::vector<wasp::ByteChannel> channels(static_cast<size_t>(lanes));
  std::vector<std::future<vbase::Result<vnet::ServeStats>>> jobs;
  for (wasp::ByteChannel& channel : channels) {
    channel.host().WriteString("GET /index.html HTTP/1.1\r\nHost: fig13\r\n\r\n");
    jobs.push_back(server.SubmitConnection(channel, mode, "/index.html", conn));
  }
  // A response's first byte means its connection holds a shell, which it
  // keeps until its channel closes.
  for (wasp::ByteChannel& channel : channels) {
    char first = 0;
    VB_CHECK(channel.host().Read(&first, 1) == 1,
             "settling connection closed early (" << vnet::ServeModeName(mode) << ")");
  }
  for (wasp::ByteChannel& channel : channels) {
    channel.host().CloseWrite();
  }
  for (auto& job : jobs) {
    const vbase::Result<vnet::ServeStats> stats = job.get();
    VB_CHECK(stats.ok() && stats->r2xx == 1,
             "settling connection failed (" << vnet::ServeModeName(mode) << ")");
  }
}

// Modeled service cycles per request the server counted at this point.
double ModeledPerRequest(const SocketPoint& p) {
  const double requests = static_cast<double>(p.counters.requests);
  return requests > 0 ? static_cast<double>(p.counters.modeled_cycles) / requests : 0;
}

// Hypercall exits per request the server counted at this point (0 natively).
double ExitsPerRequest(const SocketPoint& p) {
  const double requests = static_cast<double>(p.counters.requests);
  return requests > 0 ? static_cast<double>(p.counters.io_exits) / requests : 0;
}

void WriteJson(const std::string& path,
               const std::vector<std::pair<std::string, std::vector<SocketPoint>>>& sweeps,
               double modeled_gate_ratio, double rps_ratio) {
  FILE* f = std::fopen(path.c_str(), "w");
  VB_CHECK(f != nullptr, "cannot open " << path);
  std::fprintf(f, "{\n  \"socket_reuse_sweep\": {\n");
  for (size_t m = 0; m < sweeps.size(); ++m) {
    std::fprintf(f, "    \"%s\": [\n", sweeps[m].first.c_str());
    const std::vector<SocketPoint>& pts = sweeps[m].second;
    for (size_t i = 0; i < pts.size(); ++i) {
      const SocketPoint& p = pts[i];
      std::fprintf(f,
                   "      {\"requests_per_connection\": %d, \"rps\": %.0f, "
                   "\"mean_us\": %.1f, \"p99_us\": %.1f, "
                   "\"modeled_cycles_per_request\": %.0f, \"exits_per_request\": %.4f, "
                   "\"requests\": %llu, \"connections\": %llu, \"keepalive_reused\": %llu}%s\n",
                   p.reuse, p.rps, p.mean_us, p.p99_us, ModeledPerRequest(p), ExitsPerRequest(p),
                   static_cast<unsigned long long>(p.requests),
                   static_cast<unsigned long long>(p.lstats.accepted),
                   static_cast<unsigned long long>(p.counters.keepalive_reused),
                   i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]%s\n", m + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n  \"snapshot_reuse_modeled_gate_ratio\": %.2f,\n"
               "  \"snapshot_reuse_rps_ratio\": %.2f\n}\n",
               modeled_gate_ratio, rps_ratio);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double soak_s = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak_s = 6.0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        soak_s = std::atof(argv[++i]);
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  benchutil::Header(
      "Figure 13: HTTP static-file server, native vs virtine handlers, 1-8 lanes",
      "virtines with snapshotting lose only ~12% throughput vs native despite 7 "
      "hypercalls per request, and the executor-backed server scales with its lanes");

  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/static.html", std::string(kBodySize, 'v'));
  // Small index page for the real-socket reuse sweep (paper-style httpd
  // object; the modeled sweep above keeps the 8 KB body).
  files.PutFile("/index.html", std::string(512, 'k'));

  const vnet::ServeMode all_modes[] = {vnet::ServeMode::kNative, vnet::ServeMode::kVirtine,
                                       vnet::ServeMode::kVirtineSnapshot};

  if (soak_s > 0) {
    // Wall-clock-paced soak over real sockets: every client loops until the
    // deadline; the run fails on any bad response or counter drift.
    int soak_failures = 0;
    std::printf("\n--- soak: %.0f s per mode, 4 clients, 16 requests/connection ---\n",
                soak_s);
    vbase::Table table({"handler", "requests", "rps", "p99 us", "connections", "reused"});
    for (const vnet::ServeMode mode : all_modes) {
      const SocketPoint pt =
          RunSocketPoint(&runtime, &files, mode, /*lanes=*/4, /*clients=*/4,
                         /*per_client=*/0, /*reuse=*/16, soak_s);
      soak_failures += pt.mismatches;
      table.AddRow({vnet::ServeModeName(mode), std::to_string(pt.requests),
                    vbase::Fmt(pt.rps, 0), vbase::Fmt(pt.p99_us, 1),
                    std::to_string(pt.lstats.accepted),
                    std::to_string(pt.counters.keepalive_reused)});
    }
    table.Print();
    if (soak_failures > 0) {
      std::printf("\nFAIL: %d soak counter mismatches\n", soak_failures);
      return 1;
    }
    std::printf("\nOK: soak clean — every socket request served 200, counters settled.\n");
    return 0;
  }

  const int clients = quick ? 4 : 8;
  const int per_client = quick ? 6 : 16;
  const std::vector<int> lane_sweep = quick ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};

  int failures = 0;                      // bad responses and counter mismatches
  std::vector<std::string> failed_gates;  // claim and determinism gates, named
  const LaneTable lane_table = RunLaneSweep(&runtime, &files, lane_sweep, clients, per_client);
  for (size_t s = 0; s < lane_sweep.size(); ++s) {
    std::printf("\n--- %d lane(s), %d clients x %d requests per mode ---\n", lane_sweep[s],
                clients, per_client);
    vbase::Table table({"handler", "mean latency us", "p99 us", "throughput rps",
                        "vs native", "wall s"});
    for (int m = 0; m < 3; ++m) {
      const LaneRow& row = lane_table[s][m];
      failures += row.bad_responses;
      const std::array<std::string, 4> cols = ModeledColumns(row, lane_table[s][0]);
      table.AddRow({kLaneRowNames[m], cols[0], cols[1], cols[2], cols[3],
                    vbase::Fmt(row.wall_seconds, 2)});
    }
    table.Print();
  }
  if (quick) {
    // The lane table is modeled time on the executor's virtual clock, so a
    // second sweep on a fresh runtime must print the same modeled columns.
    wasp::Runtime again_runtime;
    const LaneTable again =
        RunLaneSweep(&again_runtime, &files, lane_sweep, clients, per_client);
    for (size_t s = 0; s < lane_sweep.size(); ++s) {
      for (int m = 0; m < 3; ++m) {
        failures += again[s][m].bad_responses;
        if (ModeledColumns(again[s][m], again[s][0]) !=
            ModeledColumns(lane_table[s][m], lane_table[s][0])) {
          std::printf("FAIL: the %s row at %d lanes differs on a fresh runtime\n",
                      kLaneRowNames[m], lane_sweep[s]);
          failed_gates.push_back(std::string(kLaneRowNames[m]) + " at " +
                                 std::to_string(lane_sweep[s]) + " lanes not repeatable");
        }
      }
    }
  }

  if (!quick) {
    const double scaling = lane_table.back()[2].rps / lane_table.front()[2].rps;
    std::printf("\nClaim check: virtine+snapshot harmonic-mean RPS scales %.2fx from 1 to 8 "
                "lanes (floor: 3x); %d closed-loop clients.\n", scaling, clients);
    if (scaling < 3.0) {
      std::printf("FAIL: 8-lane scaling %.2fx below the 3x floor\n", scaling);
      failed_gates.push_back("8-lane scaling (" + vbase::Fmt(scaling, 2) + "x, floor 3x)");
    }
  }

  // ---- Real-socket connection-reuse sweep (wall time over loopback) ----
  const std::vector<int> reuse_sweep = quick ? std::vector<int>{1, 8}
                                             : std::vector<int>{1, 8, 64};
  const int sock_lanes = 4;
  const int sock_clients = quick ? 4 : 8;
  // Divisible by every reuse value, so fixed-count expectations are exact.
  const int sock_per_client = quick ? 64 : 192;
  std::printf("\n--- real sockets: epoll listener, %d clients x %d requests, "
              "requests/connection %d -> %d ---\n",
              sock_clients, sock_per_client, reuse_sweep.front(), reuse_sweep.back());
  std::vector<std::pair<std::string, std::vector<SocketPoint>>> socket_sweeps;
  for (const vnet::ServeMode mode : all_modes) {
    vbase::Table table({"handler", "reuse", "rps (wall)", "mean us", "p99 us",
                        "modeled cyc/req", "exits/req", "connections", "reused"});
    std::vector<SocketPoint> points;
    wasp::Runtime sock_runtime;
    SettleLanes(&sock_runtime, &files, mode, sock_lanes);
    const bool virtine_mode = mode != vnet::ServeMode::kNative;
    for (const int reuse : reuse_sweep) {
      // Best-of-2 in the full run: on a small host the client threads, the
      // epoll loop, and the worker lanes all share the same cores, so a
      // single trial can eat a scheduler stall.  Keeping the faster trial
      // damps that interference without changing what is measured.  A
      // virtine-mode point always runs twice, and its two trials must agree
      // exactly on modeled cycles and exits: the keep-alive gate reads the
      // snapshot mode's.
      const int trials = quick && !virtine_mode ? 1 : 2;
      SocketPoint pt = RunSocketPoint(&sock_runtime, &files, mode, sock_lanes, sock_clients,
                                      sock_per_client, reuse, /*duration_s=*/0);
      for (int t = 1; t < trials; ++t) {
        SocketPoint again = RunSocketPoint(&sock_runtime, &files, mode, sock_lanes,
                                           sock_clients, sock_per_client, reuse,
                                           /*duration_s=*/0);
        pt.mismatches += again.mismatches;
        if (virtine_mode && (again.counters.modeled_cycles != pt.counters.modeled_cycles ||
                              again.counters.io_exits != pt.counters.io_exits ||
                              again.counters.requests != pt.counters.requests)) {
          std::printf("FAIL: %s reuse=%d ran at %.0f cycles and %.3f exits per request, "
                      "then at %.0f and %.3f\n",
                      vnet::ServeModeName(mode), reuse, ModeledPerRequest(pt),
                      ExitsPerRequest(pt), ModeledPerRequest(again), ExitsPerRequest(again));
          failed_gates.push_back(std::string(vnet::ServeModeName(mode)) + " reuse=" +
                                 std::to_string(reuse) + " not repeatable");
        }
        if (again.rps > pt.rps) {
          again.mismatches = pt.mismatches;
          pt = std::move(again);
        }
      }
      failures += pt.mismatches;
      table.AddRow({vnet::ServeModeName(mode), std::to_string(pt.reuse),
                    vbase::Fmt(pt.rps, 0), vbase::Fmt(pt.mean_us, 1),
                    vbase::Fmt(pt.p99_us, 1), vbase::Fmt(ModeledPerRequest(pt), 0),
                    vbase::Fmt(ExitsPerRequest(pt), 3), std::to_string(pt.lstats.accepted),
                    std::to_string(pt.counters.keepalive_reused)});
      points.push_back(std::move(pt));
    }
    table.Print();
    socket_sweeps.emplace_back(vnet::ServeModeName(mode), std::move(points));
  }

  // Keep-alive gate, in modeled cycles per request (deterministic and
  // host-independent): in snapshot mode a request served on a reused
  // connection must be cheaper than connection-per-request (quick: 8 vs 1,
  // > 1x; full: 64 vs 1, >= 2x).  Reuse amortizes the shell acquire +
  // snapshot restore over many requests; a warm connection has no fixed
  // exit left to amortize.
  // The wall RPS ratio is reported beside it but not gated: on a small
  // shared host it swings with the neighbours' load.
  const std::vector<SocketPoint>& snap_points = socket_sweeps.back().second;
  const double reuse1_cycles = ModeledPerRequest(snap_points.front());
  const double reuse_top_cycles = ModeledPerRequest(snap_points.back());
  const double gate_ratio = reuse_top_cycles > 0 ? reuse1_cycles / reuse_top_cycles : 0;
  const double rps_ratio =
      snap_points.front().rps > 0 ? snap_points.back().rps / snap_points.front().rps : 0;
  std::printf("\nClaim check: a virtine+snapshot request at %d requests/connection costs "
              "%.0f modeled cycles, %.2fx cheaper than connection-per-request's %.0f "
              "(floor: %s).  Wall socket RPS ratio (reported, not gated): %.2fx.\n",
              reuse_sweep.back(), reuse_top_cycles, gate_ratio, reuse1_cycles,
              quick ? ">1x" : "2x", rps_ratio);
  if (quick ? gate_ratio <= 1.0 : gate_ratio < 2.0) {
    std::printf("FAIL: keep-alive modeled reuse ratio %.2fx below the floor\n", gate_ratio);
    failed_gates.push_back("keep-alive reuse " + std::to_string(reuse_sweep.back()) + " vs 1 (" +
                           vbase::Fmt(gate_ratio, 2) + "x, floor " + (quick ? ">1x)" : "2x)"));
  }

  if (!json_path.empty()) {
    WriteJson(json_path, socket_sweeps, gate_ratio, rps_ratio);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (failures > 0 || !failed_gates.empty()) {
    std::string gates;
    for (const std::string& gate : failed_gates) {
      gates += (gates.empty() ? ": " : "; ") + gate;
    }
    std::printf("\nFAIL: %d bad responses / counter mismatches, %zu failed gates%s\n", failures,
                failed_gates.size(), gates.c_str());
    return 1;
  }
  std::printf("\nOK: all responses 200 with full bodies; admission counters consistent.\n");
  return 0;
}
