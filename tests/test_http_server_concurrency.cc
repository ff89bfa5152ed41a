// Concurrency tests for the executor-backed HTTP serving stack
// (vnet::ConcurrentHttpServer): N-thread closed-loop and open-loop
// trace-replay runs in all three ServeModes, response correctness per
// connection, monotone aggregate counters, bounded-admission load shedding
// (503), and drain-on-destruction.  Run under TSan (TSAN=1 ./ci.sh) to
// check the synchronization itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/vnet/loadgen.h"
#include "src/vnet/server.h"
#include "src/wasp/channel.h"
#include "src/wasp/runtime.h"

namespace {

constexpr const char* kRequest = "GET /file.txt HTTP/1.0\r\n\r\n";
constexpr const char* kRoute = "/file.txt";
constexpr int kBodySize = 512;

std::string DrainToString(wasp::ByteChannel& channel) {
  auto bytes = channel.host().Drain();
  return std::string(bytes.begin(), bytes.end());
}

class ConcurrentServerModeTest : public ::testing::TestWithParam<vnet::ServeMode> {
 protected:
  ConcurrentServerModeTest() { files_.PutFile("/file.txt", std::string(kBodySize, 'q')); }

  wasp::Runtime runtime_;
  wasp::HostEnv files_;
};

TEST_P(ConcurrentServerModeTest, ClosedLoopServesEveryConnectionCorrectly) {
  vnet::ConcurrentServerOptions options;
  options.lanes = 4;
  options.max_queue_depth = 16;
  options.block_when_full = true;
  vnet::ConcurrentHttpServer server(&runtime_, &files_, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        wasp::ByteChannel channel;
        channel.host().WriteString(kRequest);
        auto stats = server.SubmitConnection(channel, GetParam(), kRoute, {}).get();
        if (!stats.ok() || stats->status != 200) {
          wrong.fetch_add(1);
          continue;
        }
        const std::string response = DrainToString(channel);
        if (response.find("200 OK") == std::string::npos ||
            response.find(std::string(kBodySize, 'q')) == std::string::npos) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong.load(), 0);

  const vnet::ServerCounters ctr = server.counters(GetParam());
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(ctr.accepted, total);
  EXPECT_EQ(ctr.completed, total);
  EXPECT_EQ(ctr.status_2xx, total);
  EXPECT_EQ(ctr.rejected, 0u);
  EXPECT_EQ(ctr.errors, 0u);
  // The executor's completed counter is incremented after the connection's
  // future resolves; give the worker a beat to publish the last one.
  for (int i = 0; i < 5000 && server.executor_stats().completed < total; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const wasp::ExecutorStats xstats = server.executor_stats();
  EXPECT_EQ(xstats.submitted, total);
  EXPECT_EQ(xstats.completed, total);
  EXPECT_EQ(xstats.rejected, 0u);

  // Counters are monotone: more traffic only ever grows them.
  wasp::ByteChannel channel;
  channel.host().WriteString(kRequest);
  ASSERT_TRUE(server.SubmitConnection(channel, GetParam(), kRoute, {}).get().ok());
  const vnet::ServerCounters after = server.counters(GetParam());
  EXPECT_EQ(after.accepted, ctr.accepted + 1);
  EXPECT_EQ(after.completed, ctr.completed + 1);
  EXPECT_GE(after.status_2xx, ctr.status_2xx);
  EXPECT_GE(after.modeled_cycles, ctr.modeled_cycles);
}

TEST_P(ConcurrentServerModeTest, TraceReplayServesEveryArrival) {
  vnet::ConcurrentServerOptions options;
  options.lanes = 4;
  options.max_queue_depth = 0;  // unbounded: the open loop must not shed
  vnet::ConcurrentHttpServer server(&runtime_, &files_, options);

  // A small ramp-burst-ramp trace (~22 arrivals), dispatched open loop:
  // every arrival is submitted before any completion is awaited, so the
  // burst lands at full width.
  const std::vector<double> arrivals =
      vnet::GenerateArrivalTrace({{4, 1}, {14, 1}, {4, 1}}, 9);
  // Channels must outlive the futures; one per arrival.
  std::vector<wasp::ByteChannel> channels(arrivals.size());
  std::vector<std::future<vbase::Result<vnet::ServeStats>>> futures;
  futures.reserve(arrivals.size());
  for (wasp::ByteChannel& channel : channels) {
    channel.host().WriteString(kRequest);
    futures.push_back(server.SubmitConnection(channel, GetParam(), kRoute, {}));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto stats = futures[i].get();
    ASSERT_TRUE(stats.ok()) << "arrival " << i << ": " << stats.status().ToString();
    EXPECT_EQ(stats->status, 200) << "arrival " << i;
    EXPECT_GE(channels[i].host().Drain().size(), static_cast<size_t>(kBodySize))
        << "arrival " << i;
  }

  const vnet::ServerCounters ctr = server.counters(GetParam());
  EXPECT_EQ(ctr.accepted, arrivals.size());
  EXPECT_EQ(ctr.completed, arrivals.size());
  EXPECT_EQ(ctr.status_2xx, arrivals.size());
  EXPECT_EQ(ctr.rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ConcurrentServerModeTest,
                         ::testing::Values(vnet::ServeMode::kNative,
                                           vnet::ServeMode::kVirtine,
                                           vnet::ServeMode::kVirtineSnapshot),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case vnet::ServeMode::kNative: return "native";
                             case vnet::ServeMode::kVirtine: return "virtine";
                             default: return "virtine_snapshot";
                           }
                         });

TEST(ConcurrentServer, RejectModeShedsOverflowWith503) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  vnet::ConcurrentServerOptions options;
  options.lanes = 1;
  options.max_queue_depth = 1;
  options.block_when_full = false;  // shed overflow
  vnet::ConcurrentHttpServer server(&runtime, &files, options);

  // Plug the single lane: a connection with no request bytes blocks the
  // handler in recv until we feed it.
  wasp::ByteChannel plug;
  auto plug_future = server.SubmitConnection(plug, vnet::ServeMode::kNative, kRoute, {});
  // Wait until the worker picked the plug up (queue empty, one accepted).
  for (int i = 0; i < 5000 && server.executor_stats().queued > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.executor_stats().queued, 0u);

  // One connection fills the queue; the next must be shed with a 503.
  wasp::ByteChannel queued;
  queued.host().WriteString(kRequest);
  auto queued_future = server.SubmitConnection(queued, vnet::ServeMode::kNative, kRoute, {});
  wasp::ByteChannel shed;
  shed.host().WriteString(kRequest);
  auto shed_future = server.SubmitConnection(shed, vnet::ServeMode::kNative, kRoute, {});
  ASSERT_EQ(shed_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto shed_stats = shed_future.get();
  ASSERT_TRUE(shed_stats.ok());
  EXPECT_EQ(shed_stats->status, 503);
  const std::string shed_response = DrainToString(shed);
  EXPECT_NE(shed_response.find("HTTP/1.1 503"), std::string::npos);

  // Unblock the plug; the accepted connections complete normally.
  plug.host().WriteString(kRequest);
  auto plug_stats = plug_future.get();
  ASSERT_TRUE(plug_stats.ok());
  EXPECT_EQ(plug_stats->status, 200);
  auto queued_stats = queued_future.get();
  ASSERT_TRUE(queued_stats.ok());
  EXPECT_EQ(queued_stats->status, 200);

  const vnet::ServerCounters ctr = server.counters(vnet::ServeMode::kNative);
  EXPECT_EQ(ctr.accepted, 2u);
  EXPECT_EQ(ctr.rejected, 1u);
  EXPECT_EQ(ctr.status_2xx, 2u);
  const wasp::ExecutorStats xstats = server.executor_stats();
  EXPECT_EQ(xstats.rejected, 1u);
  EXPECT_EQ(xstats.submitted, 2u);
}

TEST(ConcurrentServer, RouteQuotaShedsWith429WhileOverloadSheds503) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  vnet::ConcurrentServerOptions options;
  options.lanes = 1;
  options.max_queue_depth = 8;
  options.block_when_full = false;
  options.key_quota = 2;
  options.route_classes["/hot"] = wasp::KeyClass::kBatch;
  vnet::ConcurrentHttpServer server(&runtime, &files, options);

  // Plug the single lane: a connection with no request bytes blocks the
  // handler in recv until we feed it.
  wasp::ByteChannel plug;
  auto plug_future = server.SubmitConnection(plug, vnet::ServeMode::kNative, kRoute, {});
  for (int i = 0; i < 5000 && server.executor_stats().queued > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.executor_stats().queued, 0u);

  // Two /hot connections fill that route's quota (queued, lane busy)...
  std::vector<std::unique_ptr<wasp::ByteChannel>> held;
  std::vector<std::future<vbase::Result<vnet::ServeStats>>> accepted;
  for (int i = 0; i < 2; ++i) {
    held.push_back(std::make_unique<wasp::ByteChannel>());
    held.back()->host().WriteString(kRequest);
    accepted.push_back(server.SubmitConnection(*held.back(), vnet::ServeMode::kNative, "/hot", {}));
  }
  // ...so the third is shed with 429: the route is over quota, the server
  // is not full (queue depth 2 of 8).
  wasp::ByteChannel quota_shed;
  quota_shed.host().WriteString(kRequest);
  auto quota_future =
      server.SubmitConnection(quota_shed, vnet::ServeMode::kNative, "/hot", {});
  ASSERT_EQ(quota_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto quota_stats = quota_future.get();
  ASSERT_TRUE(quota_stats.ok());
  EXPECT_EQ(quota_stats->status, 429);
  EXPECT_NE(DrainToString(quota_shed).find("HTTP/1.1 429"), std::string::npos);

  // Other routes are untouched by /hot's quota: fill the global queue...
  for (int i = 0; i < 6; ++i) {
    held.push_back(std::make_unique<wasp::ByteChannel>());
    held.back()->host().WriteString(kRequest);
    accepted.push_back(server.SubmitConnection(*held.back(), vnet::ServeMode::kNative,
                                               "/cold" + std::to_string(i), {}));
  }
  ASSERT_EQ(server.executor_stats().queued, 8u);
  // ...and the next connection is shed with 503: global overload.
  wasp::ByteChannel overload_shed;
  overload_shed.host().WriteString(kRequest);
  auto overload_future =
      server.SubmitConnection(overload_shed, vnet::ServeMode::kNative, "/cold-extra", {});
  ASSERT_EQ(overload_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto overload_stats = overload_future.get();
  ASSERT_TRUE(overload_stats.ok());
  EXPECT_EQ(overload_stats->status, 503);
  EXPECT_NE(DrainToString(overload_shed).find("HTTP/1.1 503"), std::string::npos);

  // Unblock the lane; every accepted connection completes with a 200.
  plug.host().WriteString(kRequest);
  ASSERT_TRUE(plug_future.get().ok());
  for (auto& future : accepted) {
    auto stats = future.get();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 200);
  }

  const vnet::ServerCounters ctr = server.counters(vnet::ServeMode::kNative);
  EXPECT_EQ(ctr.accepted, 9u);  // plug + 2 hot + 6 cold
  EXPECT_EQ(ctr.quota_rejected, 1u);
  EXPECT_EQ(ctr.rejected, 1u);
  EXPECT_EQ(ctr.status_2xx, 9u);
  const wasp::ExecutorStats xstats = server.executor_stats();
  EXPECT_EQ(xstats.quota_rejected, 1u);
  EXPECT_EQ(xstats.rejected, 1u);
  EXPECT_EQ(xstats.submitted, 9u);
  EXPECT_EQ(xstats.dequeued_batch, 2u);  // the /hot route is batch-classed
}

TEST(ConcurrentServer, RouteQuotaOverridesAreKeyedByRouteName) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  vnet::ConcurrentServerOptions options;
  options.lanes = 1;
  options.max_queue_depth = 8;
  options.block_when_full = false;
  options.key_quota = 1;
  options.key_quota_overrides = {{"/vip", 4}};  // spelled as the route, as documented
  vnet::ConcurrentHttpServer server(&runtime, &files, options);

  // Plug the single lane so every routed connection below stays queued.
  wasp::ByteChannel plug;
  auto plug_future = server.SubmitConnection(plug, vnet::ServeMode::kNative, kRoute, {});
  for (int i = 0; i < 5000 && server.executor_stats().queued > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.executor_stats().queued, 0u);

  // /vip rides its override of 4: three queued connections all fit.  /std
  // falls back to key_quota 1: its second connection is shed with 429.
  std::vector<std::unique_ptr<wasp::ByteChannel>> held;
  std::vector<std::future<vbase::Result<vnet::ServeStats>>> futures;
  for (const char* route : {"/vip", "/vip", "/vip", "/std", "/std"}) {
    held.push_back(std::make_unique<wasp::ByteChannel>());
    held.back()->host().WriteString(kRequest);
    futures.push_back(server.SubmitConnection(*held.back(), vnet::ServeMode::kNative, route, {}));
  }
  EXPECT_EQ(server.executor_stats().queued, 4u);

  plug.host().WriteString(kRequest);
  ASSERT_TRUE(plug_future.get().ok());
  std::vector<int> statuses;
  for (auto& future : futures) {
    auto stats = future.get();
    ASSERT_TRUE(stats.ok());
    statuses.push_back(stats->status);
  }
  EXPECT_EQ(statuses, (std::vector<int>{200, 200, 200, 200, 429}));
  const vnet::ServerCounters ctr = server.counters(vnet::ServeMode::kNative);
  EXPECT_EQ(ctr.quota_rejected, 1u);
  EXPECT_EQ(ctr.accepted, 5u);  // plug + 3 /vip + 1 /std
}

TEST(ConcurrentServer, GuestFaultAnswers500WithReasonAndCountsFaulted) {
  // Every virtine invocation of this runtime takes an injected guest trap:
  // the connection must be answered with a 500 whose reason phrase names
  // the FaultKind, counted as faulted (not an error), and classified as a
  // faulted job on the executor so the route's quota slot is released.
  wasp::RuntimeOptions roptions;
  roptions.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 1.0));
  wasp::Runtime runtime(roptions);
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  vnet::ConcurrentServerOptions options;
  options.lanes = 2;
  vnet::ConcurrentHttpServer server(&runtime, &files, options);

  wasp::ByteChannel channel;
  channel.host().WriteString(kRequest);
  auto stats = server.SubmitConnection(channel, vnet::ServeMode::kVirtine, kRoute, {}).get();
  // A faulted invocation is a *served* connection (the client got an
  // answer), not a server error.
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 500);
  EXPECT_EQ(stats->fault, wasp::FaultKind::kGuestTrap);
  const std::string response = DrainToString(channel);
  EXPECT_NE(response.find("HTTP/1.1 500 guest-trap"), std::string::npos) << response;

  const vnet::ServerCounters ctr = server.counters(vnet::ServeMode::kVirtine);
  EXPECT_EQ(ctr.accepted, 1u);
  EXPECT_EQ(ctr.completed, 1u);
  EXPECT_EQ(ctr.faulted, 1u);
  EXPECT_EQ(ctr.status_5xx, 1u);
  EXPECT_EQ(ctr.errors, 0u);
  // The executor saw a faulted job, not a completion (the worker publishes
  // the classification after the future resolves; give it a beat).
  for (int i = 0; i < 5000 && server.executor_stats().faulted < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const wasp::ExecutorStats xstats = server.executor_stats();
  EXPECT_EQ(xstats.submitted, 1u);
  EXPECT_EQ(xstats.faulted, 1u);
  EXPECT_EQ(xstats.completed, 0u);
  // The faulted shell was quarantined, never returned to the free pool raw.
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);

  // Native mode bypasses the virtine, so the same server still serves it
  // even under a total guest-fault storm.
  wasp::ByteChannel native;
  native.host().WriteString(kRequest);
  auto native_stats = server.SubmitConnection(native, vnet::ServeMode::kNative, kRoute, {}).get();
  ASSERT_TRUE(native_stats.ok());
  EXPECT_EQ(native_stats->status, 200);
}

TEST(ConcurrentServer, BreakerShedsFast429WithRetryAfter) {
  // A route whose every invocation faults must trip its circuit breaker and
  // then shed with a fast 429 + Retry-After — no shell burned on a key that
  // is currently killing every invocation.
  wasp::RuntimeOptions roptions;
  roptions.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 1.0));
  wasp::Runtime runtime(roptions);
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  vnet::ConcurrentServerOptions options;
  options.lanes = 1;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_min_samples = 4;  // EWMA(0.2): 1 - 0.8^4 = 0.59 >= 0.5
  options.recovery.breaker_open_sheds = 2;
  options.recovery.retry_after_s = 7;
  vnet::ConcurrentHttpServer server(&runtime, &files, options);

  // Four sequential faulting connections trip the breaker at the 4th
  // recorded attempt.  The worker records the attempt after the connection
  // future resolves, so poll the executor between submissions.
  for (int i = 0; i < 4; ++i) {
    wasp::ByteChannel channel;
    channel.host().WriteString(kRequest);
    auto stats = server.SubmitConnection(channel, vnet::ServeMode::kVirtine, "vol", {}).get();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 500);
    for (int spin = 0;
         spin < 5000 && server.executor_stats().faulted < static_cast<uint64_t>(i) + 1;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(server.executor_stats().breaker_opens, 1u);

  // Open: the next breaker_open_sheds connections shed fast-429 with the
  // advertised Retry-After, burning no shells.
  for (int i = 0; i < 2; ++i) {
    wasp::ByteChannel shed;
    shed.host().WriteString(kRequest);
    auto stats = server.SubmitConnection(shed, vnet::ServeMode::kVirtine, "vol", {}).get();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 429);
    const std::string response = DrainToString(shed);
    EXPECT_NE(response.find("HTTP/1.1 429"), std::string::npos) << response;
    EXPECT_NE(response.find("Retry-After: 7"), std::string::npos) << response;
  }
  EXPECT_EQ(server.counters(vnet::ServeMode::kVirtine).breaker_rejected, 2u);
  EXPECT_EQ(runtime.pool().stats().quarantined, 4u);  // sheds touched no shell

  // The cooldown count elapsed: the next connection is the half-open probe.
  // It faults, so the breaker re-opens and the follow-up sheds again.
  wasp::ByteChannel probe;
  probe.host().WriteString(kRequest);
  auto probe_stats = server.SubmitConnection(probe, vnet::ServeMode::kVirtine, "vol", {}).get();
  ASSERT_TRUE(probe_stats.ok());
  EXPECT_EQ(probe_stats->status, 500);
  for (int spin = 0; spin < 5000 && server.executor_stats().faulted < 5; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wasp::ByteChannel again;
  again.host().WriteString(kRequest);
  auto again_stats = server.SubmitConnection(again, vnet::ServeMode::kVirtine, "vol", {}).get();
  ASSERT_TRUE(again_stats.ok());
  EXPECT_EQ(again_stats->status, 429);
  EXPECT_EQ(server.executor_stats().breaker_opens, 2u);

  // A different route is untouched by the storm route's breaker.
  wasp::ByteChannel other;
  other.host().WriteString(kRequest);
  auto other_stats = server.SubmitConnection(other, vnet::ServeMode::kNative, "ok", {}).get();
  ASSERT_TRUE(other_stats.ok());
  EXPECT_EQ(other_stats->status, 200);
}

TEST(ConcurrentServer, DestructionDrainsAcceptedConnections) {
  wasp::Runtime runtime;
  wasp::HostEnv files;
  files.PutFile("/file.txt", std::string(kBodySize, 'q'));
  constexpr int kConnections = 6;
  std::vector<wasp::ByteChannel> channels(kConnections);
  std::vector<std::future<vbase::Result<vnet::ServeStats>>> futures;
  {
    vnet::ConcurrentServerOptions options;
    options.lanes = 2;
    vnet::ConcurrentHttpServer server(&runtime, &files, options);
    for (int i = 0; i < kConnections; ++i) {
      channels[static_cast<size_t>(i)].host().WriteString(kRequest);
      futures.push_back(server.SubmitConnection(channels[static_cast<size_t>(i)],
                                                vnet::ServeMode::kVirtineSnapshot, kRoute, {}));
    }
    // Server destroyed here with connections still queued/in flight.
  }
  for (int i = 0; i < kConnections; ++i) {
    auto& future = futures[static_cast<size_t>(i)];
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "connection " << i << " not drained by the destructor";
    auto stats = future.get();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 200);
  }
}

}  // namespace
