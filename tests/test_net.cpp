// Network front-end tests (src/net/): wire protocol round trips, hostile
// frames (typed reject codes; connection survival per the protocol spec),
// deadline propagation from the wire budget into the ModelServer queue,
// and the SIGTERM drain identity (every accepted request answered).
// Runs under the TSan and ASan/UBSan CI legs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/check.hpp"
#include "engine/exec_context.hpp"
#include "grad_check.hpp"
#include "models/zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "serve/model_server.hpp"

namespace alf {
namespace {

using testing::random_input;

constexpr size_t kHw = 8;
constexpr size_t kInC = 3;
constexpr size_t kClasses = 5;
constexpr size_t kBatch = 8;
constexpr size_t kImageFloats = kInC * kHw * kHw;
constexpr uint64_t kBigBudgetUs = 10ull * 1000 * 1000;  // 10 s: never expires

std::unique_ptr<Sequential> toy_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("toy");
  m->emplace<Conv2d>("c1", kInC, 8, 3, 1, 1, Init::kHe, rng);
  m->emplace<BatchNorm2d>("c1_bn", 8);
  m->emplace<Activation>("c1_relu", Act::kRelu);
  m->emplace<GlobalAvgPool>("gap");
  m->emplace<Flatten>("flatten");
  m->emplace<Linear>("fc", 8, kClasses, Init::kHe, rng);
  return m;
}

/// One toy model served over a real socket, event loop on its own thread.
struct NetHarness {
  std::shared_ptr<const Plan> plan;
  ModelServer ms;
  std::unique_ptr<net::NetServer> srv;
  std::thread loop;

  explicit NetHarness(ModelServer::Config cfg = {},
                      ModelServer::ModelConfig mc = {},
                      net::NetServerConfig ncfg = {})
      : ms([&] {
          if (cfg.workers == 0) cfg.workers = 2;
          return cfg;
        }()) {
    Rng rng(71);
    auto model = toy_model(rng);
    bench::warm_bn(*model, kInC, kHw, rng, /*passes=*/3, /*batch=*/4);
    plan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
    ms.add_model("toy", plan, mc);
    ms.start();
    srv = std::make_unique<net::NetServer>(ms, net::listen_on(0), ncfg);
    loop = std::thread([this] { srv->run(); });
  }

  ~NetHarness() {
    srv->request_drain();
    loop.join();
    ms.stop();
  }

  uint16_t port() const { return srv->port(); }

  net::WireClient client() const {
    net::WireClient c;
    c.connect(port());
    return c;
  }
};

/// Polls `pred` for up to `ms` milliseconds (loop-thread stats land async).
template <typename F>
bool eventually(F pred, int ms = 3000) {
  for (int i = 0; i < ms; i += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::vector<uint8_t> raw_frame(const net::RequestHeader& h,
                               const std::string& name,
                               const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(sizeof(h) + name.size() + payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  std::memcpy(out.data() + sizeof(h), name.data(), name.size());
  if (!payload.empty())
    std::memcpy(out.data() + sizeof(h) + name.size(), payload.data(),
                payload.size());
  return out;
}

net::RequestHeader good_header(uint32_t rows, uint64_t seq,
                               uint64_t deadline_us = kBigBudgetUs) {
  net::RequestHeader h{};
  h.magic = net::kMagic;
  h.version = net::kWireVersion;
  h.model_len = 3;  // "toy"
  h.rows = rows;
  h.seq = seq;
  h.deadline_us = deadline_us;
  h.payload_bytes = static_cast<uint64_t>(rows) * kImageFloats * sizeof(float);
  return h;
}

TEST(NetServer, RoundTripMatchesDirectExecution) {
  NetHarness h;
  ExecContext ref(h.plan);
  Rng rng(72);
  const Tensor x = random_input({3, kInC, kHw, kHw}, rng);
  const Tensor want = ref.run(x);

  net::WireClient c = h.client();
  c.send("toy", /*seq=*/7, kBigBudgetUs, x.data(), 3, kImageFloats);
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.seq, 7u);
  EXPECT_EQ(r.rows, 3u);
  ASSERT_EQ(r.payload.size(), 3 * kClasses);
  for (size_t j = 0; j < want.numel(); ++j)
    EXPECT_EQ(want.at(j), r.payload[j]) << "elem " << j;
}

TEST(NetServer, PipelinedRequestsAllAnsweredWhateverTheOrder) {
  NetHarness h;
  ExecContext ref(h.plan);
  Rng rng(73);
  constexpr size_t kN = 20;
  std::map<uint64_t, Tensor> inputs;
  net::WireClient c = h.client();
  for (uint64_t seq = 0; seq < kN; ++seq) {
    const size_t rows = 1 + seq % kBatch;
    Tensor x = random_input({rows, kInC, kHw, kHw}, rng);
    c.send("toy", seq, kBigBudgetUs, x.data(),
           static_cast<uint32_t>(rows), kImageFloats);
    inputs.emplace(seq, std::move(x));
  }
  for (size_t i = 0; i < kN; ++i) {
    net::WireClient::Response r;
    ASSERT_EQ(c.recv(&r), 1);
    ASSERT_EQ(r.status, net::WireStatus::kOk);
    const auto it = inputs.find(r.seq);
    ASSERT_NE(it, inputs.end()) << "unknown or duplicate seq " << r.seq;
    const Tensor want = ref.run(it->second);
    ASSERT_EQ(r.payload.size(), want.numel());
    for (size_t j = 0; j < want.numel(); ++j)
      EXPECT_EQ(want.at(j), r.payload[j]);
    inputs.erase(it);
  }
  EXPECT_TRUE(inputs.empty());
}

// --- hostile frames -------------------------------------------------------

TEST(NetServer, TruncatedHeaderCountsTruncatedAndCloses) {
  NetHarness h;
  net::WireClient c = h.client();
  const net::RequestHeader hd = good_header(1, 1);
  c.send_raw(&hd, 10);  // 10 of 40 header bytes
  c.shutdown_write();
  net::WireClient::Response r;
  EXPECT_EQ(c.recv(&r), 0);  // no response frame; server closes
  EXPECT_TRUE(eventually([&] { return h.srv->stats().truncated == 1; }));
  EXPECT_EQ(h.srv->stats().submitted, 0u);
}

TEST(NetServer, TruncatedPayloadCountsTruncatedAndCloses) {
  NetHarness h;
  net::WireClient c = h.client();
  const net::RequestHeader hd = good_header(2, 1);
  std::vector<uint8_t> frame =
      raw_frame(hd, "toy", std::vector<uint8_t>(kImageFloats * 4, 0));
  c.send_raw(frame.data(), frame.size());  // one of two promised rows
  c.shutdown_write();
  net::WireClient::Response r;
  EXPECT_EQ(c.recv(&r), 0);
  EXPECT_TRUE(eventually([&] { return h.srv->stats().truncated == 1; }));
}

TEST(NetServer, BadMagicGetsTypedRejectThenClose) {
  NetHarness h;
  net::WireClient c = h.client();
  net::RequestHeader hd = good_header(1, 9);
  hd.magic = 0xDEADBEEFu;
  c.send_raw(&hd, sizeof(hd));
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadMagic);
  EXPECT_EQ(r.seq, 9u);
  EXPECT_EQ(r.message, "bad_magic");
  EXPECT_EQ(c.recv(&r), 0);  // framing-fatal: server closed
  EXPECT_TRUE(eventually([&] { return h.srv->stats().rejected == 1; }));
}

TEST(NetServer, BadVersionGetsTypedRejectThenClose) {
  NetHarness h;
  net::WireClient c = h.client();
  net::RequestHeader hd = good_header(1, 2);
  hd.version = 99;
  c.send_raw(&hd, sizeof(hd));
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadVersion);
  EXPECT_EQ(c.recv(&r), 0);
}

TEST(NetServer, BadModelLenGetsTypedRejectThenClose) {
  NetHarness h;
  net::WireClient c = h.client();
  net::RequestHeader hd = good_header(1, 3);
  hd.model_len = 0;
  c.send_raw(&hd, sizeof(hd));
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadHeader);
  EXPECT_EQ(c.recv(&r), 0);
}

TEST(NetServer, OversizedPayloadGetsTypedRejectThenClose) {
  net::NetServerConfig ncfg;
  ncfg.max_frame_bytes = 1024;  // refuse to buffer more than 1 KiB
  NetHarness h({}, {}, ncfg);
  net::WireClient c = h.client();
  net::RequestHeader hd = good_header(kBatch, 4);  // 6 KiB payload claim
  c.send_raw(&hd, sizeof(hd));
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kTooLarge);
  EXPECT_EQ(c.recv(&r), 0);
}

TEST(NetServer, UnknownModelRejectedButConnectionSurvives) {
  NetHarness h;
  Rng rng(74);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  net::WireClient c = h.client();
  c.send("nope", 1, kBigBudgetUs, x.data(), 1, kImageFloats);
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kUnknownModel);
  // Frame-level reject: the same connection keeps working.
  c.send("toy", 2, kBigBudgetUs, x.data(), 1, kImageFloats);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.seq, 2u);
}

TEST(NetServer, ZeroAndAbsurdDeadlinesRejectedButConnectionSurvives) {
  NetHarness h;
  Rng rng(75);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  net::WireClient c = h.client();
  c.send("toy", 1, /*deadline_us=*/0, x.data(), 1, kImageFloats);
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadDeadline);
  c.send("toy", 2, net::kMaxDeadlineUs + 1, x.data(), 1, kImageFloats);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadDeadline);
  c.send("toy", 3, kBigBudgetUs, x.data(), 1, kImageFloats);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
}

TEST(NetServer, BadShapesRejectedButConnectionSurvives) {
  NetHarness h;
  Rng rng(76);
  net::WireClient c = h.client();
  net::WireClient::Response r;

  // rows = 0.
  net::RequestHeader hd = good_header(0, 1);
  c.send_raw(raw_frame(hd, "toy", {}).data(), sizeof(hd) + 3);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadShape);

  // rows above the plan's batch capacity.
  const std::vector<float> big((kBatch + 1) * kImageFloats, 0.5f);
  c.send("toy", 2, kBigBudgetUs, big.data(),
         static_cast<uint32_t>(kBatch + 1), kImageFloats);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadShape);

  // payload_bytes inconsistent with rows.
  hd = good_header(2, 3);
  hd.payload_bytes = kImageFloats * sizeof(float);  // one row's worth
  const std::vector<uint8_t> pay(kImageFloats * sizeof(float), 0);
  const auto frame = raw_frame(hd, "toy", pay);
  c.send_raw(frame.data(), frame.size());
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kBadShape);

  // And the connection still serves.
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  c.send("toy", 4, kBigBudgetUs, x.data(), 1, kImageFloats);
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
}

TEST(NetServer, QueueFullSurfacesAsTypedRejectAndConnectionSurvives) {
  ModelServer::Config cfg;
  cfg.start_paused = true;  // nothing drains while we overfill
  ModelServer::ModelConfig mc;
  mc.max_queue = 1;  // admission rejects the second request
  NetHarness h(cfg, mc);
  Rng rng(77);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  net::WireClient c = h.client();
  c.send("toy", 1, kBigBudgetUs, x.data(), 1, kImageFloats);
  c.send("toy", 2, kBigBudgetUs, x.data(), 1, kImageFloats);
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kQueueFull);
  EXPECT_EQ(r.seq, 2u);
  h.ms.resume();
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.seq, 1u);
}

// --- deadline propagation -------------------------------------------------

TEST(NetServer, WireBudgetSmallerThanQueueWaitExpiresTyped) {
  ModelServer::Config cfg;
  cfg.start_paused = true;  // pin the request in the queue past its budget
  NetHarness h(cfg);
  Rng rng(78);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  net::WireClient c = h.client();
  c.send("toy", 1, /*deadline_us=*/30'000, x.data(), 1, kImageFloats);
  EXPECT_TRUE(eventually([&] { return h.srv->stats().submitted == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  h.ms.resume();
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kDeadlineExpired);
  EXPECT_EQ(r.seq, 1u);
  EXPECT_GE(h.ms.stats("toy").expired, 1u);  // ServeStats ticked too
  EXPECT_TRUE(eventually([&] { return h.srv->stats().shed == 1; }));
}

TEST(NetServer, TimeOnWireComesOutOfTheBudget) {
  NetHarness h;
  net::WireClient c = h.client();
  // Send the header + name of a frame with a 50 ms budget, then stall
  // longer than the budget before delivering the payload.
  const net::RequestHeader hd = good_header(1, 1, /*deadline_us=*/50'000);
  const auto head = raw_frame(hd, "toy", {});
  c.send_raw(head.data(), head.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const std::vector<uint8_t> pay(kImageFloats * sizeof(float), 0);
  c.send_raw(pay.data(), pay.size());
  net::WireClient::Response r;
  ASSERT_EQ(c.recv(&r), 1);
  EXPECT_EQ(r.status, net::WireStatus::kDeadlineExpired);
  // Never reached the ModelServer: rejected at the front door.
  EXPECT_EQ(h.srv->stats().submitted, 0u);
  EXPECT_EQ(h.ms.stats("toy").requests, 0u);
}

// --- drain ----------------------------------------------------------------

TEST(NetServer, DrainAnswersEveryAcceptedRequestThenRefusesNew) {
  ModelServer::Config cfg;
  cfg.start_paused = true;  // stage a backlog, then drain through it
  NetHarness h(cfg);
  Rng rng(79);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  constexpr uint64_t kN = 6;
  net::WireClient c = h.client();
  for (uint64_t seq = 0; seq < kN; ++seq)
    c.send("toy", seq, kBigBudgetUs, x.data(), 1, kImageFloats);
  ASSERT_TRUE(eventually([&] { return h.srv->stats().submitted == kN; }));

  h.srv->request_drain();
  h.ms.resume();
  // Every accepted request is answered, then the connection closes.
  size_t got = 0;
  net::WireClient::Response r;
  while (c.recv(&r) == 1) {
    EXPECT_EQ(r.status, net::WireStatus::kOk);
    ++got;
  }
  EXPECT_EQ(got, kN);

  const net::NetStats st = h.srv->stats();
  EXPECT_EQ(st.submitted, kN);
  EXPECT_EQ(st.ok, kN);
  EXPECT_EQ(st.responses(), kN);
  EXPECT_EQ(st.submitted, st.ok + st.shed + st.orphaned);  // drain identity

  // The listen socket is gone: new connections are refused.
  net::WireClient fresh;
  EXPECT_THROW(fresh.connect(h.port()), net::NetError);
}

TEST(NetServer, ClientVanishingMidRequestCountsOrphaned) {
  ModelServer::Config cfg;
  cfg.start_paused = true;
  NetHarness h(cfg);
  Rng rng(80);
  const Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  net::WireClient c = h.client();
  c.send("toy", 1, kBigBudgetUs, x.data(), 1, kImageFloats);
  ASSERT_TRUE(eventually([&] { return h.srv->stats().submitted == 1; }));
  c.hard_close();  // RST: the client vanishes before the answer exists
  // Give the loop a beat to reap the reset connection before the result
  // lands, so the completion has no connection to go to.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  h.ms.resume();
  EXPECT_TRUE(eventually([&] { return h.srv->stats().orphaned == 1; }));
  const net::NetStats st = h.srv->stats();
  EXPECT_EQ(st.submitted, st.ok + st.shed + st.orphaned);
}

TEST(NetServer, ConcurrentClientsAllServed) {
  NetHarness h;
  constexpr size_t kClients = 4, kPer = 10;
  std::vector<std::thread> threads;
  std::atomic<size_t> ok{0};
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(90 + t);
      net::WireClient c;
      c.connect(h.port());
      for (uint64_t seq = 0; seq < kPer; ++seq) {
        const size_t rows = 1 + (t + seq) % kBatch;
        const Tensor x = random_input({rows, kInC, kHw, kHw}, rng);
        c.send("toy", seq, kBigBudgetUs, x.data(),
               static_cast<uint32_t>(rows), kImageFloats);
        net::WireClient::Response r;
        if (c.recv(&r) == 1 && r.status == net::WireStatus::kOk &&
            r.seq == seq && r.rows == rows) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kClients * kPer);
  const net::NetStats st = h.srv->stats();
  EXPECT_EQ(st.connections, kClients);
  EXPECT_EQ(st.ok, kClients * kPer);
}

}  // namespace
}  // namespace alf
