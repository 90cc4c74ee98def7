#include "wire_load.hpp"

#include <algorithm>
#include <future>
#include <thread>

#include "core/rng.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"

namespace alfbench {

using alf::Rng;
using alf::net::WireClient;
using alf::net::WireStatus;

namespace {

/// Wire budget stamped on every request: far above any latency the
/// workloads reach, so no request is shed for its deadline.
constexpr uint64_t kDeadlineUs = 30ull * 1000 * 1000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Verifies a kOk answer to the `rows` pool images from image `first` on;
/// counts it into `res`. Returns true when every row matched.
bool verify(const WireClient::Response& r, const Oracle& oracle,
            size_t first, size_t rows, LoadResult& res) {
  const bool good = r.rows == rows &&
                    r.payload.size() == rows * oracle.classes() &&
                    oracle.check(first, rows, r.payload.data());
  if (good) {
    res.ok++;
    res.images_ok += rows;
  } else {
    res.mismatched++;
  }
  return good;
}

void merge_into(LoadResult& dst, const LoadResult& src) {
  dst.sent += src.sent;
  dst.ok += src.ok;
  dst.error_frames += src.error_frames;
  dst.mismatched += src.mismatched;
  dst.unanswered += src.unanswered;
  dst.images_ok += src.images_ok;
  dst.req_bytes += src.req_bytes;
  dst.resp_bytes += src.resp_bytes;
  dst.lat.insert(dst.lat.end(), src.lat.begin(), src.lat.end());
  dst.late_ms.insert(dst.late_ms.end(), src.late_ms.begin(),
                     src.late_ms.end());
}

/// Closed-loop request k on connection c: its model, its first pool image
/// and its packed input rows.
struct ClosedRequest {
  uint8_t model;
  size_t first;
  std::vector<float> rows;
};

ClosedRequest closed_request(size_t c, size_t k, Rng& rng,
                             const ImagePool& pool) {
  ClosedRequest q;
  q.model = static_cast<uint8_t>((k + c) % 2);
  q.first = batch_start(pool, rng.uniform_index(kBatchOffsets));
  q.rows.resize(kBatch * kImageFloats);
  for (size_t r = 0; r < kBatch; ++r) {
    const float* img = pool.image((q.first + r) % pool.n);
    std::copy(img, img + kImageFloats, q.rows.data() + r * kImageFloats);
  }
  return q;
}

uint64_t closed_seed(uint64_t seed, size_t c) {
  return seed * 0x9E3779B97F4A7C15ull + 1000 + c;
}

}  // namespace

uint64_t request_bytes(const std::string& model, size_t rows) {
  return sizeof(alf::net::RequestHeader) + model.size() +
         rows * kImageFloats * sizeof(float);
}

uint64_t response_bytes(size_t rows, size_t classes) {
  return sizeof(alf::net::ResponseHeader) + rows * classes * sizeof(float);
}

WireRun run_closed_wire(uint16_t port, const ClosedPlan& p, double warm_s,
                        const Served& served, const ImagePool& pool,
                        Trace& trace) {
  std::vector<WireRun> part(kConns);
  std::vector<WireClient> clients(kConns);
  for (WireClient& c : clients) c.connect(port);
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from = start + secs(warm_s);
  const Clock::time_point end = measure_from + secs(p.seconds);
  std::vector<Clock::time_point> first(kConns, end), last(kConns, end);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Span> spans;
      Rng rng(closed_seed(p.seed, c));
      Clock::time_point prev = start;
      bool alive = true;
      for (size_t k = 0; alive && Clock::now() < end;) {
        // One float+int8 round; rounds that start before measure_from
        // warm the connection, the daemon and its contexts.
        const bool warm = Clock::now() < measure_from;
        LoadResult& res = warm ? part[c].warm : part[c].measured;
        for (int half = 0; half < 2; ++half, ++k) {
          const ClosedRequest q = closed_request(c, k, rng, pool);
          const uint64_t id = (static_cast<uint64_t>(c) << 32) | k;
          const std::string& name = served.name[q.model];
          const Clock::time_point s0 = Clock::now();
          if (!warm && res.sent > 0) res.late_ms.push_back(ms_between(prev, s0));
          if (!warm && res.sent == 0) first[c] = s0;
          res.sent++;
          try {
            clients[c].send(name, id, kDeadlineUs, q.rows.data(), kBatch,
                            kImageFloats);
          } catch (const std::exception&) {
            res.unanswered++;
            alive = false;
            break;
          }
          const Clock::time_point s1 = Clock::now();
          res.req_bytes += request_bytes(name, kBatch);
          WireClient::Response r;
          int rc = -1;
          try {
            rc = clients[c].recv(&r, /*timeout_ms=*/30'000);
          } catch (const alf::net::WireError&) {
          }
          const Clock::time_point t = Clock::now();
          prev = t;
          if (!warm) last[c] = t;
          if (rc != 1 || r.seq != id) {
            res.unanswered++;
            alive = false;
            break;
          }
          if (r.status != WireStatus::kOk) {
            res.error_frames++;
            continue;
          }
          const Oracle& oracle = *served.oracle[q.model];
          res.resp_bytes += response_bytes(r.rows, oracle.classes());
          if (!verify(r, oracle, q.first, kBatch, res) || warm)
            continue;
          trace.span(spans, "wire.send", kSpanSend, kSpanRequest, id, s0, s1);
          trace.span(spans, "wire.wait", kSpanWait, kSpanRequest, id, s1, t);
          trace.span(spans, "oracle.check", kSpanCheck, kSpanRequest, id, t,
                     Clock::now());
          trace.span(spans, "wire.request", kSpanRequest, SpanKind{0}, id, s0,
                     t);
          res.lat.push_back({ms_between(start, s0) / 1e3, ms_between(s0, t),
                             q.model});
        }
      }
      trace.merge(spans);
    });
  }
  for (std::thread& th : threads) th.join();
  WireRun run;
  for (const WireRun& part_run : part) {
    merge_into(run.warm, part_run.warm);
    merge_into(run.measured, part_run.measured);
  }
  run.measured.elapsed_s =
      std::chrono::duration<double>(*std::max_element(last.begin(), last.end()) -
                                    *std::min_element(first.begin(), first.end()))
          .count();
  return run;
}

LoadResult touch_full_batches(uint16_t port, const Served& served,
                              const ImagePool& pool) {
  std::vector<LoadResult> part(kConns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& res = part[c];
      Rng rng(closed_seed(0, c));
      try {
        WireClient cl;
        cl.connect(port);
        for (size_t k = 0; k < 2; ++k) {
          const ClosedRequest q = closed_request(c, k, rng, pool);
          res.sent++;
          cl.send(served.name[q.model], k, kDeadlineUs, q.rows.data(), kBatch,
                  kImageFloats);
          WireClient::Response r;
          if (cl.recv(&r, 30'000) != 1) {
            res.unanswered++;
            break;
          }
          if (r.status != WireStatus::kOk)
            res.error_frames++;
          else
            verify(r, *served.oracle[q.model], q.first, kBatch, res);
        }
      } catch (const std::exception&) {
      }
      res.unanswered = res.sent - res.ok - res.error_frames - res.mismatched;
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult res;
  for (const LoadResult& p : part) merge_into(res, p);
  return res;
}

LoadResult replay_closed(alf::ModelServer& server, const ClosedPlan& p,
                         double warm_s, const Served& served,
                         const ImagePool& pool, Trace& trace) {
  std::vector<LoadResult> part(kConns), warm_part(kConns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_from = start + secs(warm_s);
  const Clock::time_point end = measure_from + secs(p.seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Span> spans;
      Rng rng(closed_seed(p.seed, c));
      for (size_t k = 0; Clock::now() < end;) {
        const bool warm = Clock::now() < measure_from;
        LoadResult& res = warm ? warm_part[c] : part[c];
        for (int half = 0; half < 2; ++half, ++k) {
          ClosedRequest q = closed_request(c, k, rng, pool);
          alf::Tensor x(alf::Shape{kBatch, kInC, kHw, kHw}, std::move(q.rows));
          res.sent++;
          const Clock::time_point t0 = Clock::now();
          alf::Tensor y;
          try {
            y = server.submit(served.name[q.model], std::move(x)).get();
          } catch (const std::exception&) {
            res.error_frames++;
            continue;
          }
          const Clock::time_point t1 = Clock::now();
          const Oracle& oracle = *served.oracle[q.model];
          if (y.numel() != kBatch * oracle.classes() ||
              !oracle.check(q.first, kBatch, y.data())) {
            res.mismatched++;
            continue;
          }
          res.ok++;
          res.images_ok += kBatch;
          if (warm) continue;
          res.lat.push_back({ms_between(start, t0) / 1e3, ms_between(t0, t1),
                             q.model});
          trace.span(spans, "serve.sojourn", kSpanSojourn, SpanKind{0},
                     (1ull << 40) | (static_cast<uint64_t>(c) << 32) | k, t0,
                     t1);
        }
      }
      trace.merge(spans);
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult res;
  for (const LoadResult& part_res : part) merge_into(res, part_res);
  for (const LoadResult& part_res : warm_part)
    res.mismatched += part_res.failed();  // a failed warm request fails too
  return res;
}

}  // namespace alfbench
