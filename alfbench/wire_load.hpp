// Closed-loop load over the ALFN wire (one process, two connections) and
// the same load replayed in process against a ModelServer, for the sojourn
// numbers of the traced mode. Every returned row is checked by the oracle
// of the model it came from.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "models.hpp"
#include "serve/model_server.hpp"
#include "trace.hpp"

namespace alfbench {

/// Connections (and client threads) the load generator uses.
constexpr size_t kConns = 2;

/// The two served models of a workload: index 0 float, 1 int8.
struct Served {
  std::array<std::string, 2> name;
  std::array<const Oracle*, 2> oracle;
};

/// Closed loop: each connection alternates the float and the int8 model
/// (connection 1 starts with int8), every request the kBatch pool images
/// from a seeded batch_start. Runs whole float+int8 rounds until
/// `seconds` have passed.
struct ClosedPlan {
  uint64_t seed = 0;
  double seconds = 0.0;
};

/// One verified request's latency, stamped with its send instant.
struct Sample {
  double t_s;     ///< send instant, seconds from the start
  double ms;      ///< latency
  uint8_t model;  ///< 0 float, 1 int8
};

struct LoadResult {
  size_t sent = 0;
  size_t ok = 0;            ///< answered kOk and every row verified
  size_t error_frames = 0;  ///< typed error answers
  size_t mismatched = 0;    ///< kOk answers with a row the oracle rejected
  size_t unanswered = 0;    ///< no answer before the give-up horizon
  size_t images_ok = 0;
  double elapsed_s = 0.0;   ///< start of the phase -> last response
  std::vector<Sample> lat;  ///< verified requests, both models
  /// Response read -> next send start on a connection: the generator's
  /// own delay between requests.
  std::vector<double> late_ms;
  uint64_t req_bytes = 0;   ///< wire bytes of every request sent
  uint64_t resp_bytes = 0;  ///< wire bytes of every kOk response

  size_t failed() const { return error_frames + mismatched + unanswered; }
};

/// A wire run: the first `warm_s` seconds warm the connections, the
/// daemon and its contexts with the same traffic and are verified but kept
/// out of the metrics; the rest is the measured phase.
struct WireRun {
  LoadResult warm;
  LoadResult measured;
};
/// The measured phase runs `p.seconds` after the warm phase.
WireRun run_closed_wire(uint16_t port, const ClosedPlan& p, double warm_s,
                        const Served& served, const ImagePool& pool,
                        Trace& trace);

/// One 32-image request per model on each connection, concurrently, so
/// both daemon workers touch their full-batch contexts before the warm
/// phase: the peak RSS then does not depend on the largest batch a run
/// happens to form. Verified like measured requests.
LoadResult touch_full_batches(uint16_t port, const Served& served,
                              const ImagePool& pool);

/// In-process replay: the same closed loop submitted straight to
/// `server`, with the same warm phase (kept out of the result), for
/// p.seconds of measured rounds; latencies are submit -> result sojourns.
LoadResult replay_closed(alf::ModelServer& server, const ClosedPlan& p,
                         double warm_s, const Served& served,
                         const ImagePool& pool, Trace& trace);

/// Wire size of one request / one kOk response frame.
uint64_t request_bytes(const std::string& model, size_t rows);
uint64_t response_bytes(size_t rows, size_t classes);

}  // namespace alfbench
