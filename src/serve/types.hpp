// Shared vocabulary of the serving layer: typed overload/deadline errors,
// shed policies, the per-model statistics snapshot, and the internal
// request record the queue/scheduler/dispatch layers pass around.
//
// The serving stack is built in layers on the Plan/ExecContext split
// (engine/plan.hpp):
//
//   types.hpp        — this file: errors, policies, stats, Request
//   model_queue.hpp  — per-model bounded queue + batch former (no locking
//                      of its own; runs under the server's mutex)
//   scheduler.hpp    — weighted fair pick across backlogged models
//   model_server.hpp — the registry + shared worker pool tying them together
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace alf {

/// Typed overload signal: submit() found the queue at max_queue (policy
/// kReject), or the request was the oldest in a full queue and got shed
/// (policy kDropOldest; delivered through the error callback / future).
/// Deliberately NOT a CheckError — overload is an operating condition the
/// caller handles (shed, retry with backoff, degrade), not a programming
/// error.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Typed latency-SLO signal: the request's deadline_us budget expired
/// before batch formation, so the server shed it instead of spending
/// engine time on a result the client has already given up on. Like
/// QueueFullError this is an operating condition, not misuse.
class DeadlineExpiredError : public std::runtime_error {
 public:
  explicit DeadlineExpiredError(const std::string& what)
      : std::runtime_error(what) {}
};

/// What to do with a submit() that finds the queue at max_queue.
enum class ShedPolicy {
  kReject,      ///< fail the NEW request fast with QueueFullError
  kDropOldest,  ///< admit it; shed the OLDEST queued request instead (its
                ///< future/error callback completes with QueueFullError)
};

/// Per-model serving counters. stats() returns one struct copied under the
/// server's single queue mutex, so every snapshot is coherent: the
/// conservation identity
///
///   accepted == completed + dropped_oldest + expired + queued + in_flight
///
/// holds exactly at every instant (and rejected counts submits that never
/// entered the queue at all). Dispatch counters (requests/images/batches)
/// are aggregated at batch-formation time, so they are final for a request
/// as soon as its result is delivered.
struct ServeStats {
  // Admission.
  size_t accepted = 0;        ///< submits that entered the queue
  size_t rejected = 0;        ///< submits refused by admission control
  size_t dropped_oldest = 0;  ///< queued requests shed by kDropOldest
  size_t expired = 0;         ///< queued requests shed by their deadline

  // Dispatch.
  size_t requests = 0;      ///< requests dispatched to the engine
  size_t images = 0;        ///< images dispatched
  size_t batches = 0;       ///< engine invocations
  size_t full_batches = 0;  ///< invocations that filled the plan batch
  size_t max_fill = 0;      ///< largest images-per-invocation seen

  // Lifecycle (snapshot fields of the conservation identity).
  size_t completed = 0;  ///< requests whose completion callback has fired
  size_t in_flight = 0;  ///< popped for dispatch, result not yet delivered
  size_t queued = 0;     ///< requests waiting in the queue right now

  /// Mean images per engine invocation (0 before the first dispatch).
  double avg_fill() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(images) /
                              static_cast<double>(batches);
  }
};

/// Receives the per-request logits [n, classes] on a worker thread.
using ServeCallback = std::function<void(Tensor&&)>;

/// Receives the typed error when the server sheds an accepted request
/// (QueueFullError under kDropOldest, DeadlineExpiredError past the SLO).
/// Optional on the callback submit path; the future path always wires it.
using ServeErrorCallback = std::function<void(std::exception_ptr)>;

namespace serve {

/// One accepted request as it moves queue -> batch -> delivery.
struct Request {
  Tensor x;
  size_t n = 0;  ///< images in x
  ServeCallback done;
  ServeErrorCallback fail;  ///< may be null (callback submits without one)
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
};

}  // namespace serve
}  // namespace alf
