// In-memory spans of the traced mode: recorded around the benchmark's own
// calls into each layer, kept per thread, merged at thread end, written as
// CSV when the run ends. With tracing off nothing is recorded.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace alfbench {

using Clock = std::chrono::steady_clock;

/// Span kinds. A span's id is (request id << 4) | kind, so spans of one
/// request share the request id and find their parent without a lookup.
enum SpanKind : uint64_t {
  kSpanRequest = 1,  ///< wire: send start -> response read
  kSpanSend = 3,     ///< wire: WireClient::send
  kSpanWait = 4,     ///< wire: send done -> response read
  kSpanCheck = 5,    ///< oracle check of the returned rows
  kSpanSojourn = 6,  ///< in process: ModelServer::submit -> callback
  kSpanRun = 7,      ///< engine: one ExecContext::run_rows
};

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;  ///< 0 = root
  uint64_t req;
  int64_t start_ns;
  int64_t end_ns;
};

class Trace {
 public:
  explicit Trace(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }

  /// Appends one span to a thread-local buffer `buf` (no-op when off).
  void span(std::vector<Span>& buf, const char* name, SpanKind kind,
            SpanKind parent, uint64_t req, Clock::time_point t0,
            Clock::time_point t1) const {
    if (!on_) return;
    buf.push_back({name, (req << 4) | kind,
                   parent == 0 ? 0 : (req << 4) | parent, req, ns(t0),
                   ns(t1)});
  }

  /// Merges a thread's buffer into the trace.
  void merge(std::vector<Span>& buf) {
    if (!on_ || buf.empty()) return;
    std::lock_guard<std::mutex> lock(m_);
    spans_.insert(spans_.end(), buf.begin(), buf.end());
    buf.clear();
  }

  size_t size() const { return spans_.size(); }

  /// Writes "id,parent,req,name,start_ns,end_ns" rows; false on I/O error.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,req,name,start_ns,end_ns\n");
    for (const Span& s : spans_)
      std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

 private:
  int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::mutex m_;
  std::vector<Span> spans_;
};

}  // namespace alfbench
