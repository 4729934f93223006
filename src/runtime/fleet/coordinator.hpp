#pragma once
// FleetCoordinator — the parent half of the sweep fleet
// (docs/SERVICE.md). It fork/execs N copies of the host binary
// (/proc/self/exe) as workers (worker.hpp), streams requests and
// responses over per-worker pipe pairs — binary-codec messages
// (protocol.hpp) in the service's length-prefixed frames — and returns
// responses in request order.
//
// Placement follows the static partition (partition.hpp): request i is
// initially assigned to owner_of(total, workers, i). Each worker holds
// a CREDIT WINDOW of up to `window` requests in flight (default 8), so
// a small-cell sweep pays one pipe round-trip per WINDOW instead of
// one per cell — the BSP lesson (PAPER.md) that latency `L` charges
// per superstep, not per message. Workers answer strictly in dispatch
// order (a worker is a serial loop), and responses land in `out` by
// request index — the partition placement — never by arrival order, so
// windowing cannot change a single report byte. The coordinator stays
// a single poll() loop on the caller's thread (no coordinator threads
// to sanitize); request pipes are non-blocking and pending frames are
// batched through one writev(2) per poll iteration (transport.hpp
// WriteQueue), with buffers recycled rather than reallocated.
//
// Spawning only forks: the constructor never waits for a worker to
// exec. A worker that fails to exec, or dies before its first answer,
// surfaces like any later crash — EOF on its response pipe or a failed
// request write.
//
// Failure handling. Three signals mean a dead or wedged worker: its
// response pipe reaches EOF (clean or mid-frame — a crash leaves a
// partial frame), a write to its request pipe fails, or the HEAD of
// its in-flight window exceeds the per-request deadline (the worker is
// then SIGKILLed). On death the worker is reaped (exit status
// collected), EVERY in-flight request of its window is RETRIED on
// surviving workers — bounded by max_attempts per request — and its
// queued requests are REASSIGNED round-robin over survivors. Requests
// are pure functions of their content, so a retried request returns
// the same bytes any attempt would have; a typed Error response from a
// live worker is final and never retried (it is deterministic too).
// When every worker is dead and work remains, run_requests throws.
//
// Observability: a private MetricsRegistry (the SweepService
// discipline — never the bench session's, so fleet reports carry
// exactly the in-process metric families) with counters
// fleet.worker.spawn / fleet.worker.exit / fleet.worker.retry /
// fleet.worker.reassign, data-plane traffic counters fleet.bytes_tx /
// fleet.bytes_rx / fleet.frames_tx / fleet.frames_rx, a
// fleet.window.depth high-water gauge (deepest in-flight window
// observed), plus fleet.run / fleet.spawn / fleet.retry spans through
// the process tracer.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/fleet/transport.hpp"
#include "runtime/sweep_service/protocol.hpp"

namespace parbounds::fleet {

struct FleetConfig {
  unsigned workers = 1;
  /// Shared content-addressed cell cache directory, exported to the
  /// workers' environment; empty = no cache.
  std::string cache_dir;
  std::uint64_t cache_bytes = 0;  ///< cache bound; 0 = library default
  /// Execution attempts per request before it becomes a typed error.
  unsigned max_attempts = 3;
  /// Per-request deadline in milliseconds, applied to the HEAD of each
  /// worker's in-flight window; a worker that exceeds it is SIGKILLed
  /// and its whole window retried. 0 disables the deadline.
  int request_deadline_ms = 0;
  /// Credit window: in-flight requests per worker (>= 1). 1 is
  /// lock-step (one round-trip per request); 8 keeps a small-cell pipe
  /// busy.
  unsigned window = 8;
};

class FleetCoordinator {
 public:
  explicit FleetCoordinator(FleetConfig cfg);
  ~FleetCoordinator();  ///< shuts down (or kills) every live worker

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Drive every request to a final response (Ok or Error), in request
  /// order. Callable repeatedly; workers persist across calls. Throws
  /// std::runtime_error only when the fleet itself is unusable (all
  /// workers dead with work outstanding).
  std::vector<service::Response> run_requests(
      std::vector<service::Request> reqs);

  unsigned workers() const { return cfg_.workers; }
  unsigned window() const { return cfg_.window; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Convenience: current value of one fleet.* counter or gauge.
  std::uint64_t counter(const std::string& name) const;

 private:
  struct Worker {
    pid_t pid = -1;
    int to_fd = -1;    ///< coordinator -> worker requests (O_NONBLOCK)
    int from_fd = -1;  ///< worker -> coordinator responses
    service::FrameDecoder decoder;
    bool alive = false;
    std::deque<std::size_t> queue;     ///< assigned, not yet sent
    std::deque<std::size_t> inflight;  ///< sent, unanswered (FIFO)
    /// Deadline for inflight.front(); armed when a request reaches the
    /// head of the window (sent into an empty window, or promoted when
    /// its predecessor's response arrives).
    std::uint64_t head_deadline_ns = 0;
    WriteQueue outq;  ///< pending request frames, flushed via writev
  };

  bool spawn(unsigned slot);
  unsigned alive_count() const;

  FleetConfig cfg_;
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::Id spawn_id_, exit_id_, retry_id_, reassign_id_;
  obs::MetricsRegistry::Id bytes_tx_id_, bytes_rx_id_;
  obs::MetricsRegistry::Id frames_tx_id_, frames_rx_id_;
  obs::MetricsRegistry::Id window_depth_id_;
  std::vector<Worker> workers_;
  std::string encode_scratch_;  ///< reused request-payload buffer
};

}  // namespace parbounds::fleet
