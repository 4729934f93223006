#pragma once
// Fleet worker — the child-process half of the sweep fleet
// (docs/SERVICE.md). A worker is the HOST BINARY re-exec'd with a
// single argument, "--fleet-worker=IDX,RFD,WFD": the coordinator
// fork/execs /proc/self/exe, so worker and coordinator are always the
// same build with the same kernels, and the front door of every
// fleet-capable main() is one maybe_run_worker(argc, argv) call before
// any other flag parsing.
//
// Every frame on the pipes, from the first, is a binary-codec message
// (protocol.hpp): worker and coordinator are one build, so there is
// nothing to negotiate.
//
// The worker serves a serial loop over an FdTransport: recv one
// request, answer it, repeat, until a shutdown op or EOF. The
// coordinator may pipeline up to its credit window of requests into
// the pipe; the worker answers them strictly in arrival order. Two ops
// do work:
//
//   run   one trial, the derived seed in the request — the execution
//         backend for a fleet-backed service daemon's miss batches;
//   cell  `trials` repetitions of one sweep cell from the BASE seed
//         (repetition r uses derive_seed(seed, trial0 + r)). Each cell
//         executes under a FRESH MetricsRegistry + TelemetryObserver,
//         and the response carries that per-cell snapshot in wire form.
//         Per-cell isolation is what makes crash recovery exact: a
//         dead worker's registry is unreachable, but every answered
//         cell already shipped its telemetry, so the coordinator's
//         commutative merge over one snapshot per cell reproduces the
//         cumulative block a single process would have written.
//
// Cells are optionally memoized in a shared content-addressed
// ResultCache (PARBOUNDS_FLEET_CACHE_DIR/_BYTES, exported by the
// coordinator): payload = the per-repetition costs plus the telemetry
// wire, keyed by the cell's canonical request, so a warm hit restores
// the metrics block exactly as if the kernels had run.
//
// Fault-injection knobs for the retry machinery's tests (read once at
// startup; "W:K" = worker index W, 1-based request ordinal K):
//   PARBOUNDS_FLEET_CRASH  raise SIGKILL on receiving the K-th
//                          run/cell request — a genuine mid-sweep kill;
//   PARBOUNDS_FLEET_HANG   sleep forever instead of answering it (the
//                          per-cell deadline path).

#include <string>
#include <string_view>
#include <vector>

namespace parbounds::fleet {

inline constexpr const char* kWorkerFlagPrefix = "--fleet-worker=";
inline constexpr const char* kCacheDirEnv = "PARBOUNDS_FLEET_CACHE_DIR";
inline constexpr const char* kCacheBytesEnv = "PARBOUNDS_FLEET_CACHE_BYTES";
inline constexpr const char* kCrashEnv = "PARBOUNDS_FLEET_CRASH";
inline constexpr const char* kHangEnv = "PARBOUNDS_FLEET_HANG";
/// Serve fleet requests on (rfd, wfd) until shutdown or EOF. Returns
/// the process exit code (0 = clean shutdown/EOF).
int worker_main(unsigned index, int rfd, int wfd);

/// Parse "--fleet-worker=IDX,RFD,WFD".
bool parse_worker_token(std::string_view token, unsigned& index, int& rfd,
                        int& wfd);

/// The fleet-capable front door: when argv[1] is a worker token, run
/// worker_main and EXIT THE PROCESS; otherwise return. Call first in
/// main(), before any other argv or flag handling.
void maybe_run_worker(int argc, char** argv);

/// Cell cache payload codec: "<c1>,<c2>,...\n<telemetry wire>" with
/// costs as %.17g (exact double round trip). Exposed for tests.
std::string encode_cell_payload(const std::vector<double>& costs,
                                const std::string& telemetry);
bool decode_cell_payload(std::string_view payload,
                         std::vector<double>& costs, std::string& telemetry);

}  // namespace parbounds::fleet
