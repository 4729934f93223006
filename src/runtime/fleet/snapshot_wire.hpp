#pragma once
// Wire form of a MetricsSnapshot, carried inside cell responses
// (docs/SERVICE.md). JSON's to_json() is a one-way rendering — it drops
// the flat registration order merge_from() keys on — so the fleet ships
// snapshots in a trivially invertible line format instead:
//
//   c <name> <value>;g <name> <value>;h <name> <b1,b2,..> <c1,c2,..>;
//
// one record per metric, in registration order, every number a decimal
// u64. The format is strict the same way the service codec is: unknown
// record kinds, malformed numbers, bucket/bound arity mismatches and
// trailing bytes are all typed decode errors. Two workers running the
// same TelemetryObserver construction encode snapshots with identical
// record sequences, which is the precondition merge_from() checks.
//
// The same bytes travel on the fleet's binary wire (as the telemetry
// field of a cell response) and sit in the shared cell cache, where
// entries stay human-readable (docs/SERVICE.md#fleet).

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace parbounds::fleet {

std::string encode_snapshot(const obs::MetricsSnapshot& snap);

/// Strict decode; on failure returns false and sets `err`. An empty
/// string decodes to an empty snapshot.
bool decode_snapshot(std::string_view wire, obs::MetricsSnapshot& out,
                     std::string& err);

}  // namespace parbounds::fleet
