#include "runtime/sweep_service/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "runtime/bench_json.hpp"
#include "util/sha256.hpp"

namespace parbounds::service {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Strict single-message scanner. Every helper returns false after
/// recording the first error with its byte offset; callers propagate.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& m) {
    if (err.empty()) err = m + " at byte " + std::to_string(pos);
    return false;
  }
  void ws() {
    while (pos < s.size() && is_ws(s[pos])) ++pos;
  }
  bool expect(char c) {
    ws();
    if (pos >= s.size() || s[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }
  bool peek_is(char c) {
    ws();
    return pos < s.size() && s[pos] == c;
  }
  bool at_end() {
    ws();
    return pos == s.size();
  }

  bool hex4(unsigned& out) {
    out = 0;
    for (unsigned i = 0; i < 4; ++i) {
      if (pos >= s.size()) return fail("truncated \\u escape");
      const char c = s[pos++];
      unsigned digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
      else return fail("bad hex digit in \\u escape");
      out = out * 16 + digit;
    }
    return true;
  }

  bool string_value(std::string& out) {
    out.clear();
    if (!expect('"')) return false;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos];
      if (c == '\\') {
        ++pos;
        if (pos >= s.size()) return fail("truncated escape");
        switch (s[pos]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            ++pos;
            unsigned code = 0;
            if (!hex4(code)) return false;
            if (code > 0xFF)
              return fail("\\u escape above 0x00ff is not supported");
            out += static_cast<char>(code);
            continue;  // hex4 already advanced pos
          }
          default: return fail("unknown escape");
        }
        ++pos;
      } else {
        out += c;
        ++pos;
      }
    }
    if (pos >= s.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  bool u64_value(std::uint64_t& out) {
    ws();
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
    if (pos == start) return fail("expected unsigned integer");
    const auto res = std::from_chars(s.data() + start, s.data() + pos, out);
    if (res.ec != std::errc() || res.ptr != s.data() + pos)
      return fail("unsigned integer out of range");
    return true;
  }

  bool double_value(double& out) {
    ws();
    const std::size_t start = pos;
    while (pos < s.size() &&
           (s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' ||
            (s[pos] >= '0' && s[pos] <= '9')))
      ++pos;
    if (pos == start) return fail("expected number");
    const auto res = std::from_chars(s.data() + start, s.data() + pos, out);
    if (res.ec != std::errc() || res.ptr != s.data() + pos)
      return fail("malformed number");
    return true;
  }

  bool bool_value(bool& out) {
    ws();
    if (s.compare(pos, 4, "true") == 0) {
      out = true;
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      out = false;
      pos += 5;
      return true;
    }
    return fail("expected boolean");
  }

  /// Copy one balanced JSON value verbatim (used for the opaque stats
  /// block). Tracks string state so braces inside strings don't count.
  bool raw_value(std::string& out) {
    ws();
    const std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    while (pos < s.size()) {
      const char c = s[pos];
      if (in_string) {
        if (c == '\\') {
          ++pos;
          if (pos >= s.size()) return fail("truncated escape");
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;  // closes the enclosing container
        --depth;
      } else if (depth == 0 && (c == ',' || is_ws(c))) {
        break;
      }
      ++pos;
      if (depth == 0 && !in_string && pos > start) {
        const char last = s[pos - 1];
        if (last == '}' || last == ']' || last == '"') break;
      }
    }
    if (depth != 0 || in_string) return fail("unbalanced value");
    if (pos == start) return fail("expected value");
    out.assign(s.substr(start, pos - start));
    return true;
  }
};

/// Record a key sighting; duplicates are decode errors.
bool mark_seen(Cursor& c, bool& flag, const std::string& key) {
  if (flag) return c.fail("duplicate key '" + key + "'");
  flag = true;
  return true;
}

bool parse_params(Cursor& c, runtime::ServiceSpec& spec) {
  if (!c.expect('{')) return false;
  if (c.peek_is('}')) {
    ++c.pos;
    return true;
  }
  for (;;) {
    std::string key;
    if (!c.string_value(key)) return false;
    for (const auto& [existing, value] : spec.params)
      if (existing == key) return c.fail("duplicate param '" + key + "'");
    if (!c.expect(':')) return false;
    std::uint64_t v = 0;
    if (!c.u64_value(v)) return false;
    spec.params.emplace_back(std::move(key), v);
    if (c.peek_is(',')) {
      ++c.pos;
      continue;
    }
    return c.expect('}');
  }
}

bool finish(Cursor& c, std::string& err, bool ok) {
  if (ok && !c.at_end()) ok = c.fail("trailing bytes after message");
  if (!ok) err = c.err.empty() ? "malformed message" : c.err;
  return ok;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::Run: return "run";
    case Op::Cell: return "cell";
    case Op::Stats: return "stats";
    case Op::Ping: return "ping";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Retry: return "retry";
    case Status::Error: return "error";
  }
  return "?";
}

std::string encode_request(const Request& req) {
  if (req.op == Op::Cell)
    throw std::invalid_argument(
        "encode_request: the cell op travels only on the binary wire");
  std::string out = "{\"id\":" + std::to_string(req.id) + ",\"op\":\"" +
                    op_name(req.op) + "\"";
  if (req.op == Op::Run) {
    out += ",\"engine\":\"" + runtime::json_escape(req.spec.engine) + "\"";
    out +=
        ",\"workload\":\"" + runtime::json_escape(req.spec.workload) + "\"";
    if (!req.spec.params.empty()) {
      out += ",\"params\":{";
      bool first = true;
      for (const auto& [key, value] : req.spec.params) {
        if (!first) out += ',';
        first = false;
        out += "\"" + runtime::json_escape(key) +
               "\":" + std::to_string(value);
      }
      out += "}";
    }
    out += ",\"seed\":" + std::to_string(req.seed);
  }
  out += "}";
  return out;
}

std::string encode_response(const Response& resp) {
  if (!resp.costs.empty() || !resp.telemetry.empty())
    throw std::invalid_argument(
        "encode_response: cell results travel only on the binary wire");
  std::string out = "{\"id\":" + std::to_string(resp.id) + ",\"status\":\"" +
                    status_name(resp.status) + "\"";
  if (resp.has_cost) {
    out += ",\"cached\":";
    out += resp.cached ? "true" : "false";
    out += ",\"cost\":" + num(resp.cost);
  }
  if (!resp.stats_json.empty()) out += ",\"stats\":" + resp.stats_json;
  if (resp.status == Status::Error)
    out += ",\"error\":\"" + runtime::json_escape(resp.error) + "\"";
  out += "}";
  return out;
}

bool decode_request(std::string_view payload, Request& out,
                    std::string& err) {
  Cursor c{payload, 0, {}};
  out = Request{};
  bool saw_id = false, saw_op = false, saw_engine = false,
       saw_workload = false, saw_params = false, saw_seed = false;
  std::string op_text;

  bool ok = c.expect('{');
  if (ok && c.peek_is('}')) {
    ++c.pos;
  } else {
    while (ok) {
      std::string key;
      ok = c.string_value(key) && c.expect(':');
      if (!ok) break;
      if (key == "id") {
        ok = mark_seen(c, saw_id, key) && c.u64_value(out.id);
      } else if (key == "op") {
        ok = mark_seen(c, saw_op, key) && c.string_value(op_text);
      } else if (key == "engine") {
        ok = mark_seen(c, saw_engine, key) && c.string_value(out.spec.engine);
      } else if (key == "workload") {
        ok = mark_seen(c, saw_workload, key) &&
             c.string_value(out.spec.workload);
      } else if (key == "params") {
        ok = mark_seen(c, saw_params, key) && parse_params(c, out.spec);
      } else if (key == "seed") {
        ok = mark_seen(c, saw_seed, key) && c.u64_value(out.seed);
      } else {
        ok = c.fail("unknown request key '" + key + "'");
      }
      if (!ok) break;
      if (c.peek_is(',')) {
        ++c.pos;
        continue;
      }
      ok = c.expect('}');
      break;
    }
  }

  if (ok && !saw_id) ok = c.fail("missing required key 'id'");
  if (ok && !saw_op) ok = c.fail("missing required key 'op'");
  if (ok) {
    if (op_text == "run") out.op = Op::Run;
    else if (op_text == "stats") out.op = Op::Stats;
    else if (op_text == "ping") out.op = Op::Ping;
    else if (op_text == "shutdown") out.op = Op::Shutdown;
    else ok = c.fail("unknown op '" + op_text + "'");
  }
  if (ok && out.op == Op::Run) {
    if (!saw_engine) ok = c.fail("run request missing 'engine'");
    else if (!saw_workload) ok = c.fail("run request missing 'workload'");
    else if (!saw_seed) ok = c.fail("run request missing 'seed'");
  }
  if (ok && out.op != Op::Run &&
      (saw_engine || saw_workload || saw_params || saw_seed))
    ok = c.fail(std::string("op '") + op_name(out.op) +
                "' takes no run fields");
  return finish(c, err, ok);
}

bool decode_response(std::string_view payload, Response& out,
                     std::string& err) {
  Cursor c{payload, 0, {}};
  out = Response{};
  bool saw_id = false, saw_status = false, saw_cached = false,
       saw_cost = false, saw_stats = false, saw_error = false;
  std::string status_text;

  bool ok = c.expect('{');
  if (ok && c.peek_is('}')) {
    ++c.pos;
  } else {
    while (ok) {
      std::string key;
      ok = c.string_value(key) && c.expect(':');
      if (!ok) break;
      if (key == "id") {
        ok = mark_seen(c, saw_id, key) && c.u64_value(out.id);
      } else if (key == "status") {
        ok = mark_seen(c, saw_status, key) && c.string_value(status_text);
      } else if (key == "cached") {
        ok = mark_seen(c, saw_cached, key) && c.bool_value(out.cached);
      } else if (key == "cost") {
        ok = mark_seen(c, saw_cost, key) && c.double_value(out.cost);
        out.has_cost = ok;
      } else if (key == "stats") {
        ok = mark_seen(c, saw_stats, key) && c.raw_value(out.stats_json);
        if (ok && (out.stats_json.empty() || out.stats_json[0] != '{'))
          ok = c.fail("'stats' must be an object");
      } else if (key == "error") {
        ok = mark_seen(c, saw_error, key) && c.string_value(out.error);
      } else {
        ok = c.fail("unknown response key '" + key + "'");
      }
      if (!ok) break;
      if (c.peek_is(',')) {
        ++c.pos;
        continue;
      }
      ok = c.expect('}');
      break;
    }
  }

  if (ok && !saw_id) ok = c.fail("missing required key 'id'");
  if (ok && !saw_status) ok = c.fail("missing required key 'status'");
  if (ok) {
    if (status_text == "ok") out.status = Status::Ok;
    else if (status_text == "retry") out.status = Status::Retry;
    else if (status_text == "error") out.status = Status::Error;
    else ok = c.fail("unknown status '" + status_text + "'");
  }
  if (ok && saw_cached && !saw_cost)
    ok = c.fail("'cached' without 'cost'");
  if (ok && out.status == Status::Error && !saw_error)
    ok = c.fail("error response missing 'error'");
  return finish(c, err, ok);
}

// ----- binary codec (the fleet data plane) ---------------------------------

namespace {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i)
    out += static_cast<char>((v >> (8U * i)) & 0xFFU);
}

void put_f64le(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64le(out, bits);
}

void put_bytes(std::string& out, std::string_view b) {
  put_varint(out, b.size());
  out.append(b);
}

/// Strict forward-only reader over a binary payload. Every getter
/// records the first error with its byte offset and then fails fast;
/// truncation and overlong varints are typed errors, never reads past
/// the end.
struct BinReader {
  std::string_view s;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& m) {
    if (err.empty()) err = m + " at byte " + std::to_string(pos);
    return false;
  }
  bool get_u8(std::uint8_t& out) {
    if (pos >= s.size()) return fail("truncated message");
    out = static_cast<std::uint8_t>(s[pos++]);
    return true;
  }
  bool get_varint(std::uint64_t& out) {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (pos >= s.size()) return fail("truncated varint");
      const auto b = static_cast<std::uint8_t>(s[pos++]);
      if (shift == 63 && (b & 0x7E) != 0)
        return fail("varint overflows u64");
      out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return fail("varint longer than 10 bytes");
  }
  bool get_u64le(std::uint64_t& out) {
    if (s.size() - pos < 8) return fail("truncated u64");
    out = 0;
    for (unsigned i = 0; i < 8; ++i)
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(s[pos + i]))
             << (8U * i);
    pos += 8;
    return true;
  }
  bool get_f64le(double& out) {
    std::uint64_t bits = 0;
    if (!get_u64le(bits)) return false;
    std::memcpy(&out, &bits, sizeof out);
    if (std::isnan(out)) return fail("NaN cost payload");
    return true;
  }
  bool get_bytes(std::string& out) {
    std::uint64_t n = 0;
    if (!get_varint(n)) return false;
    if (n > s.size() - pos) return fail("truncated bytes field");
    out.assign(s.substr(pos, static_cast<std::size_t>(n)));
    pos += static_cast<std::size_t>(n);
    return true;
  }
  bool at_end() const { return pos == s.size(); }
};

bool bin_finish(BinReader& r, std::string& err, bool ok) {
  if (ok && !r.at_end()) ok = r.fail("trailing bytes after message");
  if (!ok) err = r.err.empty() ? "malformed binary message" : r.err;
  return ok;
}

// Response flag bits: which optional fields follow, in this order.
constexpr std::uint8_t kRespCached = 1U << 0;
constexpr std::uint8_t kRespHasCost = 1U << 1;
constexpr std::uint8_t kRespHasCosts = 1U << 2;
constexpr std::uint8_t kRespHasTelemetry = 1U << 3;
constexpr std::uint8_t kRespHasStats = 1U << 4;
constexpr std::uint8_t kRespHasError = 1U << 5;

}  // namespace

void encode_request_binary(const Request& req, std::string& out) {
  out += kBinaryRequestMagic;
  out += static_cast<char>(req.op);
  put_varint(out, req.id);
  if (req.op == Op::Run || req.op == Op::Cell) {
    put_bytes(out, req.spec.engine);
    put_bytes(out, req.spec.workload);
    put_varint(out, req.spec.params.size());
    for (const auto& [key, value] : req.spec.params) {
      put_bytes(out, key);
      put_varint(out, value);
    }
    put_u64le(out, req.seed);  // seeds span the full u64 range; fixed width
    if (req.op == Op::Cell) {
      put_varint(out, req.trial0);
      put_varint(out, req.trials);
    }
  }
}

std::string encode_request_binary(const Request& req) {
  std::string out;
  encode_request_binary(req, out);
  return out;
}

void encode_response_binary(const Response& resp, std::string& out) {
  // The JSON encoder's field discipline: `cached` rides only with a
  // cost payload (a run's cost or a cell's costs).
  if (resp.has_cost && std::isnan(resp.cost))
    throw std::invalid_argument("encode_response_binary: NaN cost");
  for (const double c : resp.costs)
    if (std::isnan(c))
      throw std::invalid_argument("encode_response_binary: NaN cost");
  out += kBinaryResponseMagic;
  put_varint(out, resp.id);
  out += static_cast<char>(resp.status);
  std::uint8_t flags = 0;
  const bool carries_cost = resp.has_cost || !resp.costs.empty();
  if (resp.cached && carries_cost) flags |= kRespCached;
  if (resp.has_cost) flags |= kRespHasCost;
  if (!resp.costs.empty()) flags |= kRespHasCosts;
  if (!resp.telemetry.empty()) flags |= kRespHasTelemetry;
  if (!resp.stats_json.empty()) flags |= kRespHasStats;
  if (resp.status == Status::Error) flags |= kRespHasError;
  out += static_cast<char>(flags);
  if (resp.has_cost) put_f64le(out, resp.cost);
  if (!resp.costs.empty()) {
    put_varint(out, resp.costs.size());
    for (const double c : resp.costs) put_f64le(out, c);
  }
  if (!resp.telemetry.empty()) put_bytes(out, resp.telemetry);
  if (!resp.stats_json.empty()) put_bytes(out, resp.stats_json);
  if (resp.status == Status::Error) put_bytes(out, resp.error);
}

std::string encode_response_binary(const Response& resp) {
  std::string out;
  encode_response_binary(resp, out);
  return out;
}

bool decode_request_binary(std::string_view payload, Request& out,
                           std::string& err) {
  BinReader r{payload, 0, {}};
  out = Request{};
  std::uint8_t magic = 0, op = 0;
  bool ok = r.get_u8(magic);
  if (ok && magic != static_cast<std::uint8_t>(kBinaryRequestMagic))
    ok = r.fail("bad request magic");
  if (ok) ok = r.get_u8(op);
  if (ok && op > static_cast<std::uint8_t>(Op::Shutdown))
    ok = r.fail("unknown op " + std::to_string(op));
  if (ok) {
    out.op = static_cast<Op>(op);
    ok = r.get_varint(out.id);
  }
  if (ok && (out.op == Op::Run || out.op == Op::Cell)) {
    std::uint64_t nparams = 0;
    ok = r.get_bytes(out.spec.engine) && r.get_bytes(out.spec.workload) &&
         r.get_varint(nparams);
    if (ok && nparams > payload.size())
      ok = r.fail("param count exceeds message size");
    for (std::uint64_t i = 0; ok && i < nparams; ++i) {
      std::string key;
      std::uint64_t value = 0;
      ok = r.get_bytes(key) && r.get_varint(value);
      for (const auto& [existing, unused] : out.spec.params)
        if (ok && existing == key)
          ok = r.fail("duplicate param '" + key + "'");
      if (ok) out.spec.params.emplace_back(std::move(key), value);
    }
    if (ok) ok = r.get_u64le(out.seed);
    if (ok && out.op == Op::Cell) {
      ok = r.get_varint(out.trial0) && r.get_varint(out.trials);
      if (ok && out.trials == 0)
        ok = r.fail("cell request needs trials >= 1");
    }
  }
  return bin_finish(r, err, ok);
}

bool decode_response_binary(std::string_view payload, Response& out,
                            std::string& err) {
  BinReader r{payload, 0, {}};
  out = Response{};
  std::uint8_t magic = 0, status = 0, flags = 0;
  bool ok = r.get_u8(magic);
  if (ok && magic != static_cast<std::uint8_t>(kBinaryResponseMagic))
    ok = r.fail("bad response magic");
  if (ok) ok = r.get_varint(out.id) && r.get_u8(status);
  if (ok && status > static_cast<std::uint8_t>(Status::Error))
    ok = r.fail("unknown status " + std::to_string(status));
  if (ok) {
    out.status = static_cast<Status>(status);
    ok = r.get_u8(flags);
  }
  if (ok && (flags & ~(kRespCached | kRespHasCost | kRespHasCosts |
                       kRespHasTelemetry | kRespHasStats | kRespHasError)))
    ok = r.fail("unknown response flag bits");
  // Invalid field combinations: the JSON decoder's rules, plus the
  // cell-response ones.
  if (ok && (flags & kRespCached) &&
      !(flags & (kRespHasCost | kRespHasCosts)))
    ok = r.fail("'cached' without 'cost' or 'costs'");
  if (ok && (flags & kRespHasCost) && (flags & kRespHasCosts))
    ok = r.fail("'cost' and 'costs' are mutually exclusive");
  if (ok && (flags & kRespHasTelemetry) && !(flags & kRespHasCosts))
    ok = r.fail("'telemetry' without 'costs'");
  if (ok && out.status == Status::Error && !(flags & kRespHasError))
    ok = r.fail("error response missing 'error'");
  if (ok) out.cached = (flags & kRespCached) != 0;
  if (ok && (flags & kRespHasCost)) {
    out.has_cost = true;
    ok = r.get_f64le(out.cost);
  }
  if (ok && (flags & kRespHasCosts)) {
    std::uint64_t n = 0;
    ok = r.get_varint(n);
    if (ok && n == 0) ok = r.fail("empty costs list");
    if (ok && n > (payload.size() - r.pos) / 8 + 1)
      ok = r.fail("costs count exceeds message size");
    for (std::uint64_t i = 0; ok && i < n; ++i) {
      double v = 0.0;
      ok = r.get_f64le(v);
      if (ok) out.costs.push_back(v);
    }
  }
  if (ok && (flags & kRespHasTelemetry)) ok = r.get_bytes(out.telemetry);
  if (ok && (flags & kRespHasStats)) {
    ok = r.get_bytes(out.stats_json);
    if (ok && (out.stats_json.empty() || out.stats_json[0] != '{'))
      ok = r.fail("'stats' must be an object");
  }
  if (ok && (flags & kRespHasError)) ok = r.get_bytes(out.error);
  return bin_finish(r, err, ok);
}

std::string canonical_request(const Request& req) {
  auto params = req.spec.params;
  std::sort(params.begin(), params.end());
  std::string out = kCodeVersion;
  out += "|engine=" + req.spec.engine;
  out += "|workload=" + req.spec.workload;
  for (const auto& [key, value] : params)
    out += "|" + key + "=" + std::to_string(value);
  out += "|seed=" + std::to_string(req.seed);
  // A cell's identity is the base seed plus its repetition block: the
  // derived per-trial seeds are a pure function of (seed, trial0 + r).
  // The "cell" marker keeps the key space disjoint from single-trial
  // runs — no param is ever spelled "cell", so a run key can never
  // collide with a cell key.
  if (req.op == Op::Cell)
    out += "|cell|trial0=" + std::to_string(req.trial0) +
           "|trials=" + std::to_string(req.trials);
  return out;
}

std::string cache_key(const Request& req) {
  return sha256_hex(canonical_request(req));
}

void append_frame(std::string& buf, std::string_view payload,
                  std::size_t max_payload) {
  if (payload.size() > max_payload)
    throw std::length_error(
        "append_frame: payload of " + std::to_string(payload.size()) +
        " bytes exceeds the frame limit of " + std::to_string(max_payload) +
        " bytes");
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (unsigned i = 0; i < 4; ++i)
    buf += static_cast<char>((n >> (8U * i)) & 0xFFU);
  buf.append(payload);
}

FrameResult extract_frame(std::string_view buf, std::string& payload,
                          std::size_t& consumed, std::size_t max_payload) {
  if (buf.size() < 4) return FrameResult::NeedMore;
  std::uint32_t n = 0;
  for (unsigned i = 0; i < 4; ++i)
    n |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8U * i);
  if (n > max_payload) return FrameResult::TooLarge;
  if (buf.size() < 4U + n) return FrameResult::NeedMore;
  payload.assign(buf.substr(4, n));
  consumed = 4U + n;
  return FrameResult::Ok;
}

void FrameDecoder::feed(std::string_view bytes) { buf_.append(bytes); }

FrameResult FrameDecoder::next(std::string& payload) {
  std::size_t consumed = 0;
  const FrameResult r = extract_frame(
      std::string_view(buf_).substr(off_), payload, consumed, max_payload_);
  if (r == FrameResult::Ok) {
    off_ += consumed;
    // Compact once the dead prefix dominates; amortized O(1) per byte.
    if (off_ >= 4096 && off_ * 2 >= buf_.size()) {
      buf_.erase(0, off_);
      off_ = 0;
    }
  } else if (r == FrameResult::TooLarge) {
    std::uint32_t n = 0;
    for (unsigned i = 0; i < 4; ++i)
      n |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf_[off_ + i]))
           << (8U * i);
    error_ = "frame payload of " + std::to_string(n) +
             " bytes exceeds the frame limit of " +
             std::to_string(max_payload_) + " bytes";
  }
  return r;
}

}  // namespace parbounds::service
