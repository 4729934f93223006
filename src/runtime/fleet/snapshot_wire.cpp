#include "runtime/fleet/snapshot_wire.hpp"

#include <charconv>

namespace parbounds::fleet {

namespace {

void append_u64_list(std::string& out, const std::vector<std::uint64_t>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(),
                                   out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size() &&
         !text.empty();
}

bool parse_u64_list(std::string_view text, std::vector<std::uint64_t>& out) {
  out.clear();
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    std::uint64_t v = 0;
    if (!parse_u64(text.substr(0, comma), v)) return false;
    out.push_back(v);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
    if (text.empty()) return false;  // trailing comma
  }
  return !out.empty();
}

/// Split one record on single spaces into at most `max` fields.
std::size_t split_fields(std::string_view rec, std::string_view* fields,
                         std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    const std::size_t sp = rec.find(' ');
    if (sp == std::string_view::npos) {
      fields[n++] = rec;
      return rec.empty() && n == 1 ? 0 : n;
    }
    fields[n++] = rec.substr(0, sp);
    rec.remove_prefix(sp + 1);
  }
  return rec.empty() ? n : max + 1;  // leftover bytes = too many fields
}

}  // namespace

std::string encode_snapshot(const obs::MetricsSnapshot& snap) {
  std::string out;
  for (const auto& m : snap.metrics) {
    switch (m.kind) {
      case obs::MetricKind::Counter:
        out += "c " + m.name + " " + std::to_string(m.value) + ";";
        break;
      case obs::MetricKind::Gauge:
        out += "g " + m.name + " " + std::to_string(m.value) + ";";
        break;
      case obs::MetricKind::Histogram:
        out += "h " + m.name + " ";
        append_u64_list(out, m.bounds);
        out += ' ';
        append_u64_list(out, m.counts);
        out += ';';
        break;
    }
  }
  return out;
}

bool decode_snapshot(std::string_view wire, obs::MetricsSnapshot& out,
                     std::string& err) {
  out.metrics.clear();
  std::size_t record = 0;
  while (!wire.empty()) {
    ++record;
    const std::size_t semi = wire.find(';');
    if (semi == std::string_view::npos) {
      err = "snapshot record " + std::to_string(record) +
            ": missing ';' terminator";
      return false;
    }
    const std::string_view rec = wire.substr(0, semi);
    wire.remove_prefix(semi + 1);

    std::string_view fields[4];
    const std::size_t n = split_fields(rec, fields, 4);
    const auto fail = [&](const char* what) {
      err = "snapshot record " + std::to_string(record) + " '" +
            std::string(rec) + "': " + what;
      return false;
    };

    obs::MetricValue m;
    if (fields[0] == "c" || fields[0] == "g") {
      if (n != 3) return fail("expected 'c|g <name> <value>'");
      m.kind = fields[0] == "c" ? obs::MetricKind::Counter
                                : obs::MetricKind::Gauge;
      m.name.assign(fields[1]);
      if (m.name.empty()) return fail("empty metric name");
      if (!parse_u64(fields[2], m.value)) return fail("malformed value");
    } else if (fields[0] == "h") {
      if (n != 4) return fail("expected 'h <name> <bounds> <counts>'");
      m.kind = obs::MetricKind::Histogram;
      m.name.assign(fields[1]);
      if (m.name.empty()) return fail("empty metric name");
      if (!parse_u64_list(fields[2], m.bounds))
        return fail("malformed bounds");
      if (!parse_u64_list(fields[3], m.counts))
        return fail("malformed counts");
      if (m.counts.size() != m.bounds.size() + 1)
        return fail("counts must have bounds+1 buckets");
    } else {
      return fail("unknown record kind");
    }
    out.metrics.push_back(std::move(m));
  }
  return true;
}

}  // namespace parbounds::fleet
