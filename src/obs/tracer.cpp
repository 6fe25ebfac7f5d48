#include "obs/tracer.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "sim/assert.hpp"
#include "sim/shard_context.hpp"

namespace dtncache::obs {

std::string jsonNumber(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::optional<EventKind> parseEventKind(const std::string& name) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kKindCount); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == eventKindName(kind)) return kind;
  }
  return std::nullopt;
}

KindMask parseKindFilter(const std::string& spec) {
  if (spec.empty()) return kAllKinds;
  KindMask mask = 0;
  std::istringstream in(spec);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    const auto kind = parseEventKind(token);
    DTNCACHE_CHECK_MSG(kind.has_value(), "unknown trace event kind '" << token << "'");
    mask |= kindBit(*kind);
  }
  return mask;
}

namespace {

void appendEscaped(std::string& out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    out += *p;
  }
}

}  // namespace

Tracer::Tracer(std::string runLabel, KindMask filter)
    : run_(std::move(runLabel)), filter_(filter) {
  if (filter_ == kAllKinds) return;
  std::string kept;
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kKindCount); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (!wants(kind)) continue;
    if (!kept.empty()) kept += ',';
    kept += eventKindName(kind);
  }
  buffer_ += "{\"run\": \"";
  buffer_ += run_;
  buffer_ += "\", \"t\": 0, \"kind\": \"trace_filter\", \"kept\": \"";
  buffer_ += kept;
  buffer_ += "\"}\n";
}

void Tracer::emit(EventKind kind, sim::SimTime t, std::initializer_list<Field> fields) {
  // Fixed leading keys (run identity, sim time, kind) then the payload in
  // emission-site order — one object per line, keys never reordered, so
  // the schema in docs/observability.md holds byte-for-byte.
  ShardSink* sink = shardMode_ ? &shardSinks_[sim::tlsShard.ctx] : nullptr;
  std::string& out = sink != nullptr ? sink->buf : buffer_;
  out += "{\"run\": \"";
  out += run_;
  out += "\", \"t\": ";
  out += jsonNumber(t);
  out += ", \"kind\": \"";
  out += eventKindName(kind);
  out += '"';
  for (const Field& f : fields) {
    out += ", \"";
    out += f.key;
    out += "\": ";
    switch (f.type) {
      case Field::Type::kUInt:
        out += std::to_string(f.u);
        break;
      case Field::Type::kDouble:
        out += jsonNumber(f.d);
        break;
      case Field::Type::kBool:
        out += f.b ? "true" : "false";
        break;
      case Field::Type::kText:
        out += '"';
        appendEscaped(out, f.s);
        out += '"';
        break;
    }
  }
  out += "}\n";
  if (sink != nullptr) {
    // events_ is merged at exitShardMode (no concurrent increments here).
    sink->tags.push_back({sim::tlsShard.evTime, sim::tlsShard.evSeq, out.size()});
    return;
  }
  ++events_;
}

void Tracer::enterShardMode(std::size_t contexts) {
  DTNCACHE_CHECK(!shardMode_);
  shardSinks_.assign(contexts, {});
  shardMode_ = true;
}

void Tracer::exitShardMode() {
  DTNCACHE_CHECK(shardMode_);
  shardMode_ = false;
  // K-way merge of the per-context line streams by (t, seq). Each stream is
  // already sorted (a context executes its events in key order), and a key
  // occurs in exactly one context, so the merge is a total order.
  std::vector<std::size_t> next(shardSinks_.size(), 0);   // next tag index
  std::vector<std::size_t> start(shardSinks_.size(), 0);  // line start offset
  for (;;) {
    std::size_t best = shardSinks_.size();
    for (std::size_t c = 0; c < shardSinks_.size(); ++c) {
      if (next[c] >= shardSinks_[c].tags.size()) continue;
      const auto& tag = shardSinks_[c].tags[next[c]];
      if (best == shardSinks_.size()) {
        best = c;
        continue;
      }
      const auto& bt = shardSinks_[best].tags[next[best]];
      if (tag.t < bt.t || (tag.t == bt.t && tag.seq < bt.seq)) best = c;
    }
    if (best == shardSinks_.size()) break;
    ShardSink& sink = shardSinks_[best];
    const auto& tag = sink.tags[next[best]];
    buffer_.append(sink.buf, start[best], tag.end - start[best]);
    ++events_;
    start[best] = tag.end;
    ++next[best];
  }
  shardSinks_.clear();
}

void Tracer::flushTo(std::ostream& out) {
  out << buffer_;
  buffer_.clear();
}

}  // namespace dtncache::obs
