#include "runner/flat_json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace dtncache::runner {
namespace {

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  std::map<std::string, JsonValue> parse() {
    std::map<std::string, JsonValue> out;
    skipWs();
    expect('{');
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skipWs();
      const std::string key = parseString();
      skipWs();
      expect(':');
      skipWs();
      out[key] = parseValue();
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    skipWs();
    DTNCACHE_CHECK_MSG(pos_ >= text_.size(), "trailing characters after JSON object");
    return out;
  }

 private:
  char peek() const {
    DTNCACHE_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }
  void expect(char c) {
    DTNCACHE_CHECK_MSG(peek() == c, "expected '" << c << "' at offset " << pos_);
    ++pos_;
  }
  void skipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }
  std::string parseString() {
    expect('"');
    std::string s;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default:
            DTNCACHE_CHECK_MSG(false, "unsupported escape \\" << esc);
        }
      }
      s += c;
    }
    ++pos_;
    return s;
  }
  JsonValue parseValue() {
    const char c = peek();
    if (c == '"') return parseString();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    // Number.
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' ||
            text_[end] == 'E'))
      ++end;
    DTNCACHE_CHECK_MSG(end > pos_, "expected a JSON value at offset " << pos_);
    const std::string num = text_.substr(pos_, end - pos_);
    std::size_t used = 0;
    const double v = std::stod(num, &used);
    DTNCACHE_CHECK_MSG(used == num.size(), "malformed number '" << num << "'");
    pos_ = end;
    return JsonNumber{v, num};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, JsonValue> parseFlatJson(const std::string& text) {
  FlatJsonParser parser(text);
  return parser.parse();
}

std::size_t editDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string nearestKey(const std::string& key, const std::vector<std::string>& known) {
  std::string best;
  std::size_t bestDistance = std::max<std::size_t>(key.size() / 2, 2) + 1;
  for (const std::string& candidate : known) {
    const std::size_t d = editDistance(key, candidate);
    if (d < bestDistance) {
      bestDistance = d;
      best = candidate;
    }
  }
  return best;
}

void FieldBinder::requireAllKnown() const {
  DTNCACHE_CHECK(mode == Mode::kLoad && values != nullptr);
  for (const auto& [key, value] : *values) {
    (void)value;
    if (std::find(knownKeys.begin(), knownKeys.end(), key) != knownKeys.end()) continue;
    const std::string suggestion = nearestKey(key, knownKeys);
    DTNCACHE_CHECK_MSG(false, "unknown config key '"
                                  << key << "'"
                                  << (suggestion.empty()
                                          ? std::string{}
                                          : "; did you mean '" + suggestion + "'?"));
  }
}

bool FieldBinder::integral(double v) { return std::nearbyint(v) == v; }

std::string FieldBinder::quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

void FieldBinder::emitNumber(const std::string& key, double v) const {
  std::ostringstream num;
  num.precision(17);
  num << v;
  emitRaw(key, num.str());
}

void FieldBinder::emitRaw(const std::string& key, const std::string& v) const {
  if (!first) *out << ",\n";
  first = false;
  *out << "  \"" << key << "\": " << v;
}

}  // namespace dtncache::runner
