#pragma once

/// \file flat_json.hpp
/// The flat-JSON config machinery shared by every dotted-key namespace.
///
/// Extracted from config_io so the peer daemon's `peer.*` config speaks the
/// same format (and produces the same diagnostics) as the experiment
/// config: a deliberately minimal flat-JSON reader (strings, numbers,
/// booleans; no nesting or arrays — the format is ours, and a third-party
/// JSON dependency would be heavier than the feature), plus a field binder
/// whose one registration pass drives dump, load, and key validation.
///
/// Unknown keys are hard errors *with a suggestion*: the binder remembers
/// every key it bound, so a typo reports the nearest valid key by edit
/// distance ("unknown config key 'cache.warmStarts'; did you mean
/// 'cache.warmStart'?") instead of silently running the defaults.

#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/assert.hpp"

namespace dtncache::runner {

/// A JSON number: its value as a double, plus the token as written so that
/// integral fields parse it exactly at any width (a double holds integers
/// exactly only up to 2^53).
struct JsonNumber {
  double value = 0.0;
  std::string token;
};

using JsonValue = std::variant<JsonNumber, bool, std::string>;

/// Parse one flat JSON object ({"dotted.key": value, ...}). Throws
/// InvariantViolation on malformed input or trailing characters.
std::map<std::string, JsonValue> parseFlatJson(const std::string& text);

/// Levenshtein distance — small strings, classic DP; used only on the
/// error path so clarity beats cleverness.
std::size_t editDistance(const std::string& a, const std::string& b);

/// The valid key closest to `key` by edit distance, or empty when nothing
/// is within a plausible-typo radius (half the key length).
std::string nearestKey(const std::string& key, const std::vector<std::string>& known);

/// One registration pass drives dump, load, and key validation: bindAll-
/// style functions call numeric/boolean/text/enumeration once per field,
/// and the binder either emits JSON (kDump) or consumes parsed values
/// (kLoad) while recording every valid key for diagnostics.
struct FieldBinder {
  enum class Mode { kDump, kLoad } mode = Mode::kDump;
  std::ostringstream* out = nullptr;
  const std::map<std::string, JsonValue>* values = nullptr;
  mutable std::vector<std::string> knownKeys;
  mutable bool first = true;

  template <typename T>
  void numeric(const std::string& key, T& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      // Integers print exactly; below 2^53 the bytes equal the double's.
      if constexpr (std::is_integral_v<T>)
        emitRaw(key, std::to_string(field));
      else
        emitNumber(key, static_cast<double>(field));
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<JsonNumber>(it->second),
                         "key '" << key << "' must be a number");
      const JsonNumber& number = std::get<JsonNumber>(it->second);
      if constexpr (std::is_integral_v<T>)
        field = integer<T>(key, number);
      else
        field = static_cast<T>(number.value);
    }
  }

  void boolean(const std::string& key, bool& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      emitRaw(key, field ? "true" : "false");
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<bool>(it->second),
                         "key '" << key << "' must be a boolean");
      field = std::get<bool>(it->second);
    }
  }

  void text(const std::string& key, std::string& field) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      emitRaw(key, quoted(field));
      return;
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<std::string>(it->second),
                         "key '" << key << "' must be a string");
      field = std::get<std::string>(it->second);
    }
  }

  template <typename Enum>
  void enumeration(const std::string& key, Enum& field,
                   const std::vector<std::pair<Enum, std::string>>& names) const {
    knownKeys.push_back(key);
    if (mode == Mode::kDump) {
      for (const auto& [value, name] : names)
        if (value == field) {
          emitRaw(key, quoted(name));
          return;
        }
      DTNCACHE_CHECK_MSG(false, "unnamed enum value for key '" << key << "'");
    }
    if (const auto it = values->find(key); it != values->end()) {
      DTNCACHE_CHECK_MSG(std::holds_alternative<std::string>(it->second),
                         "key '" << key << "' must be a string");
      const std::string& s = std::get<std::string>(it->second);
      for (const auto& [value, name] : names)
        if (name == s) {
          field = value;
          return;
        }
      DTNCACHE_CHECK_MSG(false, "unknown value '" << s << "' for key '" << key << "'");
    }
  }

  /// Load-mode epilogue: every parsed key must have been bound. Reports
  /// each stranger with its nearest valid key.
  void requireAllKnown() const;

 private:
  /// An integral field's value. A plain integer token parses exactly; a
  /// token with a fraction or exponent ("5.0", "1e3") goes through its
  /// double and must be integral. Out-of-range values are refused.
  template <typename T>
  static T integer(const std::string& key, const JsonNumber& number) {
    using Limits = std::numeric_limits<T>;
    const auto rangeError = [&key](const auto& got) {
      DTNCACHE_CHECK_MSG(false, "key '" << key << "' must be in [" << +Limits::min() << ", "
                                        << +Limits::max() << "], got " << got);
    };
    T parsed{};
    const char* end = number.token.data() + number.token.size();
    const auto [ptr, ec] = std::from_chars(number.token.data(), end, parsed);
    if (ptr == end && ec == std::errc{}) return parsed;
    if (ptr == end && ec == std::errc::result_out_of_range) rangeError(number.token);
    const double v = number.value;
    DTNCACHE_CHECK_MSG(integral(v), "key '" << key << "' must be integral");
    // Casting an out-of-range double is undefined behaviour. 2^digits
    // is exact in a double; the largest value of a 64-bit T is not.
    if (!(v >= static_cast<double>(Limits::min()) && v < std::ldexp(1.0, Limits::digits))) {
      std::ostringstream got;
      got << std::fixed << std::setprecision(0) << v;
      rangeError(got.str());
    }
    return static_cast<T>(v);
  }

  static bool integral(double v);
  static std::string quoted(const std::string& s);
  void emitNumber(const std::string& key, double v) const;
  void emitRaw(const std::string& key, const std::string& v) const;
};

}  // namespace dtncache::runner
