// Minimal JSON plumbing for the sweep service's wire protocol and durable
// work-queue journal (docs/SERVICE.md).
//
// Both formats are newline-delimited flat JSON objects — string, integer,
// double, boolean, and null values only, no nesting — so a full JSON
// library would be dead weight. parseFlatObject() is strict about what it
// does support: a malformed line is an error with a reason, never a silent
// partial parse, because the queue journal uses "parses cleanly" to tell a
// torn crash-tail from corruption.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hdtn::service {

/// JSON string escaping: backslash, quote, and control characters (\n, \t,
/// \r and \u00XX for the rest). Everything else passes through.
[[nodiscard]] std::string jsonEscape(std::string_view text);

/// One flat JSON object, parsed into key → decoded value. Numbers and
/// booleans keep their literal spelling ("42", "1.5", "true"); strings are
/// unescaped; null becomes an empty string.
using FlatObject = std::map<std::string, std::string>;

/// Parses `{"key":value,...}` with no nested objects/arrays. Returns false
/// and sets *error (when non-null) on anything malformed: truncated input,
/// bad escape, trailing bytes, nesting.
[[nodiscard]] bool parseFlatObject(std::string_view line, FlatObject* out,
                                   std::string* error);

/// Convenience getters over a parsed object.
[[nodiscard]] std::string getString(const FlatObject& object,
                                    const std::string& key,
                                    const std::string& fallback = "");
/// Integer field `key` as T. Returns `fallback` when the key is absent.
/// A value that is not a whole base-10 integer fitting T ("12abc", "1.5",
/// 2^32 for an int) also returns `fallback` and sets *ok to false; *ok is
/// left untouched on success, so one flag can cover several fields.
template <typename T = std::int64_t>
[[nodiscard]] T getInt(const FlatObject& object, const std::string& key,
                       std::type_identity_t<T> fallback = 0,
                       bool* ok = nullptr) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  const char* end = it->second.data() + it->second.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(it->second.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  if (ok != nullptr) *ok = false;
  return fallback;
}
[[nodiscard]] bool getBool(const FlatObject& object, const std::string& key,
                           bool fallback = false);

/// Splits the body of a JSON array of flat objects ("{...},{...}") into the
/// individual object texts, respecting quoted strings. Used by the status
/// client, which receives one nested array (the job list) inside an
/// otherwise flat reply.
[[nodiscard]] std::vector<std::string> splitObjectArray(
    std::string_view arrayBody);

/// Extracts the body of the top-level array field `"key":[ ... ]` from a
/// JSON object text, respecting quoted strings; empty when absent.
[[nodiscard]] std::string extractArrayBody(std::string_view objectText,
                                           const std::string& key);

/// The same object text with every top-level array field removed — what
/// parseFlatObject can digest of a status reply.
[[nodiscard]] std::string stripArrayFields(std::string_view objectText);

}  // namespace hdtn::service
