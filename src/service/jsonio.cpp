#include "src/service/jsonio.hpp"

#include <cctype>
#include <cstdio>

namespace hdtn::service {

namespace {

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Skips spaces and tabs (the only whitespace our writers emit).
void skipSpace(std::string_view text, std::size_t* pos) {
  while (*pos < text.size() &&
         (text[*pos] == ' ' || text[*pos] == '\t')) {
    ++*pos;
  }
}

/// Parses a quoted string starting at the opening quote; leaves *pos one
/// past the closing quote.
bool parseQuoted(std::string_view text, std::size_t* pos, std::string* out,
                 std::string* error) {
  if (*pos >= text.size() || text[*pos] != '"') {
    fail(error, "expected '\"' at offset " + std::to_string(*pos));
    return false;
  }
  ++*pos;
  out->clear();
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (c == '"') {
      ++*pos;
      return true;
    }
    if (c == '\\') {
      if (*pos + 1 >= text.size()) break;
      const char esc = text[*pos + 1];
      *pos += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (*pos + 4 > text.size()) {
            fail(error, "truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[*pos + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(error, "bad \\u escape digit");
              return false;
            }
          }
          *pos += 4;
          // Our writers only emit \u00XX (control characters); decode the
          // low byte and reject anything wider rather than mis-decode it.
          if (code > 0xff) {
            fail(error, "unsupported \\u escape beyond \\u00ff");
            return false;
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          fail(error, std::string("unknown escape '\\") + esc + "'");
          return false;
      }
      continue;
    }
    out->push_back(c);
    ++*pos;
  }
  fail(error, "unterminated string");
  return false;
}

/// Parses an unquoted scalar (number / true / false / null) verbatim.
bool parseScalar(std::string_view text, std::size_t* pos, std::string* out,
                 std::string* error) {
  const std::size_t start = *pos;
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (c == ',' || c == '}' || c == ' ' || c == '\t') break;
    if (c == '{' || c == '[') {
      fail(error, "nested values are not supported");
      return false;
    }
    ++*pos;
  }
  if (*pos == start) {
    fail(error, "empty value at offset " + std::to_string(start));
    return false;
  }
  *out = std::string(text.substr(start, *pos - start));
  if (*out == "null") out->clear();
  return true;
}

}  // namespace

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool parseFlatObject(std::string_view line, FlatObject* out,
                     std::string* error) {
  out->clear();
  std::size_t pos = 0;
  skipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    fail(error, "expected '{'");
    return false;
  }
  ++pos;
  skipSpace(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      skipSpace(line, &pos);
      std::string key;
      if (!parseQuoted(line, &pos, &key, error)) return false;
      skipSpace(line, &pos);
      if (pos >= line.size() || line[pos] != ':') {
        fail(error, "expected ':' after key '" + key + "'");
        return false;
      }
      ++pos;
      skipSpace(line, &pos);
      std::string value;
      if (pos < line.size() && line[pos] == '"') {
        if (!parseQuoted(line, &pos, &value, error)) return false;
      } else {
        if (!parseScalar(line, &pos, &value, error)) return false;
      }
      (*out)[key] = std::move(value);
      skipSpace(line, &pos);
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        break;
      }
      fail(error, "expected ',' or '}' at offset " + std::to_string(pos));
      return false;
    }
  }
  skipSpace(line, &pos);
  // Tolerate one trailing newline (journal lines arrive with it).
  if (pos < line.size() && line[pos] == '\n') ++pos;
  if (pos != line.size()) {
    fail(error, "trailing bytes after '}'");
    return false;
  }
  return true;
}

std::string getString(const FlatObject& object, const std::string& key,
                      const std::string& fallback) {
  const auto it = object.find(key);
  return it == object.end() ? fallback : it->second;
}

bool getBool(const FlatObject& object, const std::string& key,
             bool fallback) {
  const auto it = object.find(key);
  if (it == object.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

std::vector<std::string> splitObjectArray(std::string_view arrayBody) {
  std::vector<std::string> objects;
  int depth = 0;
  bool inString = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < arrayBody.size(); ++i) {
    const char c = arrayBody[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      inString = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        objects.emplace_back(arrayBody.substr(start, i - start + 1));
      }
    }
  }
  return objects;
}

std::string extractArrayBody(std::string_view objectText,
                             const std::string& key) {
  const std::string tag = "\"" + key + "\":[";
  bool inString = false;
  for (std::size_t i = 0; i < objectText.size(); ++i) {
    const char c = objectText[i];
    if (inString) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      if (objectText.compare(i, tag.size(), tag) == 0) {
        const std::size_t bodyStart = i + tag.size();
        int depth = 1;
        bool bodyString = false;
        for (std::size_t j = bodyStart; j < objectText.size(); ++j) {
          const char b = objectText[j];
          if (bodyString) {
            if (b == '\\') {
              ++j;
            } else if (b == '"') {
              bodyString = false;
            }
            continue;
          }
          if (b == '"') {
            bodyString = true;
          } else if (b == '[') {
            ++depth;
          } else if (b == ']') {
            if (--depth == 0) {
              return std::string(objectText.substr(bodyStart, j - bodyStart));
            }
          }
        }
        return "";
      }
      inString = true;
    }
  }
  return "";
}

std::string stripArrayFields(std::string_view objectText) {
  std::string out;
  out.reserve(objectText.size());
  bool inString = false;
  for (std::size_t i = 0; i < objectText.size(); ++i) {
    const char c = objectText[i];
    if (inString) {
      out.push_back(c);
      if (c == '\\' && i + 1 < objectText.size()) {
        out.push_back(objectText[++i]);
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      // Peek: is this the start of `"key":[`? If so, skip the whole field
      // (and one adjacent comma).
      std::size_t j = i + 1;
      while (j < objectText.size() && objectText[j] != '"') {
        if (objectText[j] == '\\') ++j;
        ++j;
      }
      std::size_t k = j + 1;
      while (k < objectText.size() &&
             (objectText[k] == ' ' || objectText[k] == ':')) {
        ++k;
      }
      if (j < objectText.size() && k < objectText.size() &&
          objectText[k] == '[' && objectText[j] == '"' &&
          objectText[k - 1] == ':') {
        int depth = 0;
        bool s = false;
        std::size_t end = k;
        for (; end < objectText.size(); ++end) {
          const char b = objectText[end];
          if (s) {
            if (b == '\\') {
              ++end;
            } else if (b == '"') {
              s = false;
            }
            continue;
          }
          if (b == '"') {
            s = true;
          } else if (b == '[') {
            ++depth;
          } else if (b == ']') {
            if (--depth == 0) break;
          }
        }
        i = end;  // lands on ']'
        // Swallow one separating comma (either the one ahead, or the one
        // we already emitted behind).
        if (i + 1 < objectText.size() && objectText[i + 1] == ',') {
          ++i;
        } else if (!out.empty() && out.back() == ',') {
          out.pop_back();
        }
        continue;
      }
      inString = true;
      out.push_back(c);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace hdtn::service
