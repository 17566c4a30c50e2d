#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace guess::e2e {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void JsonObject::key(std::string_view name) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(name);
  body_ += ": ";
}

JsonObject& JsonObject::num(std::string_view name, double value) {
  key(name);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  body_.append(buf, ec == std::errc() ? end : buf);
  return *this;
}

JsonObject& JsonObject::num(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view name, std::string_view value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::object(std::string_view name,
                               const JsonObject& value) {
  key(name);
  body_ += value.dump();
  return *this;
}

}  // namespace guess::e2e
