// Flat JSON object writer for the benchmark's one-line records.
//
// Every record the benchmark binary prints is an object of name -> number,
// string or nested object, consumed by run.py. Numbers are written in
// shortest round-trip form, so no measured digit is lost; a non-finite
// value is written as null, which run.py treats as a failed run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace guess::e2e {

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& num(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& object(std::string_view key, const JsonObject& value);

  /// The object as one line of JSON.
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view name);

  std::string body_;
};

/// `text` as a quoted, escaped JSON string.
std::string json_string(std::string_view text);

}  // namespace guess::e2e
