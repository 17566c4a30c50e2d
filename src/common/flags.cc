#include "common/flags.h"

#include <cstdlib>
#include <string_view>

#include "common/check.h"

namespace guess {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    GUESS_CHECK_MSG(arg.substr(0, 2) == "--",
                    "unexpected positional argument: " << arg);
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::has(const std::string& name) const {
  read_.insert(name);
  return values_.contains(name);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  GUESS_CHECK_MSG(false, "bad boolean for --" << name << ": " << *v);
  return fallback;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  GUESS_CHECK_MSG(!v->empty(), "missing value for --" << name);
  char* end = nullptr;
  std::int64_t out = std::strtoll(v->c_str(), &end, 10);
  GUESS_CHECK_MSG(end && *end == '\0', "bad integer for --" << name);
  return out;
}

std::size_t Flags::get_size(const std::string& name,
                            std::size_t fallback) const {
  std::int64_t out = get_int(name, static_cast<std::int64_t>(fallback));
  GUESS_CHECK_MSG(out >= 0, "--" << name << " must be >= 0, got " << out);
  return static_cast<std::size_t>(out);
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  GUESS_CHECK_MSG(!v->empty(), "missing value for --" << name);
  char* end = nullptr;
  double out = std::strtod(v->c_str(), &end);
  GUESS_CHECK_MSG(end && *end == '\0', "bad number for --" << name);
  return out;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  auto v = raw(name);
  return v ? *v : fallback;
}

void Flags::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!read_.contains(name)) unread += " --" + name;
  }
  GUESS_CHECK_MSG(unread.empty(), "unknown flag(s):" << unread);
}

}  // namespace guess
