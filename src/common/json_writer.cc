#include "common/json_writer.h"

#include <charconv>
#include <cmath>

#include "common/logging.h"

namespace cackle {
namespace {

/// Appends the shortest round-trip form of `value`. JSON has no NaN/Inf
/// literals; they become `null` and ±1e308 so a stray non-finite metric
/// cannot produce an unparseable artifact.
void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "1e308" : "-1e308";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  CACKLE_CHECK(ec == std::errc());
  out.append(buf, ptr);
}

template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  CACKLE_CHECK(ec == std::errc());
  out.append(buf, ptr);
}

}  // namespace

std::string JsonDoubleToString(double value) {
  std::string s;
  AppendDouble(s, value);
  return s;
}

void JsonWriter::Flush() {
  if (buf_.empty()) return;
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    CACKLE_CHECK(!wrote_top_level_) << "multiple top-level JSON values";
    wrote_top_level_ = true;
    return;
  }
  if (stack_.back() == Scope::kObject) {
    CACKLE_CHECK(key_pending_) << "JSON object value without a key";
    key_pending_ = false;
    return;
  }
  if (!first_.back()) buf_ += ',';
  first_.back() = false;
}

void JsonWriter::AfterValue() {
  if (stack_.empty() || buf_.size() >= kFlushBytes) Flush();
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  CACKLE_CHECK(!stack_.empty() && stack_.back() == Scope::kObject)
      << "JSON key outside an object";
  CACKLE_CHECK(!key_pending_) << "JSON key after key";
  if (!first_.back()) buf_ += ',';
  first_.back() = false;
  buf_ += '"';
  WriteEscaped(key);
  buf_ += "\":";
  key_pending_ = true;
  return *this;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  buf_ += '{';
  stack_.push_back(Scope::kObject);
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  CACKLE_CHECK(!stack_.empty() && stack_.back() == Scope::kObject);
  CACKLE_CHECK(!key_pending_) << "JSON object closed with dangling key";
  stack_.pop_back();
  first_.pop_back();
  buf_ += '}';
  AfterValue();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  buf_ += '[';
  stack_.push_back(Scope::kArray);
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  CACKLE_CHECK(!stack_.empty() && stack_.back() == Scope::kArray);
  stack_.pop_back();
  first_.pop_back();
  buf_ += ']';
  AfterValue();
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  buf_ += '"';
  WriteEscaped(value);
  buf_ += '"';
  AfterValue();
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendInt(buf_, value);
  AfterValue();
}

void JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  AppendInt(buf_, value);
  AfterValue();
}

void JsonWriter::Double(double value) {
  BeforeValue();
  AppendDouble(buf_, value);
  AfterValue();
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  buf_ += value ? "true" : "false";
  AfterValue();
}

void JsonWriter::Null() {
  BeforeValue();
  buf_ += "null";
  AfterValue();
}

void JsonWriter::WriteEscaped(std::string_view s) {
  // Runs of characters that need no escape are appended in one call.
  size_t run_start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    buf_.append(s.data() + run_start, i - run_start);
    run_start = i + 1;
    switch (c) {
      case '"':
        buf_ += "\\\"";
        break;
      case '\\':
        buf_ += "\\\\";
        break;
      case '\n':
        buf_ += "\\n";
        break;
      case '\r':
        buf_ += "\\r";
        break;
      case '\t':
        buf_ += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        buf_.append(escape, sizeof(escape));
      }
    }
  }
  buf_.append(s.data() + run_start, s.size() - run_start);
}

}  // namespace cackle
