#ifndef CACKLE_COMMON_JSON_WRITER_H_
#define CACKLE_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace cackle {

/// \brief Minimal streaming JSON writer for metrics/trace snapshots.
///
/// Emits deterministic output: doubles are printed with the shortest
/// round-trip representation (std::to_chars), so two runs that produce
/// bit-identical values produce byte-identical JSON — the property the
/// observability determinism tests assert on.
///
/// Commas and nesting are managed by an internal state stack; misuse (e.g.
/// a value without a pending key inside an object) aborts.
///
/// Output is buffered: the text accumulates in an internal string that is
/// written to the stream once it reaches 64 KiB, when the top-level value
/// is complete, and on destruction. So the stream holds the whole document
/// as soon as its last container closes, and a caller may append to the
/// stream (a trailing newline, say) from then on; writing to the stream
/// while a container is still open interleaves out of order.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  ~JsonWriter() { Flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object member key; must be followed by exactly one value or container.
  JsonWriter& Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  // Convenience: Key(k) + value.
  void Field(std::string_view key, std::string_view value) {
    Key(key).String(value);
  }
  // A string literal would otherwise convert to bool, silently emitting
  // `true` instead of the string; route const char* to the string overload.
  void Field(std::string_view key, const char* value) {
    Key(key).String(value);
  }
  void Field(std::string_view key, int64_t value) { Key(key).Int(value); }
  void Field(std::string_view key, int value) {
    Key(key).Int(static_cast<int64_t>(value));
  }
  void Field(std::string_view key, double value) { Key(key).Double(value); }
  void Field(std::string_view key, bool value) { Key(key).Bool(value); }

  /// All containers must be closed before the writer is destroyed.
  bool Done() const { return stack_.empty() && wrote_top_level_; }

 private:
  enum class Scope { kObject, kArray };

  static constexpr size_t kFlushBytes = 64 * 1024;

  void BeforeValue();
  /// Writes the buffer out when the document is complete or the buffer
  /// has reached kFlushBytes.
  void AfterValue();
  void Flush();
  void WriteEscaped(std::string_view s);

  std::ostream& os_;
  std::string buf_;
  std::vector<Scope> stack_;
  std::vector<bool> first_;  // parallel to stack_: no comma needed yet
  bool key_pending_ = false;
  bool wrote_top_level_ = false;
};

/// Formats a double with the shortest round-trip representation.
std::string JsonDoubleToString(double value);

}  // namespace cackle

#endif  // CACKLE_COMMON_JSON_WRITER_H_
