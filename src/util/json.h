// Strict RFC 8259 JSON: the reader of every JSON document the repo takes
// in (fault plans, run reports, gate baselines), and the escaper and number
// writer every emitter writes names and doubles with. Input off the grammar
// (NaN, hex, a leading '+' or zero, a trailing comma, a raw control
// character, a lone surrogate), a duplicate member name or nesting past
// kMaxDepth throws std::invalid_argument naming the byte offset. Bytes
// >= 0x80 in strings pass through, as append_escaped writes them.
#pragma once

#include <charconv>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace grace::util::json {

inline constexpr int kMaxDepth = 64;  // the repo's documents nest <= 6

// Writes `s` as a quoted string literal: '"' and '\\' escaped, control
// characters (< 0x20) as \u00XX.
void append_escaped(std::ostream& os, std::string_view s);

// Writes `v` as a number at the stream's precision, or as null when it is
// a NaN or an infinity, which JSON has no token for.
void append_number(std::ostream& os, double v);

// append_number inside a << chain: `os << ",\"x\":" << Number{x}`.
struct Number {
  double value;
};
inline std::ostream& operator<<(std::ostream& os, Number n) {
  append_number(os, n.value);
  return os;
}

class Value {
 public:
  // The source text (a number's token, an object with its inner space).
  std::string_view text() const { return text_; }

  // Typed access throws, naming the value's offset, on another kind. An
  // integer T reads the token exactly: a fraction, an exponent or a value
  // outside T throws. A double out of range throws.
  template <typename T = double>
  T number() const;
  const std::string& string() const {
    return expect("\"", "a string").string_;
  }
  const std::vector<Value>& array() const {
    return expect("[", "an array").items_;
  }
  // The members in document order.
  const std::vector<std::pair<std::string, Value>>& object() const {
    return expect("{", "an object").members_;
  }
  // The member named `name`; throws when the object has none.
  const Value& at(std::string_view name) const;

  // Throws std::invalid_argument("JSON: <why> at offset <value's offset>").
  [[noreturn]] void fail(const std::string& why) const;

 private:
  friend struct Parser;
  // A value's first byte tells its kind; `firsts` lists those accepted.
  const Value& expect(std::string_view firsts, const char* what) const;

  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
  std::string_view text_;
  size_t offset_ = 0;
};

// Parses one document. Values view `text`, so a temporary is refused.
Value parse(const std::string& text);
Value parse(std::string&&) = delete;

template <typename T>
T Value::number() const {
  expect("-0123456789", "a number");
  T v{};
  const char* const last = text_.data() + text_.size();
  // An integer T stops short of a fraction or an exponent.
  const auto [end, ec] = std::from_chars(text_.data(), last, v);
  if (ec != std::errc{} || end != last) {
    fail(std::is_integral_v<T> ? "expected an integer in range"
                               : "number out of range");
  }
  return v;
}

}  // namespace grace::util::json
