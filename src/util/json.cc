#include "util/json.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

namespace grace::util::json {
namespace {

[[noreturn]] void fail_at(const std::string& why, size_t offset) {
  throw std::invalid_argument("JSON: " + why + " at offset " +
                              std::to_string(offset));
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void append_escaped(std::ostream& os, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (char c : s) {
    const auto uc = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (uc < 0x20) {
      os << "\\u00" << kHex[uc >> 4] << kHex[uc & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

void append_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

// Recursive descent over `text` from byte offset `at`; each value records
// the span of text it was read from.
struct Parser {
  std::string_view text;
  size_t at = 0;

  [[noreturn]] void fail(const std::string& why) const { fail_at(why, at); }
  // '\0' past the end, which no caller looks for.
  char peek() const { return at < text.size() ? text[at] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++at;
    return true;
  }
  void skip_ws() {
    constexpr std::string_view kSpace = " \t\n\r";
    while (kSpace.find(peek()) != kSpace.npos) ++at;
  }
  bool literal(std::string_view word) {
    if (text.substr(at, word.size()) != word) return false;
    at += word.size();
    return true;
  }

  // A value and the whitespace around it.
  Value value(int depth) {
    skip_ws();
    Value v;
    v.offset_ = at;
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) fail("nesting deeper than kMaxDepth");
      elements(v, depth + 1, c == '{' ? '}' : ']');
    } else if (c == '"') {
      v.string_ = string();
    } else if (c == '-' || is_digit(c)) {
      number();
    } else if (!literal("true") && !literal("false") && !literal("null")) {
      fail("expected a value");
    }
    v.text_ = text.substr(v.offset_, at - v.offset_);
    skip_ws();
    return v;
  }

  // The members of an object (`close` is '}') or the items of an array.
  void elements(Value& v, int depth, char close) {
    ++at;  // '{' or '['
    skip_ws();
    if (eat(close)) return;
    std::set<std::string> names;
    do {
      if (close == ']') {
        v.items_.push_back(value(depth));
        continue;
      }
      const Value name = value(depth);
      if (!names.insert(name.string()).second) {
        name.fail("duplicate name \"" + name.string() + "\"");
      }
      if (!eat(':')) fail("expected ':'");
      v.members_.emplace_back(name.string(), value(depth));
    } while (eat(','));
    if (!eat(close)) fail(std::string("expected ',' or '") + close + "'");
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void number() {
    eat('-');
    if (!eat('0')) digits();
    if (eat('.')) digits();
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      digits();
    }
  }
  void digits() {
    if (!is_digit(peek())) fail("expected a digit");
    while (is_digit(peek())) ++at;
  }

  std::string string() {
    ++at;  // '"'
    std::string out;
    while (!eat('"')) {
      const char c = peek();
      if (at == text.size()) fail("unterminated string");
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      ++at;
      if (c != '\\') {
        out += c;
      } else if (eat('u')) {
        append_utf8(out);
      } else {
        const size_t simple = std::string_view("\"\\/bfnrt").find(peek());
        if (simple == std::string_view::npos) fail("invalid escape");
        out += "\"\\/\b\f\n\r\t"[simple];
        ++at;
      }
    }
    return out;
  }

  // Appends the code point of a \u escape whose "\u" was just read, a
  // surrogate pair joined, as UTF-8; a lone surrogate throws.
  void append_utf8(std::string& out) {
    uint32_t cp = hex4();
    if (cp >= 0xd800 && cp <= 0xdbff && eat('\\') && eat('u')) {
      const uint32_t low = hex4();
      if (low >= 0xdc00 && low <= 0xdfff) {
        cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
      }
    }
    if (cp >= 0xd800 && cp <= 0xdfff) fail("lone surrogate");
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    const uint32_t lead = tail == 0 ? 0 : (0xff << (7 - tail)) & 0xff;
    out += static_cast<char>(lead | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }
  }
  uint32_t hex4() {
    uint32_t v = 0;
    const char* p = text.data() + at;
    if (text.size() - at < 4 || std::from_chars(p, p + 4, v, 16).ptr != p + 4) {
      fail("expected four hex digits");
    }
    at += 4;
    return v;
  }
};

Value parse(const std::string& text) {
  Parser parser{text};
  Value v = parser.value(0);
  if (parser.at != text.size()) parser.fail("trailing characters");
  return v;
}

void Value::fail(const std::string& why) const { fail_at(why, offset_); }

const Value& Value::expect(std::string_view firsts, const char* what) const {
  if (text_.empty() || firsts.find(text_[0]) == firsts.npos) {
    fail(std::string("expected ") + what);
  }
  return *this;
}

const Value& Value::at(std::string_view name) const {
  for (const auto& [member, value] : object()) {
    if (member == name) return value;
  }
  fail("no member \"" + std::string(name) + "\"");
}

}  // namespace grace::util::json
