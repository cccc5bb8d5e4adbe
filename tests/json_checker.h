// Shared strict JSON validator for tests: enough JSON to check that the
// emitted documents (run_result_json, trace_chrome_json, the BENCH_*.json
// wrappers) parse, and to walk their keys. Deliberately
// strict — no trailing commas, no comments, no unconsumed suffix.
#pragma once

#include <cctype>
#include <set>
#include <string>

namespace grace::testing {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == s_.size();
  }

  // Every object key seen anywhere in the document.
  const std::set<std::string>& keys() const { return keys_; }

 private:
  bool value() {
    if (at_ >= s_.size()) return false;
    const char c = s_[at_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_lit(nullptr);
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++at_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string_lit(&key)) return false;
      keys_.insert(key);
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }

  bool array() {
    ++at_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }

  bool string_lit(std::string* out) {
    if (!expect('"')) return false;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\') {
        ++at_;
        if (at_ >= s_.size()) return false;
      }
      if (out) out->push_back(s_[at_]);
      ++at_;
    }
    return expect('"');
  }

  bool number() {
    const size_t start = at_;
    if (at_ < s_.size() && (s_[at_] == '-' || s_[at_] == '+')) ++at_;
    bool digits = false;
    auto run = [&] {
      while (at_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[at_]))) {
        ++at_;
        digits = true;
      }
    };
    run();
    if (at_ < s_.size() && s_[at_] == '.') { ++at_; run(); }
    if (digits && at_ < s_.size() && (s_[at_] == 'e' || s_[at_] == 'E')) {
      ++at_;
      if (at_ < s_.size() && (s_[at_] == '-' || s_[at_] == '+')) ++at_;
      const bool before = digits;
      digits = false;
      run();
      digits = digits && before;
    }
    return digits && at_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (at_ >= s_.size() || s_[at_] != *p) return false;
      ++at_;
    }
    return true;
  }

  void skip_ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_]))) {
      ++at_;
    }
  }
  bool peek(char c) {
    if (at_ < s_.size() && s_[at_] == c) { ++at_; return true; }
    return false;
  }
  bool expect(char c) {
    if (at_ < s_.size() && s_[at_] == c) { ++at_; return true; }
    return false;
  }

  const std::string& s_;
  size_t at_ = 0;
  std::set<std::string> keys_;
};

}  // namespace grace::testing
