#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace aapx::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  // JSON has no inf/nan literals; clamp to null-safe strings never produced
  // by our own instrumentation but defended against anyway.
  std::string s = buf;
  if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

void JsonWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view k, double value) {
  key(k);
  body_ += json_num(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, int value) {
  return field(k, static_cast<std::int64_t>(value));
}

JsonWriter& JsonWriter::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view k, std::string_view raw) {
  key(k);
  body_ += raw;
  return *this;
}

JsonWriter& JsonWriter::append(const JsonWriter& other) {
  if (other.body_.empty()) return *this;
  if (!body_.empty()) body_ += ',';
  body_ += other.body_;
  return *this;
}

const JsonValue* JsonValue::find(std::string_view k) const {
  if (type != Type::object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == k) return &value;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view k, double fallback) const {
  const JsonValue* v = find(k);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string JsonValue::str_or(std::string_view k,
                              std::string_view fallback) const {
  const JsonValue* v = find(k);
  return v != nullptr && v->is_string() ? v->string : std::string(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!value(v)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing garbage at offset " + std::to_string(pos_);
      }
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out.type = JsonValue::Type::string;
        return string(out.string);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out.type = JsonValue::Type::boolean;
        out.boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out.type = JsonValue::Type::boolean;
        out.boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out.type = JsonValue::Type::null;
        return true;
      default: return number(out);
    }
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return fail("bad exponent");
    }
    if (!digits) return fail("bad number");
    out.type = JsonValue::Type::number;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                             nullptr);
    return true;
  }

  bool string(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode (UTF-16 pairs are not combined; our own output
          // never emits astral-plane escapes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(JsonValue& out) {
    ++pos_;  // '['
    out.type = JsonValue::Type::array;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(JsonValue& out) {
    ++pos_;  // '{'
    out.type = JsonValue::Type::object;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string name;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected member name");
      }
      if (!string(name)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace_back(std::move(name), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace aapx::obs
