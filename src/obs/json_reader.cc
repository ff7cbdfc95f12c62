#include "obs/json_reader.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace pathix::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberAt(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

bool JsonValue::BoolAt(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

std::string JsonValue::StringAt(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_ : std::string(fallback);
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue j;
  j.type_ = Type::kArray;
  j.array_ = std::move(items);
  return j;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue j;
  j.type_ = Type::kObject;
  j.members_ = std::move(members);
  return j;
}

namespace {

/// Recursive-descent parser over one contiguous buffer. Depth-bounded so a
/// hostile input cannot blow the C++ stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    PATHIX_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting deeper than 64 levels");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        PATHIX_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::MakeString(std::move(s));
        return Status::OK();
      }
      case 't':
        PATHIX_RETURN_IF_ERROR(ConsumeLiteral("true"));
        *out = JsonValue::MakeBool(true);
        return Status::OK();
      case 'f':
        PATHIX_RETURN_IF_ERROR(ConsumeLiteral("false"));
        *out = JsonValue::MakeBool(false);
        return Status::OK();
      case 'n':
        PATHIX_RETURN_IF_ERROR(ConsumeLiteral("null"));
        *out = JsonValue::MakeNull();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::MakeObject(std::move(members));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      PATHIX_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      PATHIX_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    *out = JsonValue::MakeObject(std::move(members));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue::MakeArray(std::move(items));
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      PATHIX_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    *out = JsonValue::MakeArray(std::move(items));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return Error("truncated escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode. The writer only emits \u00XX (control bytes),
          // but accept the full BMP for robustness; surrogate pairs are
          // beyond what any pathix emitter produces and are rejected.
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  /// RFC 8259's -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — strtod
  /// alone also takes "+1", "01", ".5", "1." and hex.
  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > from;
    };
    Consume('-');
    bool ok = Consume('0') ? !digits() : digits();  // no leading zeros
    if (ok && Consume('.')) ok = digits();
    if (ok && (Consume('e') || Consume('E'))) {
      if (!Consume('+')) Consume('-');
      ok = digits();
    }
    if (pos_ == start) return Error("expected a value");
    // strtod needs a terminated buffer; the slice is short, copy it.
    const std::string token(text_.substr(start, pos_ - start));
    // Of strtod's ERANGE cases only overflow is an error: it rounds an
    // underflow to the nearest subnormal, which is what the writer wrote.
    const double value = ok ? std::strtod(token.c_str(), nullptr) : 0;
    if (!ok || std::isinf(value)) {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    *out = JsonValue::MakeNumber(value);
    return Status::OK();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace pathix::obs
