#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file json_writer.h
/// \brief Tiny streaming JSON writer: correct escaping, nested objects and
/// arrays, automatic commas — and nothing else.
///
/// Every machine-readable artifact the project emits goes through this one
/// class: the BENCH_*.json one-liners (bench/bench_json.h), the metrics
/// snapshot (obs/export.h), the decision ledger (online/decision_record.h)
/// and the chrome://tracing trace files (obs/trace.h). Before it existed each
/// emitter hand-assembled strings with ad-hoc (and incomplete) escaping;
/// centralizing the quoting is the point, not expressiveness.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("name").Value("x").Key("xs").BeginArray()
///       .Value(1.0).Value(2.0).EndArray().EndObject();
///   file << w.str();
///
/// The writer DCHECKs structural misuse (value without key inside an
/// object, unbalanced End*) in debug builds; it never throws.

namespace pathix::obs {

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    OpenValue();
    out_.push_back('{');
    stack_.push_back(Frame{/*is_object=*/true, /*count=*/0});
    return *this;
  }
  JsonWriter& EndObject() {
    PATHIX_DCHECK(!stack_.empty() && stack_.back().is_object && !after_key_);
    out_.push_back('}');
    stack_.pop_back();
    return *this;
  }
  JsonWriter& BeginArray() {
    OpenValue();
    out_.push_back('[');
    stack_.push_back(Frame{/*is_object=*/false, /*count=*/0});
    return *this;
  }
  JsonWriter& EndArray() {
    PATHIX_DCHECK(!stack_.empty() && !stack_.back().is_object);
    out_.push_back(']');
    stack_.pop_back();
    return *this;
  }

  /// Writes the member key of the next value. Only legal inside an object.
  JsonWriter& Key(std::string_view key) {
    PATHIX_DCHECK(!stack_.empty() && stack_.back().is_object && !after_key_);
    Separate();
    AppendQuoted(key);
    out_.push_back(':');
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(std::string_view v) {
    OpenValue();
    AppendQuoted(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  /// Doubles: shortest round-trip-safe rendering; non-finite becomes null
  /// (JSON has no inf/nan). Integral values print without an exponent so
  /// counters stay greppable.
  JsonWriter& Value(double v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(bool v) {
    OpenValue();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Null() {
    OpenValue();
    out_ += "null";
    return *this;
  }

  /// The document so far. Complete (balanced) once every Begin* has its
  /// End* — DCHECKed here.
  const std::string& str() const {
    PATHIX_DCHECK(stack_.empty());
    return out_;
  }

  /// Appends \p s to \p out with full JSON escaping (quote, backslash,
  /// \n \r \t \b \f shortcuts, \u00XX for remaining control characters).
  /// Non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
  static void AppendEscaped(std::string* out, std::string_view s);

 private:
  struct Frame {
    bool is_object;
    int count;
  };

  /// Comma bookkeeping before a key or a value at the current level.
  void Separate() {
    if (!stack_.empty() && stack_.back().count++ > 0) out_.push_back(',');
  }
  /// Position check + separation for a value: after a key inside an
  /// object, or a (comma-separated) element of an array / the root.
  void OpenValue() {
    if (after_key_) {
      after_key_ = false;
      return;  // Key() already separated
    }
    PATHIX_DCHECK(stack_.empty() || !stack_.back().is_object);
    Separate();
  }
  void AppendQuoted(std::string_view s) {
    out_.push_back('"');
    AppendEscaped(&out_, s);
    out_.push_back('"');
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace pathix::obs
