#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "obs/json_writer.h"

/// \file decision_log.h
/// \brief JSONL framing for decision ledgers: one JsonWriter document per
/// record, one record per line.
///
/// The decision ledger (online/decision_record.h) is the audit trail of
/// every index-selection decision the controller takes. Its serialized form
/// is JSON Lines — each record a self-contained JSON object on its own
/// line — because the ledger is appended to as the run progresses and
/// consumers (pathix_explain, scripts/obs_smoke.py) stream it line by line
/// without holding the whole document. This class owns only the framing:
/// the schema of what goes *into* a record lives with the record types.

namespace pathix::obs {

/// Version stamp every ledger's meta record carries; consumers reject
/// ledgers from a different major schema (see pathix_explain).
/// Version 2 added the per-path `changes` of commit records; version 3
/// dropped the search's solver-mode flag and always writes
/// `search.greedy_seed` as an object.
inline constexpr int kDecisionLedgerSchemaVersion = 3;

/// \brief Accumulates JSONL records, each written through its own
/// JsonWriter.
///
/// Usage:
///   DecisionLog log;
///   JsonWriter& w = log.BeginRecord();
///   w.BeginObject().Key("type").Value("decision")...EndObject();
///   log.EndRecord();
///   file << log.str();
class DecisionLog {
 public:
  /// Opens a new record. DCHECKs that no record is already open.
  JsonWriter& BeginRecord() {
    PATHIX_DCHECK(!current_.has_value());
    current_.emplace();
    return *current_;
  }

  /// Closes the open record: its (balanced) document becomes one line of
  /// the ledger.
  void EndRecord() {
    PATHIX_DCHECK(current_.has_value());
    out_ += current_->str();
    out_.push_back('\n');
    current_.reset();
    ++records_;
  }

  /// Every completed record, one per '\n'-terminated line.
  const std::string& str() const {
    PATHIX_DCHECK(!current_.has_value());
    return out_;
  }

  std::size_t records() const { return records_; }

 private:
  std::optional<JsonWriter> current_;
  std::string out_;
  std::size_t records_ = 0;
};

}  // namespace pathix::obs
