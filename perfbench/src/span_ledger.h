// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Consumes the tree's own span stream (obs::Tracer JSONL, attached through
// Tree::set_tracer) as it is written and totals each span kind's self
// time: its duration minus the durations of its direct children. Lines
// are parsed from a stdio cookie stream as the tracer flushes them, so the
// trace is never held in memory or written to a file.
#ifndef PERFBENCH_SPAN_LEDGER_H_
#define PERFBENCH_SPAN_LEDGER_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include <sys/types.h>

namespace perfbench {

class SpanLedger {
 public:

  SpanLedger();
  ~SpanLedger();
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  // The stream to hand to obs::Tracer (not owned by the tracer). Valid
  // until Close().
  std::FILE* file() const { return file_; }
  // Flushes and closes the stream; call after the tracer is destroyed.
  void Close();

  // Summed self time by span type ("insert", "update", "split",
  // "write_back", ...).
  const std::map<std::string, double>& self_us() const { return self_us_; }
  // Top-level spans only: their summed duration.
  double top_level_us() const { return top_level_us_; }

 private:
  static ssize_t Write(void* cookie, const char* buf, size_t size);
  void Line(std::string_view line);

  struct OpenSpan {
    std::string type;
    uint64_t parent = 0;
    double child_us = 0;
  };

  std::FILE* file_ = nullptr;
  std::string partial_;
  std::unordered_map<uint64_t, OpenSpan> open_;
  std::map<std::string, double> self_us_;
  double top_level_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LEDGER_H_
