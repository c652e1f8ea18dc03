// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
#include "span_ledger.h"

#include <charconv>

#include "common/check.h"

namespace perfbench {
namespace {

// The text after `"key":` in a flat JSON line, or empty.
std::string_view Field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  return line.substr(at + pattern.size());
}

double Number(std::string_view line, std::string_view key) {
  const std::string_view v = Field(line, key);
  double out = 0;
  if (!v.empty()) std::from_chars(v.data(), v.data() + v.size(), out);
  return out;
}

std::string_view String(std::string_view line, std::string_view key) {
  std::string_view v = Field(line, key);
  if (v.size() < 2 || v[0] != '"') return {};
  v.remove_prefix(1);
  return v.substr(0, v.find('"'));
}

}  // namespace

SpanLedger::SpanLedger() {
  cookie_io_functions_t io{};
  io.write = &SpanLedger::Write;
  file_ = fopencookie(this, "w", io);
  REXP_CHECK(file_ != nullptr);
}

SpanLedger::~SpanLedger() { Close(); }

void SpanLedger::Close() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
}

ssize_t SpanLedger::Write(void* cookie, const char* buf, size_t size) {
  auto* self = static_cast<SpanLedger*>(cookie);
  self->partial_.append(buf, size);
  size_t start = 0;
  for (size_t nl; (nl = self->partial_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    self->Line(std::string_view(self->partial_).substr(start, nl - start));
  }
  self->partial_.erase(0, start);
  return static_cast<ssize_t>(size);
}

void SpanLedger::Line(std::string_view line) {
  const std::string_view ph = String(line, "ph");
  if (ph.empty()) return;  // A point event, not a span boundary.
  const auto id = static_cast<uint64_t>(Number(line, "span"));
  if (ph == "B") {
    open_[id] = OpenSpan{std::string(String(line, "type")),
                         static_cast<uint64_t>(Number(line, "parent")), 0};
    return;
  }
  auto it = open_.find(id);
  if (it == open_.end()) return;
  const double dur = Number(line, "dur_us");
  self_us_[it->second.type] += dur - it->second.child_us;
  const uint64_t parent = it->second.parent;
  open_.erase(it);
  if (parent == 0) {
    top_level_us_ += dur;
  } else if (auto p = open_.find(parent); p != open_.end()) {
    p->second.child_us += dur;
  }
}

}  // namespace perfbench
