#pragma once
/// \file trace.hpp
/// In-memory spans the harness records around each public call it makes,
/// written at exit as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing). Disabled recorders record nothing: the untraced run
/// pays one branch per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint32_t tid = 0;      ///< track: 0 = harness thread, c + 1 = client c
  std::int64_t request = -1;  ///< serve request id, -1 otherwise
  std::string args_json;      ///< extra "key": value pairs, no braces
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::uint64_t next_id();
  void add(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Write {"traceEvents": [...]} with one complete ("X") event per span.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable unisvd::Mutex mu_;
  std::uint64_t next_id_ UNISVD_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ UNISVD_GUARDED_BY(mu_);
};

/// Records [construction, destruction) as one span when the recorder is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint32_t tid = 0,
             std::uint64_t parent = 0, std::int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  void set_args(std::string args_json) { span_.args_json = std::move(args_json); }

 private:
  SpanRecorder& rec_;
  Span span_;
};

}  // namespace perfbench
