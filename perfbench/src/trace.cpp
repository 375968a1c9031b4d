#include "trace.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanRecorder::next_id() {
  unisvd::LockGuard lock(mu_);
  return next_id_++;
}

void SpanRecorder::add(Span span) {
  if (!enabled_) return;
  unisvd::LockGuard lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  unisvd::LockGuard lock(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Span names are harness literals: no JSON escaping needed.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu",
                 s.name.c_str(), s.tid, s.start_us, s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    if (s.request >= 0) std::fprintf(f, ", \"request\": %lld", static_cast<long long>(s.request));
    if (!s.args_json.empty()) std::fprintf(f, ", %s", s.args_json.c_str());
    std::fputs(i + 1 < all.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, std::string name, std::uint32_t tid,
                       std::uint64_t parent, std::int64_t request)
    : rec_(rec) {
  if (!rec_.enabled()) return;
  span_.name = std::move(name);
  span_.id = rec_.next_id();
  span_.parent = parent;
  span_.tid = tid;
  span_.request = request;
  span_.start_us = rec_.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!rec_.enabled()) return;
  span_.end_us = rec_.now_us();
  rec_.add(std::move(span_));
}

}  // namespace perfbench
