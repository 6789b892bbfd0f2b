#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/strings.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Checker::expect(const std::string& key, std::string bytes) {
  expected_[key] = std::move(bytes);
}

const std::string& Checker::reference(const std::string& key) const {
  const auto it = expected_.find(key);
  if (it == expected_.end()) {
    throw std::logic_error("perfbench: no reference for " + key);
  }
  return it->second;
}

bool Checker::check(const std::string& key, const std::string& bytes) {
  const auto it = expected_.find(key);
  if (it != expected_.end() && it->second == bytes) {
    attempted_.fetch_add(1);
    return true;
  }
  fail("bytes differ from the threads-1 reference for " + key);
  return false;
}

void Checker::fail(const std::string& what) {
  attempted_.fetch_add(1);
  failed_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(log_mutex_);
  if (logged_++ < 5) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

std::string Checker::serialize() const {
  std::string out;
  for (const auto& [key, bytes] : expected_) {
    out += std::to_string(key.size()) + ' ' + std::to_string(bytes.size()) +
           '\n' + key + bytes;
  }
  return out;
}

void Checker::load(const std::string& in) {
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t nl = in.find('\n', pos);
    if (nl == std::string::npos) throw std::runtime_error("bad reference data");
    std::size_t key_len = 0, bytes_len = 0;
    if (std::sscanf(in.c_str() + pos, "%zu %zu", &key_len, &bytes_len) != 2 ||
        nl + 1 + key_len + bytes_len > in.size()) {
      throw std::runtime_error("bad reference data");
    }
    expected_[in.substr(nl + 1, key_len)] =
        in.substr(nl + 1 + key_len, bytes_len);
    pos = nl + 1 + key_len + bytes_len;
  }
}

void Checker::corrupt_first() {
  if (expected_.empty()) return;
  std::string& bytes = expected_.begin()->second;
  if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x01;
}

llamp::api::Request single_threaded(llamp::api::Request req) {
  std::visit(
      [](auto& r) {
        if constexpr (requires { r.threads; }) r.threads = 1;
      },
      req);
  return req;
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

void release_memory() { malloc_trim(0); }

void fix_mmap_threshold() { mallopt(M_MMAP_THRESHOLD, 32 << 20); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::int64_t next_span_id() {
  static std::atomic<std::int64_t> next{1};
  return next.fetch_add(1);
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// The calling thread's open spans: (span id, request id), innermost last.
thread_local std::vector<std::pair<std::int64_t, std::int64_t>> t_open;

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (!log_) return;
  span_.name = name;
  span_.id = next_span_id();
  if (!t_open.empty()) {
    span_.parent = t_open.back().first;
    span_.request = t_open.back().second;
  } else {
    span_.request = span_.id;
  }
  span_.thread = thread_index();
  t_open.emplace_back(span_.id, span_.request);
  span_.start_ns = now_ns();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::int64_t parent,
                      std::int64_t request)
    : log_(log) {
  if (!log_) return;
  span_.name = name;
  span_.id = next_span_id();
  span_.parent = parent;
  span_.request = request;
  span_.thread = thread_index();
  t_open.emplace_back(span_.id, span_.request);
  span_.start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  if (!log_) return;
  span_.end_ns = now_ns();
  t_open.pop_back();
  log_->record(span_);
}

void SpanLog::record(const Span& s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanLog::chrome_json() const {
  const auto all = spans();
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += llamp::strformat(
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
        "\"parent\": %lld, \"request\": %lld}}",
        i ? "," : "", s.name, s.thread, 1e-3 * static_cast<double>(s.start_ns),
        1e-3 * static_cast<double>(s.end_ns - s.start_ns),
        static_cast<long long>(s.id), static_cast<long long>(s.parent),
        static_cast<long long>(s.request));
  }
  out += "\n]}\n";
  return out;
}

SpanStats SpanStats::of(const std::vector<SpanLog::Span>& spans) {
  SpanStats st;
  std::map<std::int64_t, double> child_ns;
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (const auto& s : spans) {
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    st.duration_ns[s.name].push_back(dur);
    const auto it = child_ns.find(s.id);
    const double covered = it == child_ns.end() ? 0.0 : it->second;
    st.self_ns[s.name] += std::max(0.0, dur - covered);
    if (s.parent < 0) st.root_ns += dur;
  }
  return st;
}

}  // namespace perfbench
