#pragma once

// Shared pieces of the repo benchmark's runner: run options, the metric
// sheet printed at the end, the byte checker every result goes through,
// the seeded generator, order statistics, process accounting, and the
// benchmark-owned span log used by traced runs.  Nothing here reaches
// inside the program: every number is taken around calls into llamp's
// public functions.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: flip one byte of one reference result, which the output
  /// check must then report.
  bool corrupt_reference = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (Python's statistics "inclusive" method);
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// splitmix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and standard library.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               1) {}
  std::uint64_t next();
  double uniform();  ///< in [0, 1)
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// The metrics of one run: name -> (value, unit).
using Sheet = std::map<std::string, std::pair<double, std::string>>;

/// The output check.  Every result's bytes are compared with the same
/// request's bytes from a fresh api::Engine run at threads 1 before timing
/// starts (the repo's warm == cold and thread-invariance walls).  Non-200
/// replies, exceptions and mismatches all count as failures.
class Checker {
 public:
  void expect(const std::string& key, std::string bytes);
  bool check(const std::string& key, const std::string& bytes);
  void fail(const std::string& what);
  /// Flip one byte of the first reference (Options::corrupt_reference).
  void corrupt_first();
  const std::string& reference(const std::string& key) const;
  /// The references as one byte string, and back (the reference pass runs
  /// in a child process).
  std::string serialize() const;
  void load(const std::string& bytes);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::map<std::string, std::string> expected_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex log_mutex_;
  int logged_ = 0;
};

/// A copy of the request with its inner parallelism knob forced to 1 (the
/// reference runs of the output check).
llamp::api::Request single_threaded(llamp::api::Request req);

/// CPU and context-switch accounting of this process (getrusage).
struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  static Usage now();
};

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Hand freed heap memory back to the system (malloc_trim).  Called
/// between set-ups, so engines built only to time set-up do not leave
/// their freed pages resident and inflate the peak of the next one.
void release_memory();

/// Fix glibc's mmap threshold at 32 MiB, the ceiling its dynamic rule
/// climbs to as large blocks are freed.  Left dynamic, the threshold moves
/// at moments that depend on thread timing, which spread mc_uq's
/// peak_rss_mb by 13% of the median over five seeds; fixed at the ceiling,
/// the allocator behaves as it does once warm from the first allocation
/// on.  Called once, before anything is allocated by the program.
void fix_mmap_threshold();

/// In-memory spans recorded by the benchmark around calls into the
/// program's public functions.  Each span has a name, start, end, parent
/// and the id of the request it belongs to; spans stay in memory until the
/// run ends.  A null SpanLog* disables recording at every call site.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t id = 0;
    std::int64_t parent = -1;   ///< -1 for a request's root span
    std::int64_t request = 0;   ///< root span id of the request
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int thread = 0;
  };

  /// RAII span; ids are unique across every SpanLog of the process, so the
  /// spans of several logs can be analysed together.  Without an explicit parent the span nests under the
  /// innermost open span of the calling thread; `parent`/`request` link a
  /// span to one opened on another thread (the server's executor runs the
  /// handler of a request the client thread opened).
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    Scope(SpanLog* log, const char* name, std::int64_t parent,
          std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return span_.id; }

   private:
    SpanLog* log_;
    Span span_;
  };

  std::vector<Span> spans() const;
  /// Chrome trace-event JSON of every span (load in chrome://tracing).
  std::string chrome_json() const;

 private:
  void record(const Span& s);
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-name statistics over a span set: durations and self times (a
/// span's duration minus the part its child spans cover).
struct SpanStats {
  std::map<std::string, std::vector<double>> duration_ns;
  std::map<std::string, double> self_ns;
  /// Summed duration of root spans (the blocking path of every request).
  double root_ns = 0.0;
  static SpanStats of(const std::vector<SpanLog::Span>& spans);
};

}  // namespace perfbench
