#ifndef SPA_PERFBENCH_BENCH_COMMON_H_
#define SPA_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// Shared pieces of the benchmark program: the command line, the clock,
/// percentiles, the per-phase operation ledger, the result line, and
/// the in-memory span recorder of the traced run.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the process-wide origin.
int64_t NowNs();

/// Seconds between two `NowNs()` readings.
inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Spin-loop hint: lets a sibling hardware thread run.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Waits until `NowNs() >= due_ns`, spinning the last few ms.
void WaitUntil(int64_t due_ns);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
  /// Population of the serving workloads (read_hot, emotion_storm).
  size_t users = 100'000;
  /// Candidate pool of the campaign workload.
  size_t pool = 4'000;
};

/// Nearest-rank percentile of `values` (sorted in place); 0 if empty.
double Percentile(std::vector<double>* values, double q);

/// Median of `values` (sorted in place); 0 if empty.
double Median(std::vector<double> values);

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// \brief Attempted / completed / failed operations of one phase.
struct PhaseLedger {
  std::string name;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Open-loop generator health (zero for closed loops).
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
  bool behind = false;  ///< lateness beyond the benchmark's limit
  uint64_t late_ops = 0;  ///< ops sent later than the limit
};

/// \brief One end-to-end metric with its sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// \brief What one workload run reports.
class Report {
 public:
  PhaseLedger* AddPhase(const std::string& name);
  void AddMetric(const std::string& name, double value,
                 const std::string& unit, uint64_t samples);
  /// Records a correctness violation (the first few are printed).
  void Fail(const std::string& what);

  /// Ops sent later than `kLateLimitMs`, over every phase.
  uint64_t late_ops() const;
  /// Prints the human-readable phase and metric lines, then the
  /// result object as the last line of standard output.
  void Print(const std::string& workload) const;

 private:
  std::vector<PhaseLedger> phases_;
  std::vector<Metric> metrics_;
  uint64_t violations_ = 0;
  std::vector<std::string> first_violations_;
};

/// Late ops are flagged when the generator ran this far behind.
constexpr double kLateLimitMs = 5.0;

/// \brief In-memory spans of the traced run, written out at the end.
///
/// Span: name, start, end, parent span and request id. Optional
/// `key=value` attributes carry counts reported by the layer (cache
/// outcome, `LiveUpdateReport` fields). Thread-safe; a disabled tracer
/// records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records one span and returns its id (0 when disabled).
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns,
               std::string attrs = {});

  /// Opens a span whose end is not known yet (children need its id);
  /// `Close` sets the end.
  uint64_t Open(const char* name, uint64_t parent, uint64_t request,
                int64_t start_ns) {
    return Add(name, parent, request, start_ns, start_ns);
  }
  void Close(uint64_t id, int64_t end_ns);

  /// Run-level facts the trace tool needs (end-to-end figures of the
  /// traced run, the workload name).
  void Meta(const std::string& key, const std::string& value);

  /// Writes every span as one tab-separated line. Returns false when
  /// the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    const char* name;
    std::string attrs;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// Formats `value` with every digit a double carries.
std::string Num(double value);

int RunReadHot(const Options& options);
int RunEmotionStorm(const Options& options);
int RunCampaign(const Options& options);

}  // namespace perfbench

#endif  // SPA_PERFBENCH_BENCH_COMMON_H_
