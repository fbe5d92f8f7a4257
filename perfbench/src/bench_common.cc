#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - origin)
      .count();
}

void WaitUntil(int64_t due_ns) {
  // Spin: on a virtual machine a sleeping thread can wake milliseconds
  // late, which would make the generator, not the program, set the
  // tail. Only far-away deadlines are slept towards.
  constexpr int64_t kSleepMarginNs = 5'000'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSleepMarginNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSleepMarginNs));
  }
  while (NowNs() < due_ns) {
    CpuRelax();
  }
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values->size()))) - 1;
  return (*values)[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

PhaseLedger* Report::AddPhase(const std::string& name) {
  phases_.push_back(PhaseLedger{});
  phases_.back().name = name;
  return &phases_.back();
}

void Report::AddMetric(const std::string& name, double value,
                       const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

uint64_t Report::late_ops() const {
  uint64_t late = 0;
  for (const PhaseLedger& phase : phases_) late += phase.late_ops;
  return late;
}

void Report::Fail(const std::string& what) {
  ++violations_;
  if (first_violations_.size() < 10) first_violations_.push_back(what);
}

void Report::Print(const std::string& workload) const {
  std::printf("workload %s\n", workload.c_str());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PhaseLedger& phase : phases_) {
    attempted += phase.attempted;
    failed += phase.failed;
    std::printf(
        "  phase %-16s attempted %10llu completed %10llu failed %6llu",
        phase.name.c_str(), static_cast<unsigned long long>(phase.attempted),
        static_cast<unsigned long long>(phase.completed),
        static_cast<unsigned long long>(phase.failed));
    if (phase.late_max_ms > 0.0) {
      std::printf("  late p99 %.3f ms max %.3f ms%s", phase.late_p99_ms,
                  phase.late_max_ms,
                  phase.behind ? "  GENERATOR BEHIND SCHEDULE" : "");
    }
    std::printf("\n");
  }
  for (const Metric& metric : metrics_) {
    std::printf("  %-28s %16.6f %-8s n=%llu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  if (violations_ > 0) {
    std::printf("  CORRECTNESS: %llu violations\n",
                static_cast<unsigned long long>(violations_));
    for (const std::string& v : first_violations_) {
      std::printf("    %s\n", v.c_str());
    }
  } else {
    std::printf("  correctness checks passed\n");
  }
  std::string json = "{\"correct\": ";
  json += violations_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            Num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint64_t Tracer::Add(const char* name, uint64_t parent, uint64_t request,
                     int64_t start_ns, int64_t end_ns, std::string attrs) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(
      {id, parent, request, start_ns, end_ns, name, std::move(attrs)});
  return id;
}

void Tracer::Close(uint64_t id, int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end_ns;
}

void Tracer::Meta(const std::string& key, const std::string& value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  meta_.emplace_back(key, value);
}

bool Tracer::Write(const std::string& path) const {
  if (!enabled_) return true;
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& [key, value] : meta_) {
    std::fprintf(out, "#meta\t%s\t%s\n", key.c_str(), value.c_str());
  }
  for (const Span& s : spans_) {
    std::fprintf(out, "%llu\t%llu\t%s\t%llu\t%lld\t%lld\t%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.attrs.empty() ? "-" : s.attrs.c_str());
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
