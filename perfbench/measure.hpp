// Measurement helpers of the benchmark: clocks, process and thread
// counters read from the kernel, the host fingerprint every run record
// carries, a log-linear latency histogram and quantiles of raw samples.
#pragma once

#include <dirent.h>
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace perfbench {

using sjoin::NowNs;

inline int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

/// Involuntary context switches of every thread of the process so far.
inline int64_t InvoluntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

/// Peak resident set size of the process (VmHWM) in MiB; 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// On-CPU nanoseconds of every thread of the process except the calling
/// (main) one, keyed by thread id, from /proc/self/task/<tid>/schedstat.
inline std::map<int, int64_t> OtherThreadCpuNs() {
  std::map<int, int64_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const int self = static_cast<int>(syscall(SYS_gettid));
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const int tid = std::atoi(e->d_name);
    if (tid == self) continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name +
                     "/schedstat");
    int64_t on_cpu = 0;
    if (in >> on_cpu) out[tid] = on_cpu;
  }
  closedir(dir);
  return out;
}

inline int ThreadCount() {
  return static_cast<int>(OtherThreadCpuNs().size()) + 1;
}

/// The bracketed transparent-huge-page mode ("always", "madvise", "never").
inline std::string ThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('[');
  const auto close = text.find(']');
  if (open == std::string::npos || close == std::string::npos) {
    return "unknown";
  }
  return text.substr(open + 1, close - open - 1);
}

/// True when a hardware cycle counter can be opened for this process.
inline bool PmuAvailable() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

/// Log-linear latency histogram: exact below 64 ns, then 64 buckets per
/// power of two (each under 1.6% wide). Quantiles interpolate inside the
/// bucket, so they keep all their digits. sjoin::LatencyHistogram returns
/// bucket midpoints about 3% apart instead, so a p50 that moves by less
/// than a bucket reads identically from run to run.
class LatencyHist {
 public:
  void Add(int64_t ns) {
    const uint64_t v = ns <= 0 ? 0 : static_cast<uint64_t>(ns);
    ++counts_[Index(v)];
    ++n_;
  }

  uint64_t count() const { return n_; }

  /// Value at quantile q (0..1) in milliseconds; 0 when empty.
  double QuantileMs(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      const double next = cum + counts_[b];
      if (next >= target) {
        const double within = (target - cum) / counts_[b];
        return (static_cast<double>(Low(b)) +
                within * static_cast<double>(Width(b))) / 1e6;
      }
      cum = next;
    }
    return static_cast<double>(Low(kBuckets - 1)) / 1e6;
  }

 private:
  static constexpr uint64_t kSub = 64;
  static constexpr std::size_t kBuckets = kSub + 58 * kSub;

  static std::size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= 6
    const std::size_t i = kSub + static_cast<std::size_t>(e - 6) * kSub +
                          static_cast<std::size_t>((v >> (e - 6)) - kSub);
    return i;
  }
  static uint64_t Low(std::size_t b) {
    if (b < kSub) return b;
    const uint64_t e = (b - kSub) / kSub;
    return (kSub + (b - kSub) % kSub) << e;
  }
  static uint64_t Width(std::size_t b) {
    return b < kSub ? 1 : uint64_t{1} << ((b - kSub) / kSub);
  }

  std::array<uint32_t, kBuckets> counts_{};
  uint64_t n_ = 0;
};

/// Quantile of raw samples (nearest rank after sorting a copy).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

}  // namespace perfbench
