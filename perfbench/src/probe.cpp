#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <new>

// --- counting allocator ------------------------------------------------------
// Replaces the global operator new/delete for the benchmark binary only. The
// library itself is untouched; the count is process-wide (every thread), so
// a pool worker's allocation on behalf of a call is charged to that call.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so a child
  // of a large launcher would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

AllocWindow::AllocWindow()
    : start_(g_allocations.load(std::memory_order_relaxed)) {
  g_counting.store(true, std::memory_order_relaxed);
}

AllocWindow::~AllocWindow() {
  g_counting.store(false, std::memory_order_relaxed);
}

std::uint64_t AllocWindow::count() const {
  return g_allocations.load(std::memory_order_relaxed) - start_;
}

namespace {

/// 1-based nearest rank of the p-th percentile of n > 0 samples. The
/// epsilon keeps p * n that is an integer in exact arithmetic (99.9% of
/// 10000) from rounding up a rank.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t outcome_digest(const flip::TrialOutcome& o) {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t word) {
    char bytes[sizeof word];
    std::memcpy(bytes, &word, sizeof word);
    h = fnv1a(std::string_view(bytes, sizeof bytes), h);
  };
  const auto bits = [](double x) {
    std::uint64_t w = 0;
    std::memcpy(&w, &x, sizeof w);
    return w;
  };
  mix(o.success ? 1 : 0);
  mix(bits(o.rounds));
  mix(bits(o.messages));
  mix(bits(o.correct_fraction));
  mix(std::isnan(o.convergence_round) ? ~std::uint64_t{0}
                                      : bits(o.convergence_round));
  mix(o.delivered);
  mix(o.dropped);
  mix(o.erased);
  mix(o.flipped);
  return h;
}

bool conserves(const flip::TrialOutcome& o) {
  return o.messages ==
         static_cast<double>(o.delivered + o.dropped + o.erased);
}

// --- spans -------------------------------------------------------------------

namespace {
thread_local std::int64_t t_current_span = -1;
}  // namespace

void Tracer::enable(bool on) {
  std::lock_guard lock(mutex_);
  on_ = on;
  if (on && spans_.capacity() == 0) spans_.reserve(1u << 16);
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id) {
  std::lock_guard lock(mutex_);
  if (!on_) return -1;
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, t_current_span, id});
  t_current_span = index;
  return index;
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  std::lock_guard lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  t_current_span = span.parent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // never ended
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
