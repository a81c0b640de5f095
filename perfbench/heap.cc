#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_tracking{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<int64_t> g_live{0};  // bytes allocated minus freed since enable
std::atomic<int64_t> g_peak{0};
int64_t g_baseline = 0;  // allocator in-use bytes when tracking was enabled

void* Allocate(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr && g_tracking.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto n = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
    int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed)) {
    }
  }
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

void* AllocateOrAbort(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  std::abort();  // the benchmark does not recover from OOM
}

}  // namespace

void SetHeapTracking(bool on) {
  if (on) {
    struct mallinfo2 mi = mallinfo2();
    g_baseline = static_cast<int64_t>(mi.uordblks + mi.hblkhd);
    g_allocs.store(0, std::memory_order_relaxed);
    g_live.store(0, std::memory_order_relaxed);
    g_peak.store(0, std::memory_order_relaxed);
  }
  g_tracking.store(on, std::memory_order_relaxed);
}

uint64_t HeapAllocs() { return g_allocs.load(std::memory_order_relaxed); }

double HeapLiveBytes() {
  return static_cast<double>(g_baseline +
                             g_live.load(std::memory_order_relaxed));
}

double HeapPeakBytes() {
  return static_cast<double>(g_baseline +
                             g_peak.load(std::memory_order_relaxed));
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  return perfbench::AllocateOrAbort(size);
}
void* operator new[](std::size_t size) {
  return perfbench::AllocateOrAbort(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void operator delete(void* p) noexcept { perfbench::Release(p); }
void operator delete[](void* p) noexcept { perfbench::Release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::Release(p); }
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::Release(p);
}
