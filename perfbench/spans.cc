#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

// Span storage comes straight from malloc, so the counting operator new in
// heap.cc sees only the program's own allocations.
template <typename T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <typename U>
  MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    std::abort();
  }
  void deallocate(T* p, size_t) { std::free(p); }
  friend bool operator==(const MallocAllocator&, const MallocAllocator&) {
    return true;
  }
};

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t next_seq = 0;
  std::vector<uint64_t, MallocAllocator<uint64_t>> open;  // open span ids
  std::vector<Span, MallocAllocator<Span>> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_ambient{0};

// Buffers outlive their threads (the kernel's workers exit with each cell);
// the registry owns them and DrainSpans empties them.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->index = static_cast<uint32_t>(g_buffers.size() - 1);
  }
  return buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kCell:
      return "cell";
    case SpanName::kClusterSetup:
      return "txn.cluster_setup";
    case SpanName::kEngineSetup:
      return "engine.setup";
    case SpanName::kWorkloadSetup:
      return "workload.setup";
    case SpanName::kClientsSetup:
      return "harness.clients_setup";
    case SpanName::kSlice:
      return "sim.slice";
    case SpanName::kSnapshot:
      return "obs.snapshot";
    case SpanName::kAggregate:
      return "harness.aggregate";
    case SpanName::kTeardown:
      return "teardown";
    case SpanName::kExecute:
      return "engine.execute";
    case SpanName::kNext:
      return "workload.next";
    case SpanName::kNumNames:
      break;
  }
  return "?";
}

void SetSpansEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetAmbientParent(uint64_t id) {
  g_ambient.store(id, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanName name) {
  if (!SpansEnabled()) return;
  ThreadBuffer* b = LocalBuffer();
  active_ = true;
  span_.name = name;
  span_.thread = b->index;
  // Thread index in the high bits keeps ids unique without a shared counter.
  span_.id = (static_cast<uint64_t>(b->index + 1) << 40) | ++b->next_seq;
  span_.parent = b->open.empty() ? g_ambient.load(std::memory_order_relaxed)
                                 : b->open.back();
  b->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadBuffer* b = LocalBuffer();
  b->open.pop_back();
  b->spans.push_back(span_);
}

std::vector<Span> DrainSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (const std::unique_ptr<ThreadBuffer>& b : g_buffers) {
    size_t first = out.size();
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    std::sort(out.begin() + static_cast<long>(first), out.end(),
              [](const Span& x, const Span& y) {
                return x.start_ns < y.start_ns;
              });
    b->spans.clear();
  }
  return out;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,thread,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 SpanNameString(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
