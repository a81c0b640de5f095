// Host-time spans recorded from the benchmark's own code: around cell
// construction, simulation slices and aggregation on the main thread, and
// inside the Workload / TxnEngine decorators, which the site-parallel kernel
// invokes from its worker threads. Each thread appends to its own buffer, so
// recording takes no lock; buffers are read only after every simulation
// thread of a cell has been joined.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kCell,
  kClusterSetup,
  kEngineSetup,
  kWorkloadSetup,
  kClientsSetup,
  kSlice,
  kSnapshot,
  kAggregate,
  kTeardown,
  kExecute,
  kNext,
  kNumNames,
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;  // index of the recording thread's buffer
  SpanName name = SpanName::kCell;
};

/// Host monotonic clock in ns.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Global recording switch; when off, ScopedSpan records nothing.
void SetSpansEnabled(bool on);
bool SpansEnabled();

/// The span that events on threads with no open span of their own belong
/// to: the simulation slice the main thread is running (worker threads run
/// inside it).
void SetAmbientParent(uint64_t id);

/// Records one span on the calling thread; its parent is the innermost span
/// open on this thread, or the ambient parent when none is.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
};

/// Moves every thread's recorded spans out, ordered by (thread, start).
std::vector<Span> DrainSpans();

/// Writes spans as CSV: id,parent,thread,name,start_ns,end_ns.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
