// Heap accounting for the benchmark binary: heap.cc replaces the global
// operator new/delete with forwarders to malloc/free that, while tracking is
// on, count allocations and follow the live byte total and its peak. With
// tracking off (the untraced pass) the forwarders do no accounting at all.
#ifndef PERFBENCH_HEAP_H_
#define PERFBENCH_HEAP_H_

#include <cstdint>

namespace perfbench {

/// Turns allocation accounting on or off. Enabling resets the counters and
/// takes the allocator's current in-use bytes as the live baseline.
void SetHeapTracking(bool on);

/// operator new calls since tracking was last enabled.
uint64_t HeapAllocs();

/// Live heap bytes (baseline plus tracked growth) and the peak of that
/// figure since tracking was last enabled.
double HeapLiveBytes();
double HeapPeakBytes();

}  // namespace perfbench

#endif  // PERFBENCH_HEAP_H_
