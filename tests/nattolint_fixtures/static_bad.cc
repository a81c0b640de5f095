// Fixture: mutable static state (3 violations).
#include <cstdint>
#include <vector>

uint64_t NextRequestId() {
  static uint64_t next_id = 0;  // the exact PR 1 bug class
  return ++next_id;
}

void Cache() {
  static std::vector<int> results;
  results.push_back(1);
}

class Engine {
  static int live_instances_;
};

// --- none of these are violations ---

static int Helper(int x) { return x + 1; }  // static linkage function

class Options {
 public:
  static Options Defaults();               // static member function
  static constexpr uint64_t kBase = 1000;  // constexpr constant
};

static const char* const kNames[] = {"a", "b"};  // immutable table

int Use() { return Helper(static_cast<int>(Options::kBase)); }
