// Heap allocations of the window join's hot path, counted by replacing the
// global operator new in this test binary (it is its own executable so
// the replacement touches no other test).
//
// Keyed pane state lives in flat per-pane tables (window/flat_key_map.h):
// once the operator is warm, a join allocates O(panes) times — the pane,
// its per-stream tables and their geometric growth — and folding an event
// into an existing key allocates nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/operators/join_operator.h"
#include "src/window/window_assigner.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Not inlined: where gcc sees the free() inside a caller that got its
// pointer from operator new, -Wmismatched-new-delete fires (under ASan's
// inlining), although this file's operator new is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace klink {
namespace {

constexpr int kStreams = 3;
constexpr int kKeys = 100;
constexpr DurationMicros kWindow = 1000;

/// One event per (key, stream) in pane `pane`, `repeats` times over.
void FeedPane(WindowJoinOperator& join, int64_t pane, int repeats,
              Emitter& out) {
  for (int r = 0; r < repeats; ++r) {
    for (int key = 0; key < kKeys; ++key) {
      for (int s = 0; s < kStreams; ++s) {
        const TimeMicros t = pane * kWindow + (key * 7 + r) % kWindow;
        join.Process(MakeDataEvent(t, t, static_cast<uint64_t>(key), 1.5, 64,
                                   s),
                     t, out);
      }
    }
  }
}

/// Watermarks on every stream that fire pane `pane`.
void FirePane(WindowJoinOperator& join, int64_t pane, Emitter& out) {
  const TimeMicros wm = (pane + 1) * kWindow;
  for (int s = 0; s < kStreams; ++s) {
    join.Process(MakeWatermark(wm, wm, s), wm, out);
  }
}

/// Emitter that counts outputs without storing them.
class CountingEmitter final : public Emitter {
 public:
  void Emit(const Event& /*e*/) override { ++emitted; }
  int64_t emitted = 0;
};

TEST(JoinAllocationTest, SteadyStateAllocatesPerPaneNotPerEvent) {
  WindowJoinOperator join("join", 1.0, MakeTumblingWindow(kWindow), kStreams);
  CountingEmitter out;
  // Warm-up: the operator's scratch vectors reach their working size.
  for (int64_t pane = 0; pane < 3; ++pane) {
    FeedPane(join, pane, 1, out);
    FirePane(join, pane, out);
  }

  constexpr int64_t kPanes = 20;
  constexpr int kRepeats = 4;
  const int64_t before = g_allocations.load();
  for (int64_t pane = 3; pane < 3 + kPanes; ++pane) {
    FeedPane(join, pane, kRepeats, out);
    FirePane(join, pane, out);
  }
  const int64_t allocations = g_allocations.load() - before;
  const int64_t events = kPanes * kRepeats * kKeys * kStreams;
  EXPECT_EQ(join.emitted_joins(), (3 + kPanes) * kKeys);
  // Per pane: its map node and stream vector, and per stream the doubling
  // growth of a 100-key table (8 entry + 6 index allocations).
  EXPECT_LE(allocations, kPanes * (2 + kStreams * 14));
  // A node-per-key table would pay kKeys * kStreams per pane.
  EXPECT_LT(allocations * 20, events);
}

TEST(JoinAllocationTest, FoldingIntoExistingKeysAllocatesNothing) {
  WindowJoinOperator join("join", 1.0, MakeTumblingWindow(kWindow), kStreams);
  CountingEmitter out;
  FeedPane(join, 0, 1, out);  // every (key, stream) of pane 0 exists now
  const int64_t before = g_allocations.load();
  FeedPane(join, 0, 10, out);
  EXPECT_EQ(g_allocations.load() - before, 0);
  FirePane(join, 0, out);
  EXPECT_EQ(join.emitted_joins(), kKeys);
}

}  // namespace
}  // namespace klink
