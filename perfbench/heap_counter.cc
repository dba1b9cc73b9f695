// Counting replacements of the global operator new/delete family. They are
// linked into the benchmark binary only, so every allocation the library
// makes while the driver measures it is counted, on both sides of any
// comparison. Sizes are malloc_usable_size() of the block, taken at
// allocation and again at release, so the two always balance.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {
namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

// Publishes `bytes` of net allocation to the shared counters.
void Publish(int64_t bytes) {
  const int64_t now =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

// Each thread collects its net allocation here and publishes it only once
// it passes kPublishBytes either way, so pool threads that allocate many
// small blocks rarely write the shared cache lines. A thread publishes the
// rest when it exits.
constexpr int64_t kPublishBytes = 64 * 1024;

struct PendingBytes {
  int64_t bytes = 0;
  ~PendingBytes() { Publish(bytes); }
};

thread_local PendingBytes t_pending;

void Add(int64_t bytes) {
  const int64_t pending = t_pending.bytes + bytes;
  if (pending < kPublishBytes && pending > -kPublishBytes) {
    t_pending.bytes = pending;
    return;
  }
  t_pending.bytes = 0;
  Publish(pending);
}

// The query functions run on the driver's client thread: publishing its
// own pending bytes first makes them exact for that thread, and within
// kPublishBytes for each other thread.
void PublishOwn() {
  const int64_t pending = t_pending.bytes;
  t_pending.bytes = 0;
  if (pending != 0) Publish(pending);
}

void Track(void* block) {
  Add(static_cast<int64_t>(malloc_usable_size(block)));
}

void* Allocate(std::size_t size) {
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  Track(block);
  return block;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* block = nullptr;
  if (posix_memalign(&block, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  Track(block);
  return block;
}

void Release(void* block) noexcept {
  if (block == nullptr) return;
  Add(-static_cast<int64_t>(malloc_usable_size(block)));
  std::free(block);
}

}  // namespace

int64_t HeapLiveBytes() {
  PublishOwn();
  return g_live.load(std::memory_order_relaxed);
}

int64_t HeapPeakBytes() {
  PublishOwn();
  return g_peak.load(std::memory_order_relaxed);
}

void ResetHeapPeak() {
  PublishOwn();
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* block) noexcept { perfbench::Release(block); }
void operator delete[](void* block) noexcept { perfbench::Release(block); }
void operator delete(void* block, std::size_t) noexcept {
  perfbench::Release(block);
}
void operator delete[](void* block, std::size_t) noexcept {
  perfbench::Release(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  perfbench::Release(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  perfbench::Release(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  perfbench::Release(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  perfbench::Release(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::Release(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::Release(block);
}
