// Counting replacements for the global allocation functions. This TU is
// deliberately isolated in its own static library (`jmb_alloc_count`):
// only binaries that opt in — the zero-allocation tests — get the
// replaced operators; everything else keeps the stock allocator.
#include "obs/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace jmb::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_deallocs{0};
std::atomic<std::uint64_t> g_bytes{0};

/// Honor JMB_COUNT_ALLOCS once, before the first counted allocation.
bool env_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("JMB_COUNT_ALLOCS");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return on;
}

bool counting() {
  return g_enabled.load(std::memory_order_relaxed) || env_enabled();
}

void on_alloc(std::size_t size) {
  if (!counting()) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void on_dealloc() {
  if (!counting()) return;
  g_deallocs.fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void set_alloc_counting(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset_alloc_counts() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_deallocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_deallocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace jmb::obs

// ---- Global allocation-function replacements ------------------------------

void* operator new(std::size_t size) {
  jmb::obs::on_alloc(size);
  return jmb::obs::checked_malloc(size);
}

void* operator new[](std::size_t size) {
  jmb::obs::on_alloc(size);
  return jmb::obs::checked_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  jmb::obs::on_alloc(size);
  return jmb::obs::checked_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  jmb::obs::on_alloc(size);
  return jmb::obs::checked_aligned(size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  jmb::obs::on_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  jmb::obs::on_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete(void* p, std::align_val_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  jmb::obs::on_dealloc();
  std::free(p);
}
