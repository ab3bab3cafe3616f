#include "obs/flight/recorder.h"

#include <bit>
#include <cstring>

// Header-only strict env parsing (no link dependency on the engine lib);
// the flight knobs follow the same warn-once convention as JMB_THREADS.
#include "engine/env.h"

namespace jmb::obs::flight {

FlightRing::FlightRing(std::size_t capacity_pow2, std::uint32_t tid)
    : slots_(new Slot[capacity_pow2]),
      mask_(capacity_pow2 - 1),
      tid_(tid) {}

std::vector<FlightRecord> FlightRing::snapshot(std::size_t last_n) const {
  const std::uint64_t e1 = end_.load(std::memory_order_acquire);
  const std::uint64_t avail =
      e1 < capacity() ? e1 : static_cast<std::uint64_t>(capacity());
  const std::uint64_t want =
      (last_n != 0 && last_n < avail) ? last_n : avail;

  struct Raw {
    std::uint64_t w[4];
  };
  std::vector<Raw> raw(static_cast<std::size_t>(want));
  for (std::uint64_t i = 0; i < want; ++i) {
    const std::uint64_t j = e1 - want + i;
    const Slot& s = slots_[j & mask_];
    raw[i].w[0] = s.w[0].load(std::memory_order_relaxed);
    raw[i].w[1] = s.w[1].load(std::memory_order_relaxed);
    raw[i].w[2] = s.w[2].load(std::memory_order_relaxed);
    raw[i].w[3] = s.w[3].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t b2 = begin_.load(std::memory_order_relaxed);

  std::vector<FlightRecord> out;
  out.reserve(raw.size());
  for (std::uint64_t i = 0; i < want; ++i) {
    const std::uint64_t j = e1 - want + i;
    // The writer may have been rewriting slot j if it has since claimed
    // logical index j + capacity or later; drop those (possibly torn).
    if (b2 > j + capacity()) continue;
    FlightRecord rec;
    rec.tsc = raw[i].w[0];
    rec.flow = raw[i].w[1];
    rec.value = raw[i].w[2];
    rec.name = static_cast<std::uint32_t>(raw[i].w[3] & 0xffffffffu);
    rec.type = static_cast<EventType>((raw[i].w[3] >> 32) & 0xffu);
    out.push_back(rec);
  }
  return out;
}

FlightRecorder& FlightRecorder::instance() {
  // Deliberately leaked: operator-thread leases release rings back here
  // at thread exit, and dumps may happen during static destruction —
  // a destroyed singleton would turn both into use-after-free.
  static FlightRecorder* g = new FlightRecorder();
  return *g;
}

FlightRecorder::FlightRecorder() {
  static bool warned_enabled = false;
  static bool warned_depth = false;
  enabled_.store(
      engine::env_u64("JMB_FLIGHT", 1, /*min_one=*/false, warned_enabled) != 0,
      std::memory_order_relaxed);
  const std::uint64_t depth = engine::env_u64("JMB_FLIGHT_DEPTH", 8192,
                                              /*min_one=*/true, warned_depth);
  capacity_ = std::bit_ceil(
      static_cast<std::size_t>(depth < 64 ? 64 : depth));
  // Reserve id 0 for the overflow alias so a full table degrades loudly
  // ("?") instead of mis-attributing records.
  (void)intern("?");
}

FlightRecorder::ThreadLease::~ThreadLease() {
  if (ring != nullptr) FlightRecorder::instance().release_ring(ring);
}

FlightRing* FlightRecorder::local_ring() {
  if (!enabled()) return nullptr;
  thread_local ThreadLease lease;
  if (lease.ring == nullptr) lease.ring = acquire_ring();
  return lease.ring;
}

FlightRing* FlightRecorder::acquire_ring() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  if (!free_rings_.empty()) {
    FlightRing* r = free_rings_.back();
    free_rings_.pop_back();
    return r;
  }
  rings_.push_back(std::make_unique<FlightRing>(
      capacity_, static_cast<std::uint32_t>(rings_.size())));
  return rings_.back().get();
}

void FlightRecorder::release_ring(FlightRing* ring) {
  std::lock_guard<std::mutex> lock(rings_mu_);
  free_rings_.push_back(ring);
}

std::uint32_t FlightRecorder::intern(std::string_view name) {
  // Lock-free fast path: scan the published prefix. Entries are
  // immutable once visible via the release store of n_names_.
  const std::uint32_t n = n_names_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string* t = names_[i].text;
    if (t->size() == name.size() &&
        std::memcmp(t->data(), name.data(), name.size()) == 0) {
      return i;
    }
  }
  std::lock_guard<std::mutex> lock(names_mu_);
  const std::uint32_t m = n_names_.load(std::memory_order_relaxed);
  for (std::uint32_t i = n; i < m; ++i) {
    const std::string* t = names_[i].text;
    if (t->size() == name.size() &&
        std::memcmp(t->data(), name.data(), name.size()) == 0) {
      return i;
    }
  }
  if (m >= kMaxNames) return 0;  // table full: alias to "?"
  name_store_.emplace_back(name);
  names_[m].text = &name_store_.back();
  n_names_.store(m + 1, std::memory_order_release);
  return m;
}

std::string_view FlightRecorder::name_of(std::uint32_t id) const {
  const std::uint32_t n = n_names_.load(std::memory_order_acquire);
  if (id >= n) return "?";
  return *names_[id].text;
}

std::vector<FlightRecorder::ThreadSnapshot> FlightRecorder::snapshot_all(
    std::size_t last_n) const {
  // Collect the ring pointers under the lock, then snapshot outside it:
  // rings_ only grows and rings are never destroyed, so the pointers
  // stay valid, and writers never take rings_mu_.
  std::vector<const FlightRing*> rings;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::vector<ThreadSnapshot> out;
  out.reserve(rings.size());
  for (const FlightRing* r : rings) {
    ThreadSnapshot snap;
    snap.tid = r->tid();
    snap.records = r->snapshot(last_n);
    if (!snap.records.empty()) out.push_back(std::move(snap));
  }
  return out;
}

void instant(std::string_view name, std::uint64_t flow, std::uint64_t value) {
  FlightRecorder& rec = FlightRecorder::instance();
  if (FlightRing* r = rec.local_ring()) {
    r->write(EventType::kInstant, rec.intern(name), now_ticks(), flow, value);
  }
}

}  // namespace jmb::obs::flight
