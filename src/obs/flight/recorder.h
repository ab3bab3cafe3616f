// Flight recorder: always-on, per-thread, lock-free binary tracing.
//
// Every instrumented thread owns a FlightRing — a power-of-two array of
// fixed-size 32-byte records written with a seqlock-style protocol — so
// the steady-state cost of a record is four relaxed atomic stores plus a
// TSC read, with no locks, no allocation and no cross-thread cache
// traffic. Names are interned once into a fixed table and travel as
// 32-bit ids; flow ids stitch one frame's records into a causal chain
// across threads (see make_flow). The rings overwrite oldest-first, so
// at any moment the recorder holds the last `capacity` events per thread
// — a crash-scene flight recording, drained on demand by the exporter
// (obs/flight/export.h) or dumped automatically on quarantine/deadline
// miss.
//
// Writer/reader protocol. The writer is the ring's owner thread; readers
// (exporter, dump trigger) may run concurrently on any thread. A write
// bumps `begin_` (relaxed), release-fences, stores the record words
// (relaxed atomics), then release-stores `end_`. A snapshot
// acquire-loads `end_`, copies the words, acquire-fences, then re-reads
// `begin_` and discards any record the writer might have been rewriting
// (logical index < begin - capacity). Torn reads are therefore detected
// and dropped, never surfaced, and every access is on atomics — clean
// under ThreadSanitizer and free on x86's total-store-order.
//
// Knobs (strict warn-once parsing via engine/env.h):
//   JMB_FLIGHT=0         disable recording (default on)
//   JMB_FLIGHT_DEPTH=N   records per thread ring (default 8192, pow2-rounded)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/flight/clock.h"

namespace jmb::obs::flight {

enum class EventType : std::uint8_t {
  kSpan = 0,     ///< stage execution; value = duration ticks
  kInstant = 2,  ///< point event (fault injected, quarantine, ...)
  kCounter = 3,  ///< sampled series value; value = bit-cast double
};

/// Sentinel for records not attached to any item journey.
inline constexpr std::uint64_t kNoFlow = ~0ull;

/// Flow ids thread one item's journey through the pipeline: the high
/// bits identify the independent sequence (the trial), the low 40 bits
/// the item within it. 2^40 frames per trial is ~34 years of 20 MHz
/// airtime — no wraparound in practice.
inline constexpr std::uint64_t make_flow(std::uint64_t trial,
                                         std::uint64_t seq) {
  return (trial << 40) | (seq & ((1ull << 40) - 1));
}

/// Flow id for metro-sharded runs: the cell shard index rides in bits
/// 16..23 of the trial field, above the 16-bit trial index. Cell 0
/// reproduces the classic make_flow(trial, seq) id bit-for-bit, so
/// single-cell traces are indistinguishable from pre-sharding ones.
inline constexpr std::uint64_t make_cell_flow(std::uint64_t trial,
                                              std::uint64_t cell,
                                              std::uint64_t seq) {
  return make_flow(((cell & 0xff) << 16) | (trial & 0xffff), seq);
}

/// Decoded trace record, as returned by snapshots. `tsc` is the event
/// (or span start) stamp in raw ticks; `value` is type-dependent (see
/// EventType).
struct FlightRecord {
  std::uint64_t tsc = 0;
  std::uint64_t flow = kNoFlow;
  std::uint64_t value = 0;
  std::uint32_t name = 0;
  EventType type = EventType::kInstant;
};

/// One thread's trace ring. Single writer (the owning thread), any
/// number of concurrent snapshot readers.
class FlightRing {
 public:
  FlightRing(std::size_t capacity_pow2, std::uint32_t tid);
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Owner thread only. Zero allocation, no locks.
  void write(EventType type, std::uint32_t name, std::uint64_t tsc,
             std::uint64_t flow, std::uint64_t value) {
    const std::uint64_t h = begin_.load(std::memory_order_relaxed);
    // Publish "slot h is being rewritten" before touching its words...
    begin_.store(h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Slot& s = slots_[h & mask_];
    s.w[0].store(tsc, std::memory_order_relaxed);
    s.w[1].store(flow, std::memory_order_relaxed);
    s.w[2].store(value, std::memory_order_relaxed);
    s.w[3].store(static_cast<std::uint64_t>(name) |
                     (static_cast<std::uint64_t>(type) << 32),
                 std::memory_order_relaxed);
    // ...and "slot h is complete" after.
    end_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  /// Total records ever written (monotonic; any thread).
  [[nodiscard]] std::uint64_t written() const {
    return end_.load(std::memory_order_acquire);
  }

  /// Oldest-first copy of the retained records (the last `last_n`, or
  /// everything retained when 0). Safe concurrently with the writer;
  /// records the writer was mid-rewrite on are detected and dropped.
  [[nodiscard]] std::vector<FlightRecord> snapshot(std::size_t last_n = 0) const;

 private:
  struct Slot {
    std::array<std::atomic<std::uint64_t>, 4> w;
  };

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t mask_ = 0;
  std::uint32_t tid_ = 0;
  /// begin_ >= end_ always; slots in [end_, begin_) are being rewritten.
  alignas(64) std::atomic<std::uint64_t> begin_{0};
  alignas(64) std::atomic<std::uint64_t> end_{0};
};

/// Process-wide recorder: owns the per-thread rings and the interned
/// name table. A leaked singleton (never destroyed), so records from
/// detached/exiting threads stay drainable until process exit.
class FlightRecorder {
 public:
  static FlightRecorder& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t ring_capacity() const { return capacity_; }

  /// The calling thread's ring, created (or reused from a finished
  /// thread's returned ring) on first use. Null when recording is
  /// disabled. After the first call this is a thread-local load.
  FlightRing* local_ring();

  /// Intern `name`, returning its stable 32-bit id. Lock-free lookup of
  /// already-interned names; a mutex only on first insertion. A full
  /// table (512 names) aliases to id 0 ("?") rather than failing.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] std::string_view name_of(std::uint32_t id) const;

  struct ThreadSnapshot {
    std::uint32_t tid = 0;
    std::vector<FlightRecord> records;  ///< oldest first
  };
  /// Snapshot every ring (live and reclaimed), in ring-creation order.
  [[nodiscard]] std::vector<ThreadSnapshot> snapshot_all(
      std::size_t last_n = 0) const;

  /// Test hook: flip recording at runtime (env decides the initial
  /// state). Threads with an existing lease keep their ring but
  /// local_ring() returns null while disabled.
  void set_enabled_for_test(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  FlightRecorder();
  FlightRing* acquire_ring();
  void release_ring(FlightRing* ring);

  struct ThreadLease {
    FlightRing* ring = nullptr;
    ~ThreadLease();
  };

  std::atomic<bool> enabled_{true};
  std::size_t capacity_ = 8192;

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<FlightRing>> rings_;
  std::vector<FlightRing*> free_rings_;

  static constexpr std::size_t kMaxNames = 512;
  struct NameEntry {
    const std::string* text = nullptr;
  };
  std::array<NameEntry, kMaxNames> names_{};
  std::atomic<std::uint32_t> n_names_{0};
  std::deque<std::string> name_store_;  ///< stable storage (guarded)
  std::mutex names_mu_;
};

/// Record one event on the calling thread's ring (no-op when disabled).
/// The id-based overloads are the hot path; intern once at setup.
inline void record(EventType type, std::uint32_t name, std::uint64_t tsc,
                   std::uint64_t flow, std::uint64_t value) {
  if (FlightRing* r = FlightRecorder::instance().local_ring()) {
    r->write(type, name, tsc, flow, value);
  }
}

inline void instant(std::uint32_t name, std::uint64_t flow = kNoFlow,
                    std::uint64_t value = 0) {
  record(EventType::kInstant, name, now_ticks(), flow, value);
}

/// Convenience for cold paths: interns on each call.
void instant(std::string_view name, std::uint64_t flow = kNoFlow,
             std::uint64_t value = 0);
void counter(std::string_view name, double value);

/// RAII span: stamps TSC at construction, writes one kSpan record at
/// destruction. Zero-allocation with a pre-interned id.
class SpanScope {
 public:
  explicit SpanScope(std::uint32_t name, std::uint64_t flow = kNoFlow)
      : ring_(FlightRecorder::instance().local_ring()),
        name_(name),
        flow_(flow),
        t0_(ring_ ? now_ticks() : 0) {}
  explicit SpanScope(std::string_view name, std::uint64_t flow = kNoFlow);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (ring_) {
      ring_->write(EventType::kSpan, name_, t0_, flow_, now_ticks() - t0_);
    }
  }

 private:
  FlightRing* ring_;
  std::uint32_t name_ = 0;
  std::uint64_t flow_ = kNoFlow;
  std::uint64_t t0_ = 0;
};

}  // namespace jmb::obs::flight
