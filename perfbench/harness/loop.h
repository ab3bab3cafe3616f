// The closed operation loop: times each operation, catches its failures,
// accumulates simulated air time and digests the physics of the first
// cycle.
//
// A workload's cases are an endless sequence drawn from the seed; the loop
// runs them a cycle at a time. The digest covers only the first cycle, so
// it is the same for any run length: two runs of one seed, or the traced
// and untraced harness, must agree on it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

namespace perfbench {

/// FNV-1a over the raw bytes of the values added.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add_bytes(const std::uint8_t* p, std::size_t n) {
    add(static_cast<std::uint64_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What one operation hands back to the loop.
struct OpOutcome {
  std::uint64_t digest = 0;
  double sim_s = 0.0;  ///< simulated air time the operation advanced
};

/// Thrown by op() in place of the first operation of a loop built with
/// stop_before_first_op: the caller only measures the set-up before it.
struct SetupDone {};

class OpLoop {
 public:
  using Clock = std::chrono::steady_clock;

  OpLoop() { op_ms_.reserve(1 << 16); }

  void stop_before_first_op() { stop_before_first_op_ = true; }

  /// Run and time one operation.
  template <class F>
  void op(F&& body) {
    const auto t0 = Clock::now();
    if (attempted_ == 0) {
      first_op_start_ = t0;
      if (stop_before_first_op_) throw SetupDone{};
    }
    OpOutcome out;
    bool ok = true;
    try {
      out = body();
    } catch (const std::exception& e) {
      ok = false;
      note_error(e.what());
    } catch (...) {
      ok = false;
      note_error("unknown exception");
    }
    const auto t1 = Clock::now();
    op_ms_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    sim_s_ += out.sim_s;

    if (cycle_ == 0) {
      cycle_digest_.add(pending_.value());
      cycle_digest_.add(ok ? out.digest : 0);
      ++ops_first_cycle_;
    }
    pending_ = Digest{};
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Physics produced between operations (a measurement epoch, a skipped
  /// case); folded into the digest ahead of the next operation's.
  void fold(std::uint64_t v) { pending_.add(v); }
  /// Simulated air time advanced outside any operation.
  void add_sim(double s) { sim_s_ += s; }

  void end_cycle() {
    if (cycle_ == 0) cycle_digest_.add(pending_.value());
    pending_ = Digest{};
    ++cycle_;
  }

  [[nodiscard]] std::uint64_t cycle_digest() const {
    return cycle_digest_.value();
  }
  /// When the first operation started (or now, if none has).
  [[nodiscard]] Clock::time_point first_op_start() const {
    return attempted_ ? first_op_start_ : Clock::now();
  }
  [[nodiscard]] std::size_t cycles() const { return cycle_; }
  [[nodiscard]] std::size_t ops_first_cycle() const { return ops_first_cycle_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double sim_s() const { return sim_s_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// Linear-interpolated percentile (q in [0, 1]) of the op times, in ms.
  [[nodiscard]] double op_ms_percentile(double q) const {
    if (op_ms_.empty()) return 0.0;
    std::vector<double> v = op_ms_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }

 private:
  void note_error(std::string msg) {
    if (errors_.size() < 8) errors_.push_back(std::move(msg));
  }

  std::vector<double> op_ms_;
  std::vector<std::string> errors_;
  Clock::time_point first_op_start_{};
  bool stop_before_first_op_ = false;
  Digest cycle_digest_;
  Digest pending_;
  std::size_t cycle_ = 0;
  std::size_t ops_first_cycle_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double sim_s_ = 0.0;
};

}  // namespace perfbench
