// The arrival order of a PacketSource: a tournament (winner) tree over a
// contiguous array of per-flow next-arrival times. Every internal node
// names the earliest leaf of its subtree, ties going to the lower index,
// so the root is the first minimum a left-to-right scan with a strict <
// would find. Changing one key replays only its leaf-to-root path:
// O(log n) per change, O(1) to read the minimum.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace jmb::traffic {

class ArrivalTree {
 public:
  /// One leaf per key; the leaf count is padded to a power of two with
  /// +infinity keys, which lose every tie to a real leaf (they sit at
  /// higher indices).
  explicit ArrivalTree(std::vector<double> keys = {})
      : n_(keys.size()),
        width_(std::bit_ceil(std::max<std::size_t>(n_, 1))),
        keys_(std::move(keys)),
        win_(2 * width_) {
    keys_.resize(width_, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < width_; ++i) {
      win_[width_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t node = width_ - 1; node >= 1; --node) replay(node);
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] double key(std::size_t i) const { return keys_[i]; }

  /// Index of the smallest key (the lowest such index on a tie). With no
  /// leaves it names a padding slot whose key is +infinity.
  [[nodiscard]] std::size_t top() const { return win_[1]; }
  [[nodiscard]] double top_key() const { return keys_[win_[1]]; }

  /// Set leaf i's key and replay the matches on its path to the root.
  void set(std::size_t i, double key) {
    keys_[i] = key;
    for (std::size_t node = (width_ + i) >> 1; node >= 1; node >>= 1) {
      replay(node);
    }
  }

 private:
  /// The left child's subtree holds the lower indices, so it keeps a tie.
  void replay(std::size_t node) {
    const std::uint32_t a = win_[2 * node];
    const std::uint32_t b = win_[2 * node + 1];
    win_[node] = keys_[b] < keys_[a] ? b : a;
  }

  std::size_t n_;
  std::size_t width_;               ///< leaf count padded to a power of two
  std::vector<double> keys_;        ///< width_ keys, padding = +infinity
  std::vector<std::uint32_t> win_;  ///< node -> winning leaf; leaf i at
                                    ///< width_ + i
};

}  // namespace jmb::traffic
