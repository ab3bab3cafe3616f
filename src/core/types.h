// Shared types for the JMB core: per-subcarrier channel matrices between
// the joint set of AP antennas and client antennas.
#pragma once

#include <vector>

#include "linalg/cmatrix.h"
#include "phy/params.h"

namespace jmb::core {

/// The 52 used logical subcarriers in ascending order (-26..-1, 1..26).
[[nodiscard]] const std::vector<int>& used_subcarriers();

/// One channel matrix per used subcarrier: H[k](client, ap_antenna).
/// Invariant: size() == used_subcarriers().size() and all matrices share
/// one shape.
class ChannelMatrixSet {
 public:
  ChannelMatrixSet() = default;
  ChannelMatrixSet(std::size_t n_clients, std::size_t n_tx);

  [[nodiscard]] std::size_t n_clients() const { return n_clients_; }
  [[nodiscard]] std::size_t n_tx() const { return n_tx_; }
  [[nodiscard]] std::size_t n_subcarriers() const { return per_sc_.size(); }

  [[nodiscard]] CMatrix& at(std::size_t used_idx) { return per_sc_[used_idx]; }
  [[nodiscard]] const CMatrix& at(std::size_t used_idx) const {
    return per_sc_[used_idx];
  }

  /// Average |h|^2 over subcarriers for one (client, tx) pair.
  [[nodiscard]] double mean_link_power(std::size_t client,
                                       std::size_t tx) const;

 private:
  std::size_t n_clients_ = 0;
  std::size_t n_tx_ = 0;
  std::vector<CMatrix> per_sc_;
};

}  // namespace jmb::core
