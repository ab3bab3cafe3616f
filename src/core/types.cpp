#include "core/types.h"


namespace jmb::core {

const std::vector<int>& used_subcarriers() {
  static const std::vector<int> kUsed = [] {
    std::vector<int> v;
    for (int k = -26; k <= 26; ++k) {
      if (k != 0) v.push_back(k);
    }
    return v;
  }();
  return kUsed;
}

ChannelMatrixSet::ChannelMatrixSet(std::size_t n_clients, std::size_t n_tx)
    : n_clients_(n_clients),
      n_tx_(n_tx),
      per_sc_(used_subcarriers().size(), CMatrix(n_clients, n_tx)) {}

double ChannelMatrixSet::mean_link_power(std::size_t client,
                                         std::size_t tx) const {
  double acc = 0.0;
  for (const CMatrix& h : per_sc_) acc += std::norm(h(client, tx));
  return per_sc_.empty() ? 0.0 : acc / static_cast<double>(per_sc_.size());
}

}  // namespace jmb::core
