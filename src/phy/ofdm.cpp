#include "phy/ofdm.h"

#include <algorithm>
#include <stdexcept>

namespace jmb::phy {

const FftPlan& ofdm_fft_plan() {
  static const FftPlan kPlan(kNfft);
  return kPlan;
}

void map_subcarriers_into(std::span<const cplx> data48,
                          std::size_t symbol_index, std::span<cplx> freq) {
  if (data48.size() != kNumDataCarriers) {
    throw std::invalid_argument("map_subcarriers: need 48 data symbols");
  }
  if (freq.size() != kNfft) {
    throw std::invalid_argument("map_subcarriers: need a kNfft output");
  }
  std::fill(freq.begin(), freq.end(), cplx{});
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    freq[bin_of(dc[i])] = data48[i];
  }
  const double pol = pilot_polarity(symbol_index);
  const auto& pc = pilot_carriers();
  const auto& pb = pilot_base();
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    freq[bin_of(pc[i])] = pol * pb[i];
  }
}

cvec map_subcarriers(const cvec& data48, std::size_t symbol_index) {
  cvec freq(kNfft);
  map_subcarriers_into(data48, symbol_index, freq);
  return freq;
}

void ofdm_modulate_into(std::span<const cplx> freq_symbol,
                        std::span<cplx> out) {
  if (freq_symbol.size() != kNfft) {
    throw std::invalid_argument("ofdm_modulate: need kNfft frequency values");
  }
  if (out.size() != kSymbolLen) {
    throw std::invalid_argument("ofdm_modulate: need a kSymbolLen output");
  }
  // IFFT in place in the payload slot of the output, then copy the tail
  // forward as the cyclic prefix — same transform, no scratch buffer.
  const std::span<cplx> time = out.subspan(kCpLen, kNfft);
  std::copy(freq_symbol.begin(), freq_symbol.end(), time.begin());
  ofdm_fft_plan().inverse(time);
  for (std::size_t i = 0; i < kCpLen; ++i) out[i] = time[kNfft - kCpLen + i];
}

cvec ofdm_modulate(const cvec& freq_symbol) {
  cvec out(kSymbolLen);
  ofdm_modulate_into(freq_symbol, out);
  return out;
}

}  // namespace jmb::phy
