// Packet-error-rate model: maps effective SNR margin over the rate
// threshold to a frame delivery probability with the steep waterfall
// characteristic of convolutionally-coded OFDM.
#pragma once

#include "rate/effective_snr.h"

namespace jmb::rate {

/// Frame error probability for a given rate on one link state. At
/// threshold: ~10% PER; each dB of margin cuts PER by ~10x; PER saturates
/// at 1 a little below threshold. Length scales the error exposure
/// relative to the 1500-byte reference. Always the exact double: settles
/// the link's bracket for that modulation.
[[nodiscard]] double frame_error_prob(EffectiveSnrs& link,
                                      std::size_t rate_index,
                                      std::size_t psdu_bytes = 1500);

/// Same, from per-subcarrier SNRs.
[[nodiscard]] double frame_error_prob(const rvec& subcarrier_snr,
                                      std::size_t rate_index,
                                      std::size_t psdu_bytes = 1500);

/// One delivery draw: u >= frame_error_prob(link, rate_index, psdu_bytes)
/// for a uniform draw u, decided from PER bounds at the ends of the
/// link's certified bracket, and exactly (settling the bracket) only when
/// u falls between them. Throws as frame_error_prob does.
[[nodiscard]] bool delivered(EffectiveSnrs& link, std::size_t rate_index,
                             std::size_t psdu_bytes, double u);

}  // namespace jmb::rate
