// Packet-error-rate model: maps effective SNR margin over the rate
// threshold to a frame delivery probability with the steep waterfall
// characteristic of convolutionally-coded OFDM.
#pragma once

#include "rate/effective_snr.h"

namespace jmb::rate {

/// Frame error probability for a given rate on one link state. At
/// threshold: ~10% PER; each dB of margin cuts PER by ~10x; PER saturates
/// at 1 a little below threshold. Length scales the error exposure
/// relative to the 1500-byte reference.
[[nodiscard]] double frame_error_prob(EffectiveSnrs& link,
                                      std::size_t rate_index,
                                      std::size_t psdu_bytes = 1500);

/// Same, from per-subcarrier SNRs.
[[nodiscard]] double frame_error_prob(const rvec& subcarrier_snr,
                                      std::size_t rate_index,
                                      std::size_t psdu_bytes = 1500);

/// Flat-channel convenience.
[[nodiscard]] double frame_error_prob_flat(
    double snr_db, std::size_t rate_index, std::size_t psdu_bytes = 1500);

}  // namespace jmb::rate
