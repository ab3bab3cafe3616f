#include "rate/airtime.h"

#include "phy/frame.h"

namespace jmb::rate {

namespace {

/// Interleaved channel-measurement rounds the MAC charges per epoch
/// (repetitions for averaging).
constexpr std::size_t kMeasurementRounds = 2;
/// Rate-set index used to send channel feedback frames: QPSK 1/2.
constexpr std::size_t kFeedbackRateIndex = 2;
/// Bytes to encode one complex channel coefficient in feedback: 8-bit I +
/// 8-bit Q, as CSI feedback compresses.
constexpr std::size_t kBytesPerCoefficient = 2;

}  // namespace

double frame_airtime_s(std::size_t psdu_bytes, const phy::Mcs& mcs,
                       double sample_rate_hz) {
  const std::size_t samples =
      phy::kPreambleLen +
      (1 + phy::n_data_symbols(psdu_bytes, mcs)) * phy::kSymbolLen;
  return static_cast<double>(samples) / sample_rate_hz;
}

double joint_frame_airtime_s(std::size_t psdu_bytes, const phy::Mcs& mcs,
                             const AirtimeParams& p) {
  const std::size_t samples =
      phy::kPreambleLen +  // lead sync header
      phy::kLtfLen +       // jointly precoded LTF
      (1 + phy::n_data_symbols(psdu_bytes, mcs)) * phy::kSymbolLen;
  return static_cast<double>(samples) / phy::kSampleRateHz + p.turnaround_s;
}

double measurement_airtime_s(std::size_t n_aps, std::size_t n_clients) {
  // Over-the-air measurement: sync header, then kMeasurementRounds
  // interleaved sweeps of one 80-sample measurement symbol per AP.
  const std::size_t meas_samples =
      phy::kPreambleLen + kMeasurementRounds * n_aps * phy::kSymbolLen;
  double t = static_cast<double>(meas_samples) / phy::kSampleRateHz;

  // Feedback: each client reports n_aps * 52 coefficients plus its noise
  // floor; sent as one frame per client at the feedback rate.
  const std::size_t bytes = n_aps * 52 * kBytesPerCoefficient + 8;
  const phy::Mcs& fb = phy::rate_set()[kFeedbackRateIndex];
  for (std::size_t c = 0; c < n_clients; ++c) {
    t += frame_airtime_s(bytes, fb, phy::kSampleRateHz);
  }
  return t;
}

}  // namespace jmb::rate
