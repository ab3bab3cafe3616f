#include "rate/airtime.h"

#include <stdexcept>

#include "phy/frame.h"

namespace jmb::rate {

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
  return static_cast<double>(samples) / p.sample_rate_hz + p.turnaround_s;
}

double measurement_airtime_s(std::size_t n_aps, std::size_t n_clients,
                             const AirtimeParams& p) {
  if (p.feedback_rate_index >= phy::rate_set().size()) {
    throw std::invalid_argument(
        "measurement_airtime_s: feedback_rate_index past rate_set()");
  }
  // Over-the-air measurement: sync header, then `rounds` interleaved sweeps
  // of one 80-sample measurement symbol per AP.
  const std::size_t meas_samples =
      phy::kPreambleLen +
      p.measurement_rounds * n_aps * phy::kSymbolLen;
  double t = static_cast<double>(meas_samples) / p.sample_rate_hz;

  // Feedback: each client reports n_aps * 52 coefficients plus its noise
  // floor; sent as one frame per client at the feedback rate.
  const std::size_t bytes =
      n_aps * 52 * p.bytes_per_coefficient + 8;
  const phy::Mcs& fb = phy::rate_set()[p.feedback_rate_index];
  for (std::size_t c = 0; c < n_clients; ++c) {
    t += frame_airtime_s(bytes, fb, p.sample_rate_hz);
  }
  return t;
}

}  // namespace jmb::rate
