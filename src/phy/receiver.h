// Full 802.11a-style receive chain: detection, CFO, timing, channel
// estimation, pilot phase tracking, demodulation, decoding.
#pragma once

#include <optional>
#include <string>

#include "phy/chanest.h"
#include "phy/frame.h"
#include "phy/params.h"

namespace jmb {
class Workspace;
}

namespace jmb::phy {

/// Preamble measurements — the quantities a JMB slave AP extracts from the
/// lead's sync header, and the first half of a full receive.
struct PreambleMeasurement {
  std::size_t stf_start = 0;   ///< detected packet start
  std::size_t ltf_start = 0;   ///< start of the first 64-sample LTF symbol
  double cfo_hz = 0.0;         ///< coarse + fine CFO estimate
  ChannelEstimate chan;        ///< LS estimate from both LTF symbols
  double noise_var = 0.0;      ///< per-subcarrier noise variance estimate
  double snr_db = 0.0;         ///< mean channel power / noise variance
};

/// Outcome of a frame reception attempt.
struct RxResult {
  bool ok = false;
  ByteVec psdu;                ///< decoded PSDU (valid when ok)
  SignalField sig;             ///< decoded SIGNAL field (when header_ok)
  bool header_ok = false;
  PreambleMeasurement preamble;
  double evm_snr_db = 0.0;     ///< SNR inferred from data-symbol EVM
  std::string fail_reason;     ///< empty when ok
};

class Receiver {
 public:
  /// Every internal buffer (CFO-corrected copy, FFT windows, LLRs, Viterbi
  /// trellis) and the FFT plan come from the per-trial workspace `ws`. The
  /// receiver never owns it: the caller keeps it alive for the receiver's
  /// lifetime and must not share one workspace between threads.
  explicit Receiver(Workspace& ws, PhyConfig cfg = {})
      : cfg_(cfg), ws_(ws) {}

  /// Detect and measure a preamble at/after `search_from`.
  [[nodiscard]] std::optional<PreambleMeasurement> measure_preamble(
      const cvec& rx, std::size_t search_from = 0) const;

  /// Attempt to receive one frame from the buffer.
  [[nodiscard]] RxResult receive(const cvec& rx,
                                 std::size_t search_from = 0) const;

  /// Receive when the payload's symbol boundary is already known (used by
  /// JMB clients after the lead's sync header has been consumed):
  /// `payload_start` is the first sample of the jointly-transmitted LTF.
  [[nodiscard]] RxResult receive_payload(const cvec& rx,
                                         std::size_t payload_start,
                                         double cfo_hz) const;

 private:
  /// FFT-window back-off into the CP: tolerates small timing error and
  /// pre-cursor multipath; the common phase ramp is absorbed by the channel
  /// estimate because the same back-off is applied to LTF and data.
  static constexpr std::size_t kTimingBackoff = 4;

  PhyConfig cfg_;
  Workspace& ws_;
};

}  // namespace jmb::phy
