// The channel-measurement phase (Section 5.1): the lead AP sends a sync
// header; every AP then sends a per-AP CFO block and interleaved channel
// measurement symbols. Each client measures, per AP, its CFO and channel,
// then rotates all channel estimates back to one reference time (the sync
// header) so the whole H snapshot is phase-consistent.
#pragma once

#include <optional>
#include <vector>

#include "phy/receiver.h"

namespace jmb {
class Workspace;
}

namespace jmb::core {

/// Sample-level schedule of one measurement frame for n_aps APs (AP 0 is
/// the lead). All offsets are relative to the frame (sync header) start.
struct MeasurementSchedule {
  std::size_t n_aps = 0;
  std::size_t rounds = 4;  ///< interleaved repetitions (averaging)

  /// Slot layout constants.
  // two LTF symbols
  static constexpr std::size_t kCfoBlockLen = 2 * phy::kNfft;
  static constexpr std::size_t kCfoSlotLen = kCfoBlockLen + 32;
  static constexpr std::size_t kChanSymLen = phy::kSymbolLen;  // CP + LTF

  /// Start of AP i's CFO block.
  [[nodiscard]] std::size_t cfo_block_offset(std::size_t ap) const;
  /// Start of AP i's channel symbol in round r (CP included).
  [[nodiscard]] std::size_t chan_symbol_offset(std::size_t ap,
                                               std::size_t r) const;
  /// Total frame length in samples.
  [[nodiscard]] std::size_t frame_len() const;

  /// The common snapshot reference time, in samples after the frame start:
  /// the center of the interleaved channel-symbol block. Referencing the
  /// snapshot here (rather than at the header) keeps every rotation span
  /// within half a block, so residual-CFO rotation errors stay tiny.
  [[nodiscard]] std::size_t reference_offset() const;

  /// The waveform AP `ap` contributes (zeros outside its slots, so the
  /// whole frame can be scheduled at one start time per AP).
  [[nodiscard]] cvec ap_waveform(std::size_t ap) const;
};

/// One client's measurement of one AP, referenced to the sync-header time.
struct PerApMeasurement {
  phy::ChannelEstimate channel;  ///< rotated back to the reference time
  double cfo_hz = 0.0;           ///< f_AP - f_client (refined)
};

/// Everything a client extracts from one measurement frame.
struct ClientMeasurement {
  std::vector<PerApMeasurement> per_ap;
  double noise_var = 0.0;
  std::size_t header_start = 0;  ///< detected sync-header sample index
  /// Snapshot time of all channel estimates: header_start +
  /// schedule.reference_offset() samples.
  std::size_t reference_sample = 0;
};

/// Client-side processing of a received measurement frame.
/// `rx` is the client's baseband buffer; the sync header is detected
/// inside. Returns nullopt if the header isn't found. The receiver's
/// preamble buffers, the per-round CFO/channel FFT windows and the
/// denoising projection all come from `ws` instead of the heap.
[[nodiscard]] std::optional<ClientMeasurement> process_measurement_frame(
    const cvec& rx, const MeasurementSchedule& sched, const phy::PhyConfig& cfg,
    Workspace& ws);

}  // namespace jmb::core
