// PPDU framing (802.11a 17.3.2): SIGNAL field encode/decode and the
// scramble/encode/interleave pipeline that turns a PSDU into per-symbol
// frequency-domain OFDM symbols — kept separate from waveform synthesis so
// JMB can precode the frequency-domain symbols across APs before IFFT.
#pragma once

#include <optional>

#include "phy/bits.h"
#include "phy/params.h"

namespace jmb {
class Workspace;
}

namespace jmb::phy {

/// Default scrambler seed used by the transmitter (any nonzero 7-bit value;
/// receivers recover it from the SERVICE field).
constexpr unsigned kDefaultScramblerSeed = 0x5D;

/// Decoded SIGNAL field contents.
struct SignalField {
  std::size_t rate_index = 0;  ///< index into rate_set()
  std::size_t length = 0;      ///< PSDU length in bytes
};

/// Number of OFDM data symbols needed for a PSDU of `length` bytes at `mcs`
/// (16 SERVICE bits + 8*length + 6 tail, padded to a whole symbol).
[[nodiscard]] std::size_t n_data_symbols(std::size_t length, const Mcs& mcs);

/// Build the 48 BPSK symbols of the SIGNAL OFDM symbol.
[[nodiscard]] cvec build_signal_symbol(const SignalField& sig);

/// Decode a received (equalized) SIGNAL symbol; nullopt on parity failure
/// or invalid RATE bits. `noise_var` feeds the soft demapper. The noise,
/// LLR and Viterbi buffers come from the per-trial workspace, so a warm
/// workspace decodes without touching the heap; `data48` may be
/// ws.data48, which is only read.
[[nodiscard]] std::optional<SignalField> decode_signal_symbol(
    const cvec& data48, double noise_var, Workspace& ws);

/// Scramble + encode + interleave + map a PSDU into per-symbol groups of 48
/// constellation points (frequency-domain, pilots NOT included).
[[nodiscard]] std::vector<cvec> encode_psdu(
    const ByteVec& psdu, const Mcs& mcs,
    unsigned scrambler_seed = kDefaultScramblerSeed);

/// Inverse of encode_psdu from per-symbol soft LLR groups: deinterleave,
/// depuncture, Viterbi-decode, descramble (seed recovered from SERVICE),
/// strip padding. `llr_per_symbol[i]` holds n_cbps LLRs for data symbol i.
/// Returns nullopt if the symbol count mismatches the SIGNAL length. The
/// deinterleave, depuncture and Viterbi buffers come from the per-trial
/// workspace: on a warm workspace the returned bytes are the only
/// allocation.
[[nodiscard]] std::optional<ByteVec> decode_psdu(
    const std::vector<std::vector<double>>& llr_per_symbol,
    const SignalField& sig, Workspace& ws);

}  // namespace jmb::phy
