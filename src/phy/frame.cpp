#include "phy/frame.h"

#include <span>
#include <stdexcept>

#include "phy/convcode.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/viterbi.h"
#include "phy/workspace.h"

namespace jmb::phy {

namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
constexpr Mcs kSignalMcs{Modulation::kBpsk, CodeRate::kHalf};

}  // namespace

std::size_t n_data_symbols(std::size_t length, const Mcs& mcs) {
  const std::size_t payload_bits = kServiceBits + 8 * length + kTailBits;
  const std::size_t dbps = mcs.n_dbps();
  return (payload_bits + dbps - 1) / dbps;
}

cvec build_signal_symbol(const SignalField& sig) {
  if (sig.length == 0 || sig.length > 4095) {
    throw std::invalid_argument("build_signal_symbol: length must be 1..4095");
  }
  BitVec bits(24, 0);
  const unsigned rate_bits = rate_field_bits(sig.rate_index);
  // RATE: R1..R4 transmitted first; R1 is the MSB of the field value.
  for (int b = 0; b < 4; ++b) {
    bits[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((rate_bits >> (3 - b)) & 1u);
  }
  // bits[4] reserved = 0. LENGTH LSB first in bits 5..16.
  for (int b = 0; b < 12; ++b) {
    bits[5 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((sig.length >> b) & 1u);
  }
  // Even parity over bits 0..16 into bit 17; bits 18..23 are zero tail.
  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= bits[i];
  bits[17] = parity;

  const BitVec coded = conv_encode(bits);  // 48 bits, rate 1/2, no puncture
  const BitVec inter = interleave(coded, kSignalMcs);
  return modulate(inter, Modulation::kBpsk);
}

std::optional<SignalField> decode_signal_symbol(const cvec& data48,
                                                double noise_var,
                                                Workspace& ws) {
  if (data48.size() != kNumDataCarriers) {
    throw std::invalid_argument("decode_signal_symbol: need 48 symbols");
  }
  ws.noise48.assign(kNumDataCarriers, noise_var);
  demodulate_soft_into(data48, Modulation::kBpsk, ws.noise48, ws.llr_concat);
  deinterleave_soft_into(ws.llr_concat, kSignalMcs, ws.llr_dei);
  viterbi_decode_into(ws.llr_dei, 24, /*terminated=*/true, ws.viterbi,
                      ws.decoded_bits);
  const BitVec& bits = ws.decoded_bits;

  std::uint8_t parity = 0;
  for (std::size_t i = 0; i < 17; ++i) parity ^= bits[i];
  if (parity != bits[17]) return std::nullopt;

  unsigned rate_bits = 0;
  for (int b = 0; b < 4; ++b) {
    rate_bits = (rate_bits << 1) | bits[static_cast<std::size_t>(b)];
  }
  std::size_t length = 0;
  for (int b = 0; b < 12; ++b) {
    length |=
        static_cast<std::size_t>(bits[5 + static_cast<std::size_t>(b)] & 1u)
        << b;
  }
  if (length == 0) return std::nullopt;
  try {
    return SignalField{rate_index_from_field(rate_bits), length};
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::vector<cvec> encode_psdu(const ByteVec& psdu, const Mcs& mcs,
                              unsigned scrambler_seed) {
  if (psdu.empty() || psdu.size() > 4095) {
    throw std::invalid_argument("encode_psdu: PSDU must be 1..4095 bytes");
  }
  const std::size_t n_sym = n_data_symbols(psdu.size(), mcs);
  const std::size_t total_bits = n_sym * mcs.n_dbps();

  // SERVICE (16 zero bits: 7 scrambler-init + 9 reserved) + PSDU + tail +
  // pad, then scramble; tail positions are forced back to zero so the
  // decoder's trellis terminates (17.3.5.2/17.3.5.3).
  BitVec data(total_bits, 0);
  const BitVec psdu_bits = bytes_to_bits(psdu);
  std::copy(psdu_bits.begin(), psdu_bits.end(), data.begin() + kServiceBits);
  BitVec scrambled = scramble_bits(data, scrambler_seed);
  const std::size_t tail_at = kServiceBits + psdu_bits.size();
  for (std::size_t i = 0; i < kTailBits; ++i) scrambled[tail_at + i] = 0;

  const BitVec coded = puncture(conv_encode(scrambled), mcs.code_rate);
  if (coded.size() != n_sym * mcs.n_cbps()) {
    throw std::logic_error("encode_psdu: coded size mismatch");
  }

  std::vector<cvec> symbols;
  symbols.reserve(n_sym);
  const std::size_t cbps = mcs.n_cbps();
  for (std::size_t s = 0; s < n_sym; ++s) {
    BitVec chunk(coded.begin() + static_cast<std::ptrdiff_t>(s * cbps),
                 coded.begin() + static_cast<std::ptrdiff_t>((s + 1) * cbps));
    symbols.push_back(modulate(interleave(chunk, mcs), mcs.modulation));
  }
  return symbols;
}

std::optional<ByteVec> decode_psdu(
    const std::vector<std::vector<double>>& llr_per_symbol,
    const SignalField& sig, Workspace& ws) {
  const Mcs& mcs = rate_set()[sig.rate_index];
  if (llr_per_symbol.size() != n_data_symbols(sig.length, mcs)) {
    return std::nullopt;
  }
  std::vector<double>& llr = ws.llr_concat;
  llr.clear();
  llr.reserve(llr_per_symbol.size() * mcs.n_cbps());
  for (const auto& sym : llr_per_symbol) {
    if (sym.size() != mcs.n_cbps()) return std::nullopt;
    deinterleave_soft_into(sym, mcs, ws.llr_dei);
    llr.insert(llr.end(), ws.llr_dei.begin(), ws.llr_dei.end());
  }

  const std::size_t total_bits = llr_per_symbol.size() * mcs.n_dbps();
  depuncture_into(llr, total_bits, mcs.code_rate, ws.llr_mother);
  // The scrambled tail was zeroed, but intermediate pad/tail handling means
  // the trellis terminates only at the very end of the padded stream; decode
  // unterminated-tolerant (terminated=true falls back internally if needed).
  viterbi_decode_into(ws.llr_mother, total_bits, /*terminated=*/false,
                      ws.viterbi, ws.decoded_bits);
  BitVec& scrambled = ws.decoded_bits;

  // Recover the scrambler seed: SERVICE bits were zeros, so the first 7
  // scrambled bits equal the scrambling sequence. Search the 127 seeds.
  unsigned seed = 0;
  for (unsigned cand = 1; cand < 128; ++cand) {
    Scrambler s(cand);
    bool match = true;
    for (std::size_t i = 0; i < 7; ++i) {
      if (s.next_bit() != scrambled[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      seed = cand;
      break;
    }
  }
  if (seed == 0) return std::nullopt;

  const std::size_t first = kServiceBits;
  const std::size_t last = first + 8 * sig.length;
  if (last > scrambled.size()) return std::nullopt;
  // Descramble in place up to the PSDU's last bit (the operation is its
  // own inverse), then pack the PSDU bits.
  const std::span<std::uint8_t> bits(scrambled.data(), last);
  Scrambler(seed).scramble_in_place(bits);
  return bits_to_bytes(bits.subspan(first));
}

}  // namespace jmb::phy
