// Per-trial scratch workspace: every reusable buffer the frame hot path
// needs, so steady-state frames run without touching the heap. (The FFT
// plan is process-wide and immutable: phy::ofdm_fft_plan().)
//
// Ownership model (see DESIGN.md "Memory model"):
//  - One Workspace per engine::TrialRunner worker, owned by SystemState
//    and threaded through the pipeline stages — never shared across
//    threads, so access is lock-free by construction.
//  - Buffers are named for their hot-path role and reach steady-state
//    capacity after the first frame of a given shape; later frames reuse
//    the capacity (vectors are resized/cleared, never reallocated).
//  - Everything here is scratch: no buffer carries state between calls,
//    so reusing a workspace changes *where* intermediates live but never
//    their values — physics outputs are bitwise identical on a fresh or a
//    warm workspace, and for any JMB_THREADS.
//  - The receive chain runs on a workspace only: phy::Receiver binds one
//    at construction, and decode_signal_symbol/decode_psdu take one.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dsp/types.h"
#include "linalg/pinv.h"
#include "phy/viterbi.h"
#include "simd/aligned.h"

namespace jmb {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Per-workspace projection matrix for phy::denoise_time_support (built
  /// on first use per support; workspaces are per-trial, so no lock).
  const CMatrix& denoise_projection(std::size_t support);

  // ---- linalg scratch ----------------------------------------------------
  PinvScratch pinv;

  // ---- receiver scratch (phy::Receiver, decode_signal_symbol, decode_psdu)
  cvec corrected;    ///< RX buffer, CFO-corrected where an LTF search reads
  cvec win_a;        ///< first LTF FFT window
  cvec win_b;        ///< second LTF FFT window
  cvec sym_freq;     ///< per-symbol FFT window; the fine-CFO LTF pair
  cvec data48;       ///< equalized data subcarriers
  rvec noise48;      ///< post-equalization noise variance per carrier
                     ///< (flat for the SIGNAL symbol)
  phy::BitVec hard_bits;  ///< EVM hard decisions
  cvec nearest;      ///< EVM re-modulated constellation points
  std::vector<std::vector<double>> llr_per_symbol;
  std::vector<double> llr_concat;  ///< deinterleaved LLRs, all symbols;
                                   ///< the SIGNAL symbol's raw LLRs
  std::vector<double> llr_dei;     ///< one symbol's deinterleaved LLRs
  std::vector<double> llr_mother;  ///< depunctured mother-rate LLRs
  phy::ViterbiScratch viterbi;
  phy::BitVec decoded_bits;

  // ---- channel-estimation scratch ----------------------------------------
  cvec denoise_v;       ///< 52 used-subcarrier gains
  cvec denoise_smooth;  ///< projected (denoised) gains

  // ---- transmit / synthesis scratch --------------------------------------
  // Cache-line aligned: these are the buffers the subcarrier-batched SIMD
  // kernels stream through, so vector loads never split cache lines.
  simd::acvec spec;      ///< kNfft frequency-domain accumulation buffer
  simd::acvec sym_time;  ///< kSymbolLen modulated symbol

  // ---- measurement scratch ------------------------------------------------
  cvec meas_win;   ///< an AP's CFO block; the alignment probe's lead window
  cvec meas_freq;  ///< per-round channel-symbol FFT; the probe's slave window

 private:
  std::map<std::size_t, CMatrix> projections_;
};

}  // namespace jmb
