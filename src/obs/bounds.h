// Canonical histogram bucket boundaries.
//
// Every table is a literal constant — never computed with pow()/exp() at
// runtime — so bucket layout is bit-identical across platforms and
// libm implementations, and registry snapshots diff cleanly between
// machines.
#pragma once

namespace jmb::obs {

/// Wall-clock durations in microseconds (stage/frame timers).
inline constexpr double kTimeUsBounds[] = {
    1.0,    2.0,    5.0,    10.0,   20.0,    50.0,    100.0,
    200.0,  500.0,  1e3,    2e3,    5e3,     1e4,     2e4,
    5e4,    1e5,    2e5,    5e5,    1e6,     2e6,     5e6};

/// Phase errors in radians (residual misalignment, sync innovations).
inline constexpr double kPhaseRadBounds[] = {
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02,
    0.05, 0.1,  0.2,  0.5,  1.0,  2.0,  3.15};

/// Frequency offsets / innovations in Hz (CFO tracking).
inline constexpr double kHzBounds[] = {
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4};

/// Decibel-valued quantities spanning numeric leakage (-300 dB) through
/// strong signals (+50 dB): ZF leakage, EVM-SNR, INR.
inline constexpr double kDbBounds[] = {
    -320.0, -280.0, -240.0, -200.0, -160.0, -120.0, -80.0, -60.0, -40.0,
    -30.0,  -20.0,  -10.0,  -5.0,   0.0,    5.0,    10.0,  15.0,  20.0,
    25.0,   30.0,   40.0,   50.0};

/// Matrix 2-norm condition numbers (precoder conditioning, the K in the
/// paper's N log(SNR/K) beamforming rate).
inline constexpr double kCondBounds[] = {
    1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0, 100.0, 1e3, 1e6};

/// Simulated-time latencies in seconds (fault time-to-detect /
/// time-to-recover; spans sub-millisecond detection through multi-second
/// outages).
inline constexpr double kLatencySBounds[] = {
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05,
    0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0, 30.0};

/// Goodput in Mb/s (MAC-level throughput distributions from the
/// resilience sweeps; spans a starved single stream through a 10-AP
/// joint transmission).
inline constexpr double kMbpsBounds[] = {
    0.5,  1.0,  2.0,   3.0,   5.0,   7.5,   10.0,  15.0,  20.0,
    30.0, 50.0, 75.0,  100.0, 150.0, 200.0, 300.0, 500.0};

/// Unit-interval quantities (Jain fairness index, delivery ratios);
/// resolution concentrated near 1.0 where fair schedulers live.
inline constexpr double kUnitBounds[] = {
    0.1,  0.2,  0.3,  0.4,  0.5,  0.6,  0.7,   0.75, 0.8,
    0.85, 0.9,  0.925, 0.95, 0.97, 0.98, 0.99, 0.995, 1.0};

/// Per-client throughput gain ratios (JMB / 802.11, Fig. 10): a starved
/// client through the N-fold gain of a 10-AP joint transmission.
inline constexpr double kGainBounds[] = {
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0};

}  // namespace jmb::obs
