// Host-speed calibration for the benchmark's timings.
//
// On a host that shares its cores and caches with other tenants, the same
// code runs at a speed that follows their load: a fixed solve can take
// anywhere from 1x to 2x its quiet-host time, in episodes of seconds to
// minutes.  Medians inside one run cannot remove a slowdown that lasts the
// whole run, so the reported latencies are calibrated instead.  Right before
// each timed operation the benchmark runs a probe, a fixed piece of
// hash-table work that shares no code with the solver, and scales the
// operation's latency by the probe's nominal time over its measured time:
//
//   calibrated_ms = measured_ms * kProbeNominalMs / probe_ms
//
// A calibrated latency is the time the operation would take on a host on
// which the probe takes kProbeNominalMs.  A change to the program moves it
// as it moves the measured time; a change in the host's speed moves
// measured_ms and probe_ms together and cancels.  The probe is timed
// immediately before the operation because the host's speed is correlated
// over a fraction of a second but not over a whole run.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace perfbench {

/// Probe time, in ms, that calibrated timings are scaled to.
inline constexpr double kProbeNominalMs = 0.4;

/// Keeps the probe's work from being optimised away.
inline volatile std::uint64_t probeSink = 0;

/// Run the probe once: 4000 inserts into a node-based hash table (the
/// allocation- and cache-bound access pattern of the solver's hash-consing
/// and clause bookkeeping), then a walk over it.  Returns its wall time in ms.
inline double probeMs()
{
    const auto start = std::chrono::steady_clock::now();
    std::unordered_map<std::uint32_t, std::uint32_t> table;
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        x = x * 1103515245u + 12345u;
        table[x >> 8] += i;
    }
    std::uint64_t sum = 0;
    for (const auto& [key, value] : table) sum += value;
    probeSink = sum;
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

/// @p measured (any time unit) scaled to the host speed the probe saw.
inline double calibrated(double measured, double probe)
{
    return probe > 0 ? measured * kProbeNominalMs / probe : measured;
}

} // namespace perfbench
