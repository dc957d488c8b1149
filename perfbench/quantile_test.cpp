// Tests of the benchmark's percentile discipline (stats.hpp) and of its
// host-speed calibration (probe.hpp).  Built and
// run by perfbench/run.py before every measurement; also registered with
// ctest in the benchmark's own CMake project.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/base/rng.hpp"
#include "probe.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

bool throws(const std::function<void()>& f)
{
    try {
        f();
    } catch (const std::exception&) {
        return true;
    }
    return false;
}

std::vector<double> ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

void testRefusesThinTails()
{
    check(!quantile(ramp(19), 0.5), "p50 of 19 samples has 9 beyond it");
    check(quantile(ramp(20), 0.5) == 10.0, "p50 of 20 samples is rank 10");
    check(!quantile(ramp(99), 0.9), "p90 of 99 samples has 9 beyond it");
    check(quantile(ramp(100), 0.9) == 90.0, "p90 of 100 samples is rank 90");
    check(!quantile(ramp(999), 0.99), "p99 of 999 samples has 9 beyond it");
    check(quantile(ramp(1000), 0.99) == 990.0, "p99 of 1000 samples is rank 990");
    check(samplesNeeded(0.5) == 20 && samplesNeeded(0.9) == 100,
          "samplesNeeded matches the refusal rule");
    check(!quantile({}, 0.5), "empty series");

    Report r;
    Series thin("thin");
    for (double v : ramp(50)) thin.add(v);
    check(throws([&] { r.addQuantile("thin_ms", "p90", thin, 0.9); }),
          "Report refuses an under-sampled p90");
}

void testOneSeriesOneName()
{
    Series a("a"), b("b");
    for (double v : ramp(200)) {
        a.add(v);
        b.add(v);
    }
    Report r;
    r.addQuantile("a_ms", "p50", a, 0.5);
    r.addQuantile("a_ms", "p90", a, 0.9);
    check(throws([&] { r.addQuantile("other_ms", "p50", a, 0.5); }),
          "a series cannot be reported under a second prefix");
    check(throws([&] { r.addQuantile("a_ms", "p50", b, 0.5); }),
          "a prefix cannot report a second series");
    check(throws([&] { r.add("a_ms.p50", 1.0, "ms"); }), "a name is used once");
    r.addQuantile("b_ms", "p50", b, 0.5);
    check(r.names().size() == 3, "three distinct metrics reported");
}

// Regression for a p90 on a mode boundary: 90% cache hits near 1 ms and
// 10% misses near 16 ms.  Taken over the mixture, the nearest-rank p90 is the largest
// hit, i.e. it sits on the mode boundary and jumps whenever the miss share
// moves by one sample.  Kept per path, every reported quantile lies inside
// its own mode with at least ten same-path samples beyond it.
void testBimodalNeverOnBoundary()
{
    hqs::Rng rng(7);
    Series hit("hit"), miss("miss");
    std::vector<double> mixed;
    for (int i = 0; i < 2000; ++i) {
        const bool isMiss = i % 10 == 9;
        const double v = isMiss ? 16.0 + rng.uniform() : 0.5 + rng.uniform();
        (isMiss ? miss : hit).add(v);
        mixed.push_back(v);
    }
    const double maxHit = *std::max_element(hit.ms.begin(), hit.ms.end());
    check(quantile(mixed, 0.9) == maxHit,
          "the mixed p90 lands exactly on the hit/miss boundary (the hazard)");

    Report r;
    r.addQuantile("hit_ms", "p50", hit, 0.5);
    r.addQuantile("hit_ms", "p90", hit, 0.9);
    r.addQuantile("miss_ms", "p50", miss, 0.5);
    r.addQuantile("miss_ms", "p90", miss, 0.9);
    for (const std::string& name : r.names()) {
        const double v = r.at(name).value;
        const bool isMiss = name.rfind("miss", 0) == 0;
        const Series& own = isMiss ? miss : hit;
        const double lo = isMiss ? 16.0 : 0.5, hi = lo + 1.0;
        check(v >= lo && v <= hi, name + " lies inside its own mode");
        std::size_t beyond = 0;
        for (double s : own.ms) beyond += s > v;
        check(beyond >= kMinBeyond, name + " has ten same-path samples beyond it");
    }
}

// A calibrated latency is scaled by the probe's nominal over its measured
// time: a probe at its nominal time leaves the latency as measured, and a
// host at half speed (the probe taking twice its nominal time) halves it.
void testCalibration()
{
    check(std::abs(calibrated(10.0, kProbeNominalMs) - 10.0) < 1e-9,
          "a probe at its nominal time leaves a latency as measured");
    check(std::abs(calibrated(10.0, 2 * kProbeNominalMs) - 5.0) < 1e-9,
          "a probe at twice its nominal time halves a latency");
    check(probeMs() > 0, "the probe takes measurable time");
}

} // namespace

int main()
{
    testRefusesThinTails();
    testOneSeriesOneName();
    testBimodalNeverOnBoundary();
    testCalibration();
    if (failures) return 1;
    std::puts("perfbench quantile tests: ok");
    return 0;
}
