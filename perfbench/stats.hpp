// Percentile discipline for the benchmark's reported numbers.
//
// Two rules keep a reported latency from riding the boundary between two
// code paths (a cache hit and a miss, a session delta and a cold solve):
//
//   * every latency sample is filed under exactly one path's Series, and
//     there is no call that takes a quantile over several series at once;
//   * a quantile is reported only when at least kMinBeyond samples of its
//     series lie strictly beyond its rank, so a p90 never degenerates into
//     "the largest sample" of a small run.
//
// Report enforces the naming side: each metric name is used once, and a
// series is reported under one name prefix only, so no two metric names
// can silently report the same series.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a quantile's rank before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position (1-based) of quantile @p q in @p n sorted samples.
inline std::size_t nearestRank(std::size_t n, double q)
{
    const double r = std::ceil(q * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Fewest samples for which quantile @p q is reportable.
inline std::size_t samplesNeeded(double q)
{
    std::size_t n = kMinBeyond + 1;
    while (n - nearestRank(n, q) < kMinBeyond) ++n;
    return n;
}

/// Nearest-rank quantile @p q of @p samples, or nullopt when fewer than
/// kMinBeyond samples lie beyond it.
inline std::optional<double> quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) return std::nullopt;
    const std::size_t rank = nearestRank(samples.size(), q);
    if (samples.size() - rank < kMinBeyond) return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
    return samples[rank - 1];
}

/// Plain median, for per-pass aggregates and repeated set-up times (no
/// path mixing is possible there: each input is one number per repeat).
inline double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Latency samples (ms) of one code path.
struct Series {
    std::string path;
    std::vector<double> ms;

    explicit Series(std::string p) : path(std::move(p)) {}
    void add(double v) { ms.push_back(v); }
    std::size_t size() const { return ms.size(); }
};

struct Metric {
    double value = 0;
    std::string unit;
};

/// Named metrics in print order.  Refuses a name used twice, a series
/// reported under two name prefixes, and an under-sampled quantile.
class Report {
public:
    void add(const std::string& name, double value, const std::string& unit)
    {
        if (!metrics_.emplace(name, Metric{value, unit}).second)
            throw std::logic_error("metric reported twice: " + name);
        order_.push_back(name);
    }

    /// Report quantile @p q of @p s as "<prefix>.<label>" (ms).
    void addQuantile(const std::string& prefix, const std::string& label, const Series& s,
                     double q)
    {
        bind(prefix, s);
        const std::optional<double> v = quantile(s.ms, q);
        if (!v)
            throw std::runtime_error(prefix + "." + label + ": " + std::to_string(s.size()) +
                                     " samples on path '" + s.path + "', need " +
                                     std::to_string(samplesNeeded(q)));
        add(prefix + "." + label, *v, "ms");
    }

    const std::vector<std::string>& names() const { return order_; }
    const Metric& at(const std::string& name) const { return metrics_.at(name); }

private:
    void bind(const std::string& prefix, const Series& s)
    {
        const auto it = seriesPrefix_.find(&s);
        if (it != seriesPrefix_.end() && it->second != prefix)
            throw std::logic_error("series '" + s.path + "' already reported as " +
                                   it->second + ", not also as " + prefix);
        for (const auto& [other, p] : seriesPrefix_)
            if (other != &s && p == prefix)
                throw std::logic_error("metric prefix " + prefix +
                                       " already reports series '" + other->path + "'");
        seriesPrefix_.emplace(&s, prefix);
    }

    std::map<std::string, Metric> metrics_;
    std::vector<std::string> order_;
    std::map<const Series*, std::string> seriesPrefix_;
};

} // namespace perfbench
