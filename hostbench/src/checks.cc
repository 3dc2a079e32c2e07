#include "checks.hh"

#include <cmath>
#include <cstring>
#include <sstream>

namespace hostbench
{

using hipster::IntervalMetrics;

namespace
{

/** Relative tolerance for sums the program and the benchmark add up
 * in different orders. */
constexpr double kSumTolerance = 1e-9;

template <typename Series>
Failure
energyOf(const Series &series, const hipster::RunSummary &summary)
{
    double energy = 0.0;
    for (std::size_t k = 0; k < series.size(); ++k) {
        const IntervalMetrics m = series[k];
        energy += m.power * (m.end - m.begin);
    }
    if (std::abs(energy - summary.energy) >
        kSumTolerance * std::max(1.0, std::abs(energy))) {
        std::ostringstream why;
        why.precision(17);
        why << "energy: reported " << summary.energy
            << " J, sum of power x interval " << energy << " J";
        return why.str();
    }
    return std::nullopt;
}

template <typename Series>
Failure
qosOf(const Series &series, const hipster::RunSummary &summary)
{
    std::size_t met = 0;
    for (std::size_t k = 0; k < series.size(); ++k) {
        const IntervalMetrics m = series[k];
        if (m.tailLatency <= m.qosTarget)
            ++met;
    }
    const double share =
        series.size() ? static_cast<double>(met) / series.size() : 0.0;
    if (share != summary.qosGuarantee ||
        series.size() != summary.intervals) {
        std::ostringstream why;
        why.precision(17);
        why << "qos: reported guarantee " << summary.qosGuarantee
            << " over " << summary.intervals << " intervals, recounted "
            << share << " over " << series.size();
        return why.str();
    }
    return std::nullopt;
}

class Fnv
{
  public:
    template <typename T>
    Fnv &
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 0x100000001b3ULL;
        }
        return *this;
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
addInterval(Fnv &h, const IntervalMetrics &m)
{
    h.add(m.begin).add(m.end).add(m.offeredLoad).add(m.offeredRate);
    h.add(m.loadBucket).add(m.tailLatency).add(m.qosTarget);
    h.add(m.throughput).add(m.power).add(m.energy);
    h.add(m.batchBigIps).add(m.batchSmallIps);
    h.add(m.batchPresent).add(m.ipsValid);
    h.add(m.config.nBig).add(m.config.nSmall);
    h.add(m.config.bigFreq).add(m.config.smallFreq);
    h.add(m.migrations).add(m.dvfsTransitions);
    h.add(m.lcUtilization).add(m.dropped);
}

void
addSummary(Fnv &h, const hipster::RunSummary &s)
{
    h.add(s.intervals).add(s.qosGuarantee).add(s.qosTardiness);
    h.add(s.energy).add(s.meanPower).add(s.migrations);
    h.add(s.dvfsTransitions).add(s.meanThroughput);
    h.add(s.meanBatchIps).add(s.dropped);
}

} // namespace

Failure
checkEnergy(const hipster::MetricsSeries &series,
            const hipster::RunSummary &summary)
{
    return energyOf(series, summary);
}

Failure
checkEnergy(const std::vector<IntervalMetrics> &series,
            const hipster::RunSummary &summary)
{
    return energyOf(series, summary);
}

Failure
checkQosGuarantee(const hipster::MetricsSeries &series,
                  const hipster::RunSummary &summary)
{
    return qosOf(series, summary);
}

Failure
checkQosGuarantee(const std::vector<IntervalMetrics> &series,
                  const hipster::RunSummary &summary)
{
    return qosOf(series, summary);
}

std::uint64_t
completedRequests(const IntervalMetrics &m,
                  const hipster::LcAppParams &app)
{
    // throughput = completed / interval / loadScale (reported units).
    return static_cast<std::uint64_t>(
        std::llround(m.throughput * (m.end - m.begin) * app.loadScale));
}

Failure
checkArrivals(const hipster::MetricsSeries &series,
              const hipster::LoadTrace &trace,
              const hipster::LcAppParams &app, hipster::Seconds interval)
{
    double expected = 0.0;
    double lastInterval = 0.0;
    double served = 0.0;
    for (std::size_t k = 0; k < series.size(); ++k) {
        const IntervalMetrics m = series[k];
        const double t0 = k * interval;
        lastInterval =
            trace.at(t0) * app.maxLoad * app.loadScale * interval;
        expected += lastInterval;
        served += static_cast<double>(completedRequests(m, app) +
                                      m.dropped);
    }
    // Poisson arrivals: the count has variance `expected`. Requests
    // still queued or in service at the end were offered but are
    // neither completed nor dropped; at most about one interval's
    // worth under the loads these traces reach.
    const double bound = 6.0 * std::sqrt(expected);
    const double residual = expected - served;
    if (residual < -bound || residual > bound + lastInterval) {
        std::ostringstream why;
        why.precision(12);
        why << "arrivals: completed+dropped " << served
            << ", offered-rate integral " << expected << " (allowed "
            << -bound << " .. " << bound + lastInterval
            << " below it)";
        return why.str();
    }
    return std::nullopt;
}

Failure
checkUtilization(const hipster::MetricsSeries &series)
{
    for (std::size_t k = 0; k < series.size(); ++k) {
        const double u = series[k].lcUtilization;
        if (!(u >= 0.0 && u <= 1.0)) {
            std::ostringstream why;
            why << "utilization " << u << " outside [0, 1] in interval "
                << k;
            return why.str();
        }
    }
    return std::nullopt;
}

bool
isDownInterval(const IntervalMetrics &m)
{
    return m.power == 0.0 && m.throughput == 0.0 && m.config.empty();
}

Failure
checkFleetConservation(const hipster::FleetResult &fleet,
                       const hipster::LoadTrace &fleetTrace,
                       hipster::Seconds interval, std::size_t *capped)
{
    double capacity = 0.0;
    for (const hipster::FleetNodeResult &node : fleet.nodes)
        capacity += node.capacity;
    if (capped)
        *capped = 0;
    for (std::size_t k = 0; k < fleet.fleetSeries.size(); ++k) {
        bool anyUp = false, atCap = false;
        double served = 0.0;
        for (const hipster::FleetNodeResult &node : fleet.nodes) {
            if (k >= node.shard.size() ||
                k >= node.result.series.size())
                return "conservation: node shard or series too short";
            served += node.shard[k].second * node.capacity;
            const bool up = !isDownInterval(node.result.series[k]);
            anyUp = anyUp || up;
            atCap = atCap || (up && node.shard[k].second >= kLocalLoadCap);
        }
        if (!anyUp)
            continue;
        double transit = 0.0;
        if (!fleet.migrationSeries.empty()) {
            if (k >= fleet.migrationSeries.size())
                return "conservation: migration series too short";
            const hipster::MigrationIntervalStats &m =
                fleet.migrationSeries[k];
            transit = (m.transitLoad - m.surgeLoad) / interval;
        }
        const double offered = fleetTrace.at(k * interval) * capacity;
        const double lhs = served + transit;
        const double slack = kSumTolerance * std::max(1.0, offered);
        if (atCap && capped)
            ++*capped;
        if (atCap ? lhs > offered + slack : std::abs(lhs - offered) > slack) {
            std::ostringstream why;
            why.precision(17);
            why << "conservation: interval " << k << " shards+transit-"
                << "surge " << lhs << " vs offered " << offered
                << (atCap ? " (a node at the load cap)" : "");
            return why.str();
        }
    }
    return std::nullopt;
}

Failure
checkNoLoadWhileDown(const hipster::FleetResult &fleet)
{
    for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
        const hipster::FleetNodeResult &node = fleet.nodes[i];
        const std::size_t n =
            std::min(node.shard.size(), node.result.series.size());
        for (std::size_t k = 0; k < n; ++k) {
            if (isDownInterval(node.result.series[k]) &&
                node.shard[k].second != 0.0) {
                std::ostringstream why;
                why << "down node " << i << " received load "
                    << node.shard[k].second << " in interval " << k;
                return why.str();
            }
        }
    }
    return std::nullopt;
}

std::uint64_t
digest(const hipster::ExperimentResult &result)
{
    Fnv h;
    for (std::size_t k = 0; k < result.series.size(); ++k)
        addInterval(h, result.series[k]);
    addSummary(h, result.summary);
    h.add(result.migrations).add(result.dvfsTransitions);
    h.add(result.simEvents);
    return h.value();
}

std::uint64_t
digest(const hipster::FleetResult &fleet)
{
    Fnv h;
    for (const IntervalMetrics &m : fleet.fleetSeries)
        addInterval(h, m);
    for (const hipster::FleetNodeResult &node : fleet.nodes) {
        h.add(digest(node.result)).add(node.capacity).add(node.tdp);
        for (const auto &[t, load] : node.shard)
            h.add(t).add(load);
    }
    for (const hipster::MigrationIntervalStats &m : fleet.migrationSeries) {
        h.add(m.movesStarted).add(m.inFlightShare).add(m.transitLoad);
        h.add(m.surgeLoad).add(m.blankedLoad).add(m.migrationEnergy);
    }
    addSummary(h, fleet.summary.fleet);
    h.add(fleet.summary.fleetCapacity).add(fleet.summary.strandedCapacity);
    h.add(fleet.summary.migration.moves);
    return h.value();
}

Failure
checkSameRuns(const std::vector<std::uint64_t> &expected,
              const std::vector<std::uint64_t> &actual,
              const std::string &what)
{
    if (expected.size() != actual.size())
        return what + ": " + std::to_string(actual.size()) +
               " runs, expected " + std::to_string(expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (expected[i] != actual[i])
            return what + ": run " + std::to_string(i) + " differs";
    }
    return std::nullopt;
}

} // namespace hostbench
