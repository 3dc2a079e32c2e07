/**
 * @file
 * Output checks. Each one recomputes a quantity from the run's own
 * series, or from inputs the benchmark rebuilds through the public
 * registries, and compares it with what the program reported. None
 * compares against a stored copy of earlier output. A check returns
 * nothing when it passes and the reason when it fails.
 */

#ifndef HOSTBENCH_CHECKS_HH
#define HOSTBENCH_CHECKS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiments/runner.hh"
#include "fleet/fleet.hh"
#include "loadgen/load_trace.hh"
#include "workloads/latency_app.hh"

namespace hostbench
{

using Failure = std::optional<std::string>;

/** Reported energy equals the sum of interval power x interval
 * length. */
Failure checkEnergy(const hipster::MetricsSeries &series,
                    const hipster::RunSummary &summary);
Failure checkEnergy(const std::vector<hipster::IntervalMetrics> &series,
                    const hipster::RunSummary &summary);

/** Reported QoS guarantee equals the share of intervals whose tail
 * latency is within the target. */
Failure checkQosGuarantee(const hipster::MetricsSeries &series,
                          const hipster::RunSummary &summary);
Failure
checkQosGuarantee(const std::vector<hipster::IntervalMetrics> &series,
                  const hipster::RunSummary &summary);

/** Simulated requests completed in one interval (internal scale). */
std::uint64_t completedRequests(const hipster::IntervalMetrics &m,
                                const hipster::LcAppParams &app);

/**
 * Open loop: completed plus dropped requests agree with the integral
 * of the offered rate x simulation scale over the run, within six
 * Poisson standard deviations plus the requests the last interval can
 * leave in the system.
 */
Failure checkArrivals(const hipster::MetricsSeries &series,
                      const hipster::LoadTrace &trace,
                      const hipster::LcAppParams &app,
                      hipster::Seconds interval);

/** Every interval's LC utilization lies in [0, 1]. */
Failure checkUtilization(const hipster::MetricsSeries &series);

/** A node interval in which the node was down (nothing metered). */
bool isDownInterval(const hipster::IntervalMetrics &m);

/** runFleet caps every node's local load at this multiple of its
 * capacity; routed load beyond it is shed and reported nowhere. */
constexpr double kLocalLoadCap = 2.0;

/**
 * Every interval: node shards plus load entering migration transit
 * minus load surging out of it equal the fleet's offered load, taken
 * from the fleet trace the benchmark rebuilds. In an interval where
 * a live node sits at kLocalLoadCap the shed load is unknown, so
 * there the sum may only fall short of the offered load; such
 * intervals are counted in `capped`. Intervals in which every node
 * is down drop the load by design and are skipped.
 */
Failure checkFleetConservation(const hipster::FleetResult &fleet,
                               const hipster::LoadTrace &fleetTrace,
                               hipster::Seconds interval,
                               std::size_t *capped = nullptr);

/** No node receives load in an interval it spends down. */
Failure checkNoLoadWhileDown(const hipster::FleetResult &fleet);

/** FNV-1a fingerprints of everything a run simulated (wall-clock
 * profiles excluded). Equal fingerprints = bitwise-equal outputs. */
std::uint64_t digest(const hipster::ExperimentResult &result);
std::uint64_t digest(const hipster::FleetResult &fleet);

/** Two lists of run fingerprints are equal element by element. */
Failure checkSameRuns(const std::vector<std::uint64_t> &expected,
                      const std::vector<std::uint64_t> &actual,
                      const std::string &what);

} // namespace hostbench

#endif // HOSTBENCH_CHECKS_HH
