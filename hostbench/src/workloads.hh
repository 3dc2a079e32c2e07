/**
 * @file
 * The benchmark's three workloads. Each runs whole rounds of the
 * same simulation runs through the program's public API and checks
 * every run's outputs outside the timed section:
 *
 *   mc-open      memcached (open loop) x {juno, hetero} x {diurnal,
 *                mmpp} x hipster-in, SweepEngine with one worker
 *   ws-closed    websearch (closed loop) x juno x diurnal x five
 *                policies x {none, thermal+interference} x seeds,
 *                SweepEngine with two workers
 *   fleet-mixed  one 16-node mixed-ISA fleet run (runFleet)
 *
 * A round given a SpanRecorder is the traced run: the same runs,
 * driven through the benchmark's own stepping loop and wrappers so
 * that spans can be recorded around every call into a module.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiments/sweep.hh"
#include "fleet/fleet.hh"
#include "spans.hh"

namespace hostbench
{

/** Work counts the program's outputs report for one round. */
struct RoundCounts
{
    std::uint64_t simRequests = 0;   ///< simulated requests completed
    std::uint64_t nodeIntervals = 0; ///< simulated node intervals
    std::uint64_t simEvents = 0;     ///< ExperimentResult::simEvents
    double arrivalGenSeconds = 0.0;  ///< PhaseProfile phases, summed
    double eventLoopSeconds = 0.0;
    double metricsSeconds = 0.0;
    std::uint64_t dvfsTransitions = 0;
    std::uint64_t coreMigrations = 0;
    std::uint64_t downIntervals = 0; ///< node intervals spent down
    std::uint64_t migrationMoves = 0;
    /** Fleet intervals with a node at the local-load cap. */
    std::uint64_t cappedIntervals = 0;
    double qosGuarantee = 0.0; ///< mean over runs (simulated outcome)
    double energyJ = 0.0;      ///< mean over runs (simulated outcome)
};

struct RoundResult
{
    double hostSeconds = 0.0; ///< timed: the round's calls only
    RoundCounts counts;
    /** One fingerprint per simulation run, in job order. */
    std::vector<std::uint64_t> digests;
    /** Failed output checks ("" never appears). */
    std::vector<std::string> failures;
    /** Runs that threw or failed a check. */
    std::size_t failedRuns = 0;

    std::optional<hipster::SweepResults> sweep;
    std::optional<hipster::FleetResult> fleet;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Simulation runs in one round. */
    virtual std::size_t runsPerRound() const = 0;

    /** The workload's spec strings through the registries' public
     * parse and validate functions. */
    virtual void parseSpecs() const = 0;

    /** Host seconds from the spec strings to the start of the first
     * simulated interval (teardown not included). */
    virtual double setupOnce() const = 0;

    /** One round; `recorder` null = untraced. */
    virtual RoundResult round(SpanRecorder *recorder) const = 0;

    /** Checks that need an extra, untimed run of the workload;
     * returns the failures and adds the runs made to `runs`. */
    virtual std::vector<std::string>
    referenceChecks(const RoundResult &round, std::size_t &runs) const
    {
        (void)round;
        (void)runs;
        return {};
    }

    /** Feed every check a deliberately corrupted copy of `round`'s
     * outputs; returns the checks that did not notice. */
    virtual std::vector<std::string>
    negativeTests(const RoundResult &round) const = 0;
};

/** "mc-open", "ws-closed", "fleet-mixed". */
const std::vector<std::string> &workloadNames();

/** The named workload on master seed `seed`; nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
