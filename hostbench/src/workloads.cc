#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "checks.hh"
#include "core/policy_registry.hh"
#include "experiments/experiment_spec.hh"
#include "fleet/dispatcher_registry.hh"
#include "hazards/hazard_registry.hh"
#include "loadgen/trace_registry.hh"
#include "migration/migration_registry.hh"
#include "platform/platform_registry.hh"
#include "telemetry/telemetry_registry.hh"
#include "workloads/workload_registry.hh"

namespace hostbench
{

using namespace hipster;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The ExperimentSpec SweepEngine::runJob builds for `job`. */
ExperimentSpec
experimentFor(const SweepSpec &sweep, const SweepJob &job)
{
    ExperimentSpec spec;
    spec.workload = job.workload;
    spec.platform = job.platform;
    spec.trace = job.trace;
    spec.policy = job.policy;
    spec.hazard = job.hazard;
    spec.duration = sweep.duration;
    spec.durationScale = sweep.durationScale;
    spec.seed = job.seed;
    spec.runner = sweep.runner;
    return spec;
}

std::size_t
intervalsOf(Seconds duration, const RunnerOptions &runner)
{
    // ExperimentRunner::run's rounding.
    return static_cast<std::size_t>(duration / runner.interval + 0.5);
}

/** One job with spans around set-up, run and every interval; its
 * outputs equal the untraced job's bitwise. */
template <typename MakeRunner>
ExperimentResult
spannedJob(const SweepSpec &sweep, const SweepJob &job,
           SpanRecorder &recorder, MakeRunner makeRunner)
{
    SpanScope jobSpan(&recorder, SpanKind::Job);
    SpanScope setup(&recorder, SpanKind::Setup);
    const ExperimentSpec spec = experimentFor(sweep, job);
    ExperimentRunner runner = makeRunner(spec, job);
    SpannedPolicy policy(spec.makePolicyFor(runner.platform()), recorder);
    const std::size_t intervals =
        intervalsOf(spec.resolvedDuration(), spec.runner);
    runner.beginRun(policy, intervals);
    setup.close();

    SpanScope run(&recorder, SpanKind::Run);
    for (std::size_t k = 0; k < intervals; ++k) {
        SpanScope interval(&recorder, SpanKind::Interval);
        runner.stepNext(policy);
    }
    return runner.finishRun();
}

/** A copy of `series` with `edit` applied to every interval. */
template <typename Edit>
MetricsSeries
editedSeries(const MetricsSeries &series, Edit edit)
{
    MetricsSeries out;
    out.reserve(series.size());
    for (std::size_t k = 0; k < series.size(); ++k) {
        IntervalMetrics m = series[k];
        edit(k, m);
        out.push_back(m);
    }
    return out;
}

/** Energy and QoS corruptions of one run's summary; appends the
 * checks that did not notice to `missed`. */
template <typename Series>
void
corruptSummary(const Series &series, const RunSummary &summary,
               const std::string &label, std::vector<std::string> &missed)
{
    if (series.size() == 0)
        return;
    double largest = 0.0; // a down interval meters nothing
    for (std::size_t k = 0; k < series.size(); ++k)
        largest = std::max(largest, IntervalMetrics(series[k]).energy);
    RunSummary energy = summary;
    energy.energy += largest;
    if (!checkEnergy(series, energy))
        missed.push_back(label + ": energy off by one interval");

    RunSummary qos = summary;
    qos.qosGuarantee += 1.0 / static_cast<double>(series.size());
    if (!checkQosGuarantee(series, qos))
        missed.push_back(label + ": QoS guarantee off by one interval");
}

// --- SweepEngine workloads (mc-open, ws-closed) ----------------------

struct SweepConfig
{
    std::string name;
    SweepSpec spec;
    std::size_t jobs = 1;
    /**
     * When set, every run's load trace is the one this master seed
     * would give it, whatever the sweep's master seed: each seed then
     * offers the same load profiles and varies only the arrival and
     * demand streams. Unset, runs use SweepEngine's default wiring.
     */
    std::optional<std::uint64_t> traceMasterSeed;
};

class SweepWorkload final : public Workload
{
  public:
    explicit SweepWorkload(SweepConfig config) : config_(std::move(config))
    {
    }

    std::string name() const override { return config_.name; }

    std::size_t
    runsPerRound() const override
    {
        return SweepEngine(config_.spec).expandJobs().size();
    }

    void
    parseSpecs() const override
    {
        const SweepSpec &s = config_.spec;
        for (const std::string &w : s.workloads) {
            validateWorkloadSpec(w);
            const Seconds length =
                (s.duration > 0.0 ? s.duration : diurnalDurationFor(w)) *
                s.durationScale;
            for (const std::string &t : s.traces)
                validateTraceSpec(t, length);
        }
        for (const std::string &p : s.platforms)
            validatePlatformSpec(p);
        for (const std::string &p : s.policies)
            validatePolicySpec(p);
        for (const std::string &h : s.hazards)
            validateHazardSpec(h);
        validateTelemetrySpec(s.telemetry);
    }

    double
    setupOnce() const override
    {
        std::vector<ExperimentRunner> runners;
        std::vector<std::unique_ptr<TaskPolicy>> policies;
        const auto start = std::chrono::steady_clock::now();
        const SweepEngine engine(config_.spec);
        for (const SweepJob &job : engine.expandJobs()) {
            if (job.seedIndex != 0)
                continue; // one run of every cell
            const ExperimentSpec spec = experimentFor(config_.spec, job);
            spec.validate();
            runners.push_back(makeRunner(spec, job));
            policies.push_back(spec.makePolicyFor(runners.back().platform()));
            runners.back().beginRun(
                *policies.back(),
                intervalsOf(spec.resolvedDuration(), spec.runner));
        }
        return secondsSince(start);
    }

    RoundResult
    round(SpanRecorder *recorder) const override
    {
        SweepSpec spec = config_.spec;
        const auto makeRunnerFn = [this](const ExperimentSpec &e,
                                         const SweepJob &job) {
            return makeRunner(e, job);
        };
        if (recorder) {
            spec.jobRunner = [this, recorder,
                              makeRunnerFn](const SweepJob &job) {
                return spannedJob(config_.spec, job, *recorder,
                                  makeRunnerFn);
            };
        } else if (config_.traceMasterSeed) {
            spec.jobRunner = [this](const SweepJob &job) {
                const ExperimentSpec e = experimentFor(config_.spec, job);
                ExperimentRunner runner = makeRunner(e, job);
                const auto policy = e.makePolicyFor(runner.platform());
                return runner.run(*policy, e.resolvedDuration());
            };
        }
        RoundResult out;
        {
            SpanScope roundSpan(recorder, SpanKind::Round);
            const auto start = std::chrono::steady_clock::now();
            const SweepEngine engine(spec);
            SpanScope sweepSpan(recorder, SpanKind::Sweep);
            out.sweep = engine.run(config_.jobs);
            sweepSpan.close();
            out.hostSeconds = secondsSince(start);
        }
        checkRuns(out);
        return out;
    }

    std::vector<std::string>
    referenceChecks(const RoundResult &round, std::size_t &runs) const override
    {
        if (config_.jobs <= 1)
            return {};
        const SweepResults serial = SweepEngine(config_.spec).run(1);
        runs += serial.runs.size();
        std::vector<std::uint64_t> digests;
        for (const SweepRun &run : serial.runs)
            digests.push_back(digest(run.result));
        if (auto failure = checkSameRuns(
                digests, round.digests,
                std::to_string(config_.jobs) + "-worker vs 1-worker sweep"))
            return {*failure};
        return {};
    }

    std::vector<std::string>
    negativeTests(const RoundResult &round) const override
    {
        std::vector<std::string> missed;
        if (!round.sweep || round.sweep->runs.size() < 2)
            return {"negative tests: no runs to corrupt"};
        const SweepRun &first = round.sweep->runs.front();
        const MetricsSeries &series = first.result.series;
        corruptSummary(series, first.result.summary, name(), missed);

        const LcAppParams app =
            makeWorkloadFromSpec(first.job.workload).params;
        if (app.mode == ArrivalMode::OpenLoop) {
            const auto trace = traceFor(first.job);
            const std::size_t quarter = series.size() * 3 / 4;
            const MetricsSeries lost = editedSeries(
                series, [&](std::size_t k, IntervalMetrics &m) {
                    if (k >= quarter)
                        m.throughput = 0.0;
                });
            if (!checkArrivals(lost, *trace, app,
                               config_.spec.runner.interval))
                missed.push_back(name() + ": requests of the last "
                                          "quarter lost");
            const MetricsSeries busy = editedSeries(
                series, [](std::size_t k, IntervalMetrics &m) {
                    if (k == 0)
                        m.lcUtilization = 1.5;
                });
            if (!checkUtilization(busy))
                missed.push_back(name() + ": utilization 1.5");
        }

        std::vector<std::uint64_t> swapped = round.digests;
        std::swap(swapped[0], swapped[1]);
        if (!checkSameRuns(round.digests, swapped, "swap"))
            missed.push_back(name() + ": two runs swapped");

        ExperimentResult nudged = first.result;
        nudged.series = editedSeries(series, [](std::size_t k,
                                                IntervalMetrics &m) {
            if (k == 0)
                m.power = std::nextafter(m.power, 1e300);
        });
        if (digest(nudged) == round.digests[0])
            missed.push_back(name() + ": power changed by one ulp");
        return missed;
    }

  private:
    /** The trace seed of `job`'s run: ExperimentSpec::makeRunner
     * forks the trace stream at the run seed + 100. */
    std::uint64_t
    traceSeed(const SweepJob &job) const
    {
        const std::uint64_t runSeed =
            config_.traceMasterSeed
                ? SweepEngine::seedForRun(*config_.traceMasterSeed,
                                          job.seedIndex)
                : job.seed;
        return runSeed + 100;
    }

    std::shared_ptr<const LoadTrace>
    traceFor(const SweepJob &job) const
    {
        return makeTrace(job.trace,
                         experimentFor(config_.spec, job).resolvedDuration(),
                         traceSeed(job));
    }

    /** ExperimentSpec::makeRunner, with the trace from traceFor(). */
    ExperimentRunner
    makeRunner(const ExperimentSpec &spec, const SweepJob &job) const
    {
        if (!config_.traceMasterSeed)
            return spec.makeRunner();
        ExperimentRunner runner(makePlatformFromSpec(spec.platform),
                                makeWorkloadFromSpec(spec.workload),
                                traceFor(job), spec.seed, spec.runner);
        runner.setHazards(
            makeHazardEngine(spec.hazard, hazardEngineSeed(spec.seed)));
        return runner;
    }

    void
    checkRuns(RoundResult &out) const
    {
        const SweepResults &results = *out.sweep;
        const double runs = static_cast<double>(results.runs.size());
        RoundCounts &c = out.counts;
        for (const SweepRun &run : results.runs) {
            const ExperimentResult &r = run.result;
            out.digests.push_back(digest(r));
            const LcAppParams app =
                makeWorkloadFromSpec(run.job.workload).params;
            std::vector<Failure> failures = {
                checkEnergy(r.series, r.summary),
                checkQosGuarantee(r.series, r.summary)};
            // Open loop: the arrival integral and utilization range.
            if (app.mode == ArrivalMode::OpenLoop) {
                failures.push_back(checkArrivals(
                    r.series, *traceFor(run.job), app,
                    config_.spec.runner.interval));
                failures.push_back(checkUtilization(r.series));
            }
            bool failed = false;
            for (const Failure &f : failures) {
                if (f) {
                    out.failures.push_back(name() + " run " +
                                           std::to_string(run.job.index) +
                                           ": " + *f);
                    failed = true;
                }
            }
            out.failedRuns += failed ? 1 : 0;

            for (std::size_t k = 0; k < r.series.size(); ++k) {
                const IntervalMetrics m = r.series[k];
                c.simRequests += completedRequests(m, app);
                c.downIntervals += isDownInterval(m) ? 1 : 0;
            }
            c.nodeIntervals += r.series.size();
            c.simEvents += r.simEvents;
            c.arrivalGenSeconds += r.profile.arrivalGenSeconds;
            c.eventLoopSeconds += r.profile.eventLoopSeconds;
            c.metricsSeconds += r.profile.metricsSeconds;
            c.dvfsTransitions += r.dvfsTransitions;
            c.coreMigrations += r.migrations;
            c.qosGuarantee += r.summary.qosGuarantee / runs;
            c.energyJ += r.summary.energy / runs;
        }
    }

    SweepConfig config_;
};

// --- Fleet workload (fleet-mixed) -----------------------------------

/** The recorder the span-* registry entries report to while a traced
 * fleet round runs. */
SpanRecorder *activeFleetRecorder = nullptr;

/** Thrown by the set-up probe dispatcher at the first route(). */
struct FirstIntervalReached
{
};

class SetupProbeDispatcher final : public Dispatcher
{
  public:
    explicit SetupProbeDispatcher(std::unique_ptr<Dispatcher> inner)
        : Dispatcher(inner->name()), inner_(std::move(inner))
    {
    }
    void
    route(const std::vector<DispatchNodeView> &, Fraction,
          std::vector<double> &) const override
    {
        throw FirstIntervalReached{};
    }

  private:
    std::unique_ptr<Dispatcher> inner_;
};

constexpr const char *kFleetDispatcher = "dispatch:cp-migrate";

/**
 * Registry entries the fleet workload runs through: "span-<policy>"
 * and "dispatch:span-cp-migrate" wrap the real policy/dispatcher in
 * span recorders; "dispatch:setup-probe" builds the real dispatcher
 * and stops the run at its first route().
 */
void
registerFleetWrappers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        for (const char *inner : {"hipster-in", "heuristic"}) {
            const std::string innerName = inner;
            PolicyInfo info;
            info.name = "span-" + innerName;
            info.display = "span-" + innerName;
            info.summary = innerName + " with decide() spans";
            PolicyRegistry::instance().registerPolicy(
                info, [innerName](const PolicyRegistry::BuildContext &ctx,
                                  const PolicyParamSet &) {
                    return std::make_unique<SpannedPolicy>(
                        makePolicyFromSpec(innerName, ctx),
                        *activeFleetRecorder);
                });
        }
        DispatcherRegistry::instance().add(
            {"span-cp-migrate", "cp-migrate with route()/plan spans", {}},
            [](const SpecParamSet &) {
                return std::make_unique<SpannedDispatcher>(
                    makeDispatcher(kFleetDispatcher), *activeFleetRecorder);
            });
        DispatcherRegistry::instance().add(
            {"setup-probe", "cp-migrate stopped at its first route()", {}},
            [](const SpecParamSet &) {
                return std::make_unique<SetupProbeDispatcher>(
                    makeDispatcher(kFleetDispatcher));
            });
    });
}

class FleetWorkload final : public Workload
{
  public:
    explicit FleetWorkload(std::uint64_t seed) : seed_(seed)
    {
        registerFleetWrappers();
    }

    std::string name() const override { return "fleet-mixed"; }

    std::size_t runsPerRound() const override { return 1; }

    void
    parseSpecs() const override
    {
        const FleetSpec spec = makeSpec(false);
        validateWorkloadSpec(spec.workload);
        validateTraceSpec(spec.trace, spec.resolvedDuration());
        for (const FleetNodeSpec &node : spec.nodes) {
            validatePlatformSpec(node.platform);
            validatePolicySpec(node.policy);
        }
        makeDispatcher(spec.dispatcher);
        validateHazardSpec(spec.hazard);
        validateMigrationSpec(spec.migration);
        validateTelemetrySpec(spec.telemetry);
    }

    double
    setupOnce() const override
    {
        const auto start = std::chrono::steady_clock::now();
        FleetSpec spec = makeSpec(false);
        spec.dispatcher = "dispatch:setup-probe";
        try {
            runFleet(spec);
        } catch (const FirstIntervalReached &) {
            return secondsSince(start);
        }
        throw std::runtime_error(
            "fleet set-up probe: the run ended without routing");
    }

    RoundResult
    round(SpanRecorder *recorder) const override
    {
        FleetSpec spec = makeSpec(recorder != nullptr);
        if (recorder) {
            const TelemetryConfig config =
                parseTelemetryConfig(spec.telemetry);
            spec.telemetryContext = std::make_shared<TelemetryContext>(
                config, std::make_shared<SpannedSink>(
                            makeTelemetrySink(config), *recorder));
        }
        activeFleetRecorder = recorder;
        RoundResult out;
        {
            SpanScope roundSpan(recorder, SpanKind::Round);
            const auto start = std::chrono::steady_clock::now();
            SpanScope runSpan(recorder, SpanKind::Run);
            out.fleet = runFleet(spec);
            runSpan.close();
            out.hostSeconds = secondsSince(start);
        }
        activeFleetRecorder = nullptr;
        checkRun(spec, out);
        return out;
    }

    std::vector<std::string>
    negativeTests(const RoundResult &round) const override
    {
        std::vector<std::string> missed;
        if (!round.fleet)
            return {"negative tests: no fleet run to corrupt"};
        const FleetResult &fleet = *round.fleet;
        corruptSummary(fleet.fleetSeries, fleet.summary.fleet, name(),
                       missed);
        const FleetNodeResult &node0 = fleet.nodes.front();
        corruptSummary(node0.result.series, node0.result.summary,
                       name() + " node 0", missed);

        // A node interval that received load, in an interval where no
        // node sits at the load cap (there the check is exact).
        std::optional<std::pair<std::size_t, std::size_t>> loaded;
        for (std::size_t j = 0; j < fleet.fleetSeries.size() && !loaded;
             ++j) {
            const auto atCap = [j](const FleetNodeResult &n) {
                return n.shard[j].second >= kLocalLoadCap;
            };
            if (std::any_of(fleet.nodes.begin(), fleet.nodes.end(), atCap))
                continue;
            for (std::size_t i = 0; i < fleet.nodes.size() && !loaded; ++i) {
                if (fleet.nodes[i].shard[j].second > 0.0)
                    loaded.emplace(i, j);
            }
        }
        if (!loaded)
            return {"negative tests: no node received load"};
        const std::size_t node = loaded->first, k = loaded->second;

        FleetResult dropped = fleet;
        dropped.nodes[node].shard[k].second = 0.0;
        const FleetSpec spec = makeSpec(false);
        const auto trace = fleetTrace(spec);
        if (!checkFleetConservation(dropped, *trace, spec.runner.interval))
            missed.push_back(name() + ": a dropped shard");

        FleetResult downed = fleet;
        ExperimentResult &victim = downed.nodes[node].result;
        victim.series = editedSeries(
            victim.series, [k](std::size_t j, IntervalMetrics &m) {
                if (j == k) {
                    const IntervalMetrics blank = m;
                    m = IntervalMetrics{};
                    m.begin = blank.begin;
                    m.end = blank.end;
                    m.qosTarget = blank.qosTarget;
                }
            });
        if (!checkNoLoadWhileDown(downed))
            missed.push_back(name() + ": load routed to a down node");

        FleetResult nudged = fleet;
        double &load = nudged.nodes[node].shard[k].second;
        load = std::nextafter(load, 1e300);
        if (digest(nudged) == round.digests.front())
            missed.push_back(name() + ": shard changed by one ulp");
        return missed;
    }

  private:
    FleetSpec
    makeSpec(bool spanned) const
    {
        const std::string prefix = spanned ? "span-" : "";
        const std::string group =
            "juno@" + prefix + "hipster-in;hetero@" + prefix +
            "hipster-in;montecimone@" + prefix +
            "hipster-in;juno:big=4,little=8@" + prefix + "heuristic";
        FleetSpec spec;
        spec.nodes =
            parseFleetNodes(group + ";" + group + ";" + group + ";" + group);
        spec.workload = "memcached";
        spec.trace = "diurnal";
        spec.dispatcher = spanned ? "dispatch:span-cp-migrate"
                                  : kFleetDispatcher;
        spec.migration = "migrate:hexo:ckpt=64";
        spec.hazard = "hazard:nodefail";
        spec.telemetry = "telemetry:ring";
        spec.durationScale = kDurationScale;
        spec.seed = seed_;
        return spec;
    }

    static std::shared_ptr<const LoadTrace>
    fleetTrace(const FleetSpec &spec)
    {
        // runFleet forks the fleet trace stream at seed + 100.
        return makeTrace(spec.trace, spec.resolvedDuration(),
                         spec.seed + 100);
    }

    void
    checkRun(const FleetSpec &spec, RoundResult &out) const
    {
        const FleetResult &fleet = *out.fleet;
        std::size_t capped = 0;
        out.digests.push_back(digest(fleet));
        std::vector<Failure> failures = {
            checkEnergy(fleet.fleetSeries, fleet.summary.fleet),
            checkQosGuarantee(fleet.fleetSeries, fleet.summary.fleet),
            checkFleetConservation(fleet, *fleetTrace(spec),
                                   spec.runner.interval, &capped),
            checkNoLoadWhileDown(fleet)};
        const LcAppParams app = makeWorkloadFromSpec(spec.workload).params;
        RoundCounts &c = out.counts;
        for (const FleetNodeResult &node : fleet.nodes) {
            const ExperimentResult &r = node.result;
            failures.push_back(checkEnergy(r.series, r.summary));
            failures.push_back(checkQosGuarantee(r.series, r.summary));
            for (std::size_t k = 0; k < r.series.size(); ++k) {
                const IntervalMetrics m = r.series[k];
                c.simRequests += completedRequests(m, app);
                c.downIntervals += isDownInterval(m) ? 1 : 0;
            }
            c.nodeIntervals += r.series.size();
            c.simEvents += r.simEvents;
            c.arrivalGenSeconds += r.profile.arrivalGenSeconds;
            c.eventLoopSeconds += r.profile.eventLoopSeconds;
            c.metricsSeconds += r.profile.metricsSeconds;
            c.dvfsTransitions += r.dvfsTransitions;
            c.coreMigrations += r.migrations;
        }
        c.migrationMoves = fleet.summary.migration.moves;
        c.cappedIntervals = capped;
        c.qosGuarantee = fleet.summary.fleet.qosGuarantee;
        c.energyJ = fleet.summary.fleet.energy;
        for (const Failure &f : failures) {
            if (f)
                out.failures.push_back(name() + ": " + *f);
        }
        out.failedRuns = out.failures.empty() ? 0 : 1;
    }

    /** 90 simulated seconds of memcached's 1440 s diurnal day. */
    static constexpr double kDurationScale = 90.0 / 1440.0;

    std::uint64_t seed_;
};

SweepConfig
mcOpen(std::uint64_t seed)
{
    SweepConfig c;
    c.name = "mc-open";
    c.spec.workloads = {"memcached"};
    c.spec.platforms = {"juno", "hetero"};
    c.spec.traces = {"diurnal", "mmpp:0.2,0.9,45"};
    c.spec.policies = {"hipster-in"};
    c.spec.hazards = {"none"};
    c.spec.seeds = 1;
    c.spec.masterSeed = seed;
    c.spec.durationScale = 180.0 / 1440.0; // 180 s of the diurnal day
    c.jobs = 1;
    // An mmpp realization's mean load swings by tens of percent from
    // seed to seed (few 45 s sojourns per run); a fixed profile keeps
    // the work per round comparable across seeds.
    c.traceMasterSeed = 1;
    return c;
}

SweepConfig
wsClosed(std::uint64_t seed)
{
    SweepConfig c;
    c.name = "ws-closed";
    c.spec.workloads = {"websearch"};
    c.spec.platforms = {"juno"};
    c.spec.traces = {"diurnal"};
    c.spec.policies = {"static-big", "static-small", "heuristic",
                       "octopus-man", "hipster-in"};
    c.spec.hazards = {"none", "hazard:thermal+interference"};
    c.spec.seeds = 6;
    c.spec.masterSeed = seed;
    c.jobs = 2;
    return c;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mc-open", "ws-closed",
                                                   "fleet-mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "mc-open")
        return std::make_unique<SweepWorkload>(mcOpen(seed));
    if (name == "ws-closed")
        return std::make_unique<SweepWorkload>(wsClosed(seed));
    if (name == "fleet-mixed")
        return std::make_unique<FleetWorkload>(seed);
    return nullptr;
}

} // namespace hostbench
