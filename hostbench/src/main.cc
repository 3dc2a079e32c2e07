/**
 * @file
 * hostbench: host-time benchmark of the Hipster simulator.
 *
 *   hostbench --workload mc-open|ws-closed|fleet-mixed --seed N
 *             --seconds S --trace 0|1 [--span-file PATH]
 *
 * One invocation runs one workload: a warm-up round whose outputs
 * are the reference for the bitwise checks and the negative tests,
 * then whole rounds until S seconds have passed, each followed by
 * set-ups from the spec strings. With --trace 0 it reports the end-to-end
 * metrics, measured untraced; with --trace 1 half of S runs untraced
 * and half traced, and it reports the per-layer metrics plus the
 * tracing overhead. Every line but the last is for people; the last
 * is one JSON object.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "spans.hh"
#include "workloads.hh"

namespace hostbench
{
namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spanFile;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "hostbench: " << error << "\n"
              << "usage: hostbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-file <path>]\n"
              << "workloads:";
    for (const std::string &name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                o.trace = value == "1";
            } else if (flag == "--span-file") {
                o.spanFile = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/**
 * The q-quantile (nearest rank), capped at the highest quantile that
 * leaves at least ten samples beyond it; below forty samples, the
 * median.
 */
double
tailQuantile(std::vector<double> xs, double q)
{
    const std::size_t n = xs.size();
    if (n < 40)
        return median(std::move(xs));
    std::sort(xs.begin(), xs.end());
    const std::size_t rank = std::min(
        static_cast<std::size_t>(std::ceil(q * n)), n - 10);
    return xs[std::max<std::size_t>(rank, 1) - 1];
}

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print(std::ostream &out) const
    {
        for (const Entry &e : entries_) {
            out << "  " << e.name << " = " << formatNumber(e.value) << ' '
                << e.unit << '\n';
        }
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out << '{';
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
                << formatNumber(e.value) << ", \"unit\": \"" << e.unit
                << "\"}";
        }
        out << '}';
        return out.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    static std::string
    formatNumber(double value)
    {
        if (!std::isfinite(value))
            return "0";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return buf;
    }

    std::vector<Entry> entries_;
};

/** Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss is no substitute: it keeps the peak of the process that
 * forked us across exec. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("hostbench: no VmHWM in /proc/self/status");
}

/** Per-layer metrics, accumulated over the traced rounds. Sums are
 * per round and reported as the median round; timings keep every
 * sample. */
class LayerStats
{
  public:
    void
    addRound(const std::vector<Span> &spans, const RoundCounts &c)
    {
        constexpr double kNsToS = 1e-9, kNsToMs = 1e-6, kNsToUs = 1e-3;
        double setup = 0.0, decides = 0.0, emits = 0.0;
        const Span *round = nullptr, *sweep = nullptr, *run = nullptr;
        std::vector<const Span *> jobs, routes;
        for (const Span &s : spans) {
            switch (s.kind) {
            case SpanKind::Round: round = &s; break;
            case SpanKind::Sweep: sweep = &s; break;
            case SpanKind::Job: jobs.push_back(&s); break;
            case SpanKind::Setup: setup += s.durationNs() * kNsToS; break;
            case SpanKind::Run:
                runS_.push_back(s.durationNs() * kNsToS);
                run = &s;
                break;
            case SpanKind::Decide:
                decideUs_.push_back(s.durationNs() * kNsToUs);
                decides += 1.0;
                break;
            case SpanKind::Route:
                routeUs_.push_back(s.durationNs() * kNsToUs);
                routes.push_back(&s);
                break;
            case SpanKind::Emit:
                emitUs_.push_back(s.durationNs() * kNsToUs);
                emits += 1.0;
                break;
            default: break;
            }
        }
        if (!round)
            throw std::logic_error("hostbench: traced round without a span");

        // The pool: a job waits from the sweep's start until a worker
        // starts it (mean over the round's jobs). The reduction: sweep
        // time that no job covers.
        double poolWait = 0.0, reduce = 0.0;
        if (sweep) {
            std::vector<std::pair<std::int64_t, std::int64_t>> cover;
            for (const Span *job : jobs) {
                poolWait += (job->startNs - sweep->startNs) * kNsToS /
                            jobs.size();
                cover.emplace_back(job->startNs, job->endNs);
            }
            std::sort(cover.begin(), cover.end());
            std::int64_t covered = 0, reach = sweep->startNs;
            for (const auto &[begin, end] : cover) {
                const std::int64_t from = std::max(begin, reach);
                const std::int64_t to = std::min(end, sweep->endNs);
                if (to > from)
                    covered += to - from;
                reach = std::max(reach, to);
            }
            reduce = (sweep->durationNs() - covered) * kNsToS;
        }

        // The fleet (one run span, no sweep): set-up lasts from
        // runFleet's call to the first route(), an interval step from
        // one route() to the next.
        std::sort(routes.begin(), routes.end(),
                  [](const Span *a, const Span *b) {
                      return a->startNs < b->startNs;
                  });
        if (!sweep && run && !routes.empty())
            setup = (routes.front()->startNs - run->startNs) * kNsToS;
        for (std::size_t i = 1; i < routes.size(); ++i)
            stepMs_.push_back(
                (routes[i]->startNs - routes[i - 1]->startNs) * kNsToMs);

        const double requests = std::max<double>(1.0, c.simRequests);
        perRound_["experiments.setup_s"].push_back(setup);
        perRound_["common.pool_wait_s"].push_back(poolWait);
        perRound_["experiments.reduce_s"].push_back(reduce);
        perRound_["core.decide_calls"].push_back(decides);
        perRound_["telemetry.events"].push_back(emits);
        perRound_["bench.spans_per_round"].push_back(spans.size());
        perRound_["loadgen.arrival_gen_s"].push_back(c.arrivalGenSeconds);
        perRound_["sim.event_loop_s"].push_back(c.eventLoopSeconds);
        perRound_["monitor.metrics_s"].push_back(c.metricsSeconds);
        perRound_["sim.events"].push_back(c.simEvents);
        perRound_["sim.events_per_request"].push_back(c.simEvents /
                                                      requests);
        perRound_["workloads.requests"].push_back(c.simRequests);
        perRound_["workloads.ns_per_request"].push_back(
            (c.arrivalGenSeconds + c.eventLoopSeconds) / requests * 1e9);
        perRound_["platform.dvfs_transitions"].push_back(c.dvfsTransitions);
        perRound_["platform.core_migrations"].push_back(c.coreMigrations);
        perRound_["hazards.down_intervals"].push_back(c.downIntervals);
        perRound_["migration.moves"].push_back(c.migrationMoves);
        perRound_["fleet.capped_intervals"].push_back(c.cappedIntervals);
    }

    void
    report(Metrics &out) const
    {
        const auto sum = [&](const char *name, const char *unit) {
            const auto it = perRound_.find(name);
            out.add(name, it == perRound_.end() ? 0.0 : median(it->second),
                    unit);
        };
        const auto count = [&](const std::string &name,
                               const std::vector<double> &xs) {
            out.add(name + ".n", static_cast<double>(xs.size()), "count");
        };
        sum("loadgen.arrival_gen_s", "s");
        sum("sim.event_loop_s", "s");
        sum("sim.events", "count");
        sum("sim.events_per_request", "count");
        sum("workloads.requests", "count");
        sum("workloads.ns_per_request", "ns");
        sum("core.decide_calls", "count");
        out.add("core.decide_us.p50", median(decideUs_), "us");
        out.add("core.decide_us.p99", tailQuantile(decideUs_, 0.99), "us");
        count("core.decide_us", decideUs_);
        sum("monitor.metrics_s", "s");
        out.add("experiments.run_s.p50", median(runS_), "s");
        count("experiments.run_s", runS_);
        sum("experiments.reduce_s", "s");
        sum("experiments.setup_s", "s");
        sum("common.pool_wait_s", "s");
        out.add("fleet.step_ms.p50", median(stepMs_), "ms");
        out.add("fleet.step_ms.p95", tailQuantile(stepMs_, 0.95), "ms");
        count("fleet.step_ms", stepMs_);
        out.add("fleet.route_us.p50", median(routeUs_), "us");
        out.add("fleet.route_us.p99", tailQuantile(routeUs_, 0.99), "us");
        count("fleet.route_us", routeUs_);
        sum("fleet.capped_intervals", "count");
        sum("telemetry.events", "count");
        out.add("telemetry.emit_us.p50", median(emitUs_), "us");
        sum("platform.dvfs_transitions", "count");
        sum("platform.core_migrations", "count");
        sum("hazards.down_intervals", "count");
        sum("migration.moves", "count");
        sum("bench.spans_per_round", "count");
    }

  private:
    std::map<std::string, std::vector<double>> perRound_;
    std::vector<double> decideUs_, runS_, routeUs_, emitUs_, stepMs_;
};

/** Runs attempted and failed, and every failed check. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
};

/**
 * Runs whole rounds until `seconds` have passed (at least three).
 * A traced run records each round in a fresh SpanRecorder, so only
 * one round's spans are in memory at a time, and hands it to
 * `onSpans`. With `setups`, every round is followed by untimed
 * set-ups worth about 5% of its host time: a set-up lasts well under
 * a millisecond, so only set-ups spread over the whole run see the
 * same machine as its rounds.
 */
std::vector<RoundResult>
timedRounds(const Workload &workload, bool traced, double seconds,
            const RoundResult &reference, const std::string &what,
            Tally &tally, std::vector<double> *setups = nullptr,
            const std::function<void(const SpanRecorder &,
                                     const RoundResult &)> &onSpans = {})
{
    std::vector<RoundResult> rounds;
    const auto start = std::chrono::steady_clock::now();
    while (rounds.size() < 3 ||
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() < seconds) {
        tally.attempted += workload.runsPerRound();
        const auto recorder =
            traced ? std::make_unique<SpanRecorder>() : nullptr;
        RoundResult round;
        try {
            round = workload.round(recorder.get());
        } catch (const std::exception &e) {
            tally.failed += workload.runsPerRound();
            tally.failures.push_back(workload.name() +
                                     ": round threw: " + e.what());
            continue;
        }
        tally.failed += round.failedRuns;
        tally.failures.insert(tally.failures.end(), round.failures.begin(),
                              round.failures.end());
        if (auto f = checkSameRuns(reference.digests, round.digests, what))
            tally.failures.push_back(workload.name() + ": " + *f);
        if (recorder && onSpans)
            onSpans(*recorder, round);
        for (double spent = 0.0; setups && spent < 0.05 * round.hostSeconds;) {
            setups->push_back(workload.setupOnce());
            spent += setups->back();
        }
        round.sweep.reset(); // keep the counts, free the series
        round.fleet.reset();
        rounds.push_back(std::move(round));
    }
    return rounds;
}

int
run(const Options &opt)
{
    const std::unique_ptr<Workload> workload =
        makeWorkload(opt.workload, opt.seed);
    if (!workload)
        usage("unknown workload " + opt.workload);

    Tally tally;

    // Warm-up round: fills caches and finishes lazy set-up, and its
    // outputs are the reference every later round must equal.
    tally.attempted += workload->runsPerRound();
    const RoundResult reference = workload->round(nullptr);
    tally.failed += reference.failedRuns;
    tally.failures = reference.failures;
    for (const std::string &f :
         workload->referenceChecks(reference, tally.attempted))
        tally.failures.push_back(workload->name() + ": " + f);
    const std::vector<std::string> missed =
        workload->negativeTests(reference);

    Metrics metrics;
    if (!opt.trace) {
        std::vector<double> setups;
        const std::vector<RoundResult> rounds =
            timedRounds(*workload, false, opt.seconds, reference,
                        "rounds repeat bitwise", tally, &setups);
        std::vector<double> requestRate, intervalRate;
        for (const RoundResult &r : rounds) {
            requestRate.push_back(r.counts.simRequests / r.hostSeconds);
            intervalRate.push_back(r.counts.nodeIntervals / r.hostSeconds);
        }
        metrics.add("sim_requests_per_s", median(requestRate), "req/s");
        metrics.add("node_intervals_per_s", median(intervalRate),
                    "interval/s");
        metrics.add("setup_s", median(setups), "s");
        metrics.add("peak_rss_mb", peakRssMiB(), "MiB");
        std::cout << workload->name() << ": " << rounds.size()
                  << " timed rounds of " << workload->runsPerRound()
                  << " runs, " << setups.size()
                  << " set-ups; simulated requests per host second by "
                     "round:";
        for (double rate : requestRate)
            std::cout << ' ' << static_cast<long long>(rate);
        std::cout << '\n';
    } else {
        std::vector<double> parseUs;
        for (int i = 0; i < 200; ++i) {
            const auto start = std::chrono::steady_clock::now();
            workload->parseSpecs();
            parseUs.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
        const std::vector<RoundResult> plain =
            timedRounds(*workload, false, opt.seconds / 2, reference,
                        "rounds repeat bitwise", tally);
        LayerStats layers;
        bool spansWritten = false;
        const std::vector<RoundResult> traced = timedRounds(
            *workload, true, opt.seconds / 2, reference,
            "traced run vs untraced run", tally, nullptr,
            [&](const SpanRecorder &recorder, const RoundResult &round) {
                layers.addRound(recorder.collect(), round.counts);
                if (!spansWritten && !opt.spanFile.empty()) {
                    recorder.writeCsv(opt.spanFile); // the first round
                    spansWritten = true;
                }
            });
        layers.report(metrics);
        metrics.add("common.spec_parse_us", median(parseUs), "us");
        std::vector<double> plainS, tracedS;
        for (const RoundResult &r : plain)
            plainS.push_back(r.hostSeconds);
        for (const RoundResult &r : traced)
            tracedS.push_back(r.hostSeconds);
        metrics.add("bench.tracing_overhead_pct",
                    (median(tracedS) / median(plainS) - 1.0) * 100.0, "%");
        std::cout << workload->name() << ": " << plain.size()
                  << " untraced and " << traced.size()
                  << " traced rounds of " << workload->runsPerRound()
                  << " runs\n";
    }

    const RoundCounts &ref = reference.counts;
    std::cout << "  simulated outcome (reference, not gated): QoS "
                 "guarantee "
              << ref.qosGuarantee * 100.0 << "%, energy " << ref.energyJ
              << " J, " << ref.simRequests << " requests, "
              << ref.nodeIntervals << " node intervals per round\n";
    for (const std::string &f : tally.failures)
        std::cout << "  CHECK FAILED " << f << '\n';
    for (const std::string &m : missed)
        std::cout << "  NEGATIVE TEST MISSED " << m << '\n';
    std::cout << "  runs attempted " << tally.attempted << ", failed "
              << tally.failed << '\n';
    metrics.print(std::cout);

    const bool correct = tally.failures.empty() && missed.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    const hostbench::Options options = hostbench::parseArgs(argc, argv);
    try {
        return hostbench::run(options);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << '\n';
        return 1;
    }
}
