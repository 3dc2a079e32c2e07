/**
 * @file
 * In-memory span recorder for the benchmark's traced run. The
 * benchmark opens a span around each call it makes into a module
 * (sweep, job, set-up, run, interval) and around the calls its
 * wrappers forward (policy decide, dispatcher route/plan, telemetry
 * emit). Spans stay in per-thread logs until collect(); a span's
 * self time is its duration minus what its direct children on the
 * same thread cover.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "fleet/dispatcher.hh"
#include "telemetry/telemetry.hh"

namespace hostbench
{

enum class SpanKind : std::uint8_t
{
    Round,    ///< one whole round of a workload
    Sweep,    ///< SweepEngine::run
    Job,      ///< one sweep job (jobRunner hook)
    Setup,    ///< spec strings -> runner, policy, beginRun
    Run,      ///< the stepped intervals + finishRun, or runFleet
    Interval, ///< ExperimentRunner::stepNext
    Decide,   ///< TaskPolicy::decide
    Route,    ///< Dispatcher::route
    Plan,     ///< Dispatcher::planMoves
    Emit,     ///< TelemetrySink::write
};

const char *spanKindName(SpanKind kind);

struct Span
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Time covered by direct children on the same thread. */
    std::int64_t childNs = 0;
    /** Index of the enclosing span in the same thread's log (-1 at
     * the top). */
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
    SpanKind kind = SpanKind::Round;

    std::int64_t durationNs() const { return endNs - startNs; }
    std::int64_t selfNs() const { return durationNs() - childNs; }
};

class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span on the calling thread; returns its handle. */
    std::size_t open(SpanKind kind);

    /** Close the calling thread's innermost open span, `handle`. */
    void close(std::size_t handle);

    /** Every thread's spans (thread ids stamped), in thread order.
     * Call once all recording threads have finished. */
    std::vector<Span> collect() const;

    /** Write collect() as CSV: thread,kind,start_ns,end_ns,self_ns,
     * parent. */
    void writeCsv(const std::string &path) const;

  private:
    struct ThreadLog
    {
        std::uint32_t id = 0;
        std::vector<Span> spans;
        std::vector<std::size_t> open;
    };

    ThreadLog &local();

    /** Nanoseconds since the recorder was made. */
    std::int64_t nowNs() const;

    const std::uint64_t generation_;
    const std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_; ///< guards logs_
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/** RAII span; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, SpanKind kind)
        : recorder_(recorder),
          handle_(recorder ? recorder->open(kind) : 0)
    {
    }
    ~SpanScope() { close(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void
    close()
    {
        if (recorder_)
            recorder_->close(handle_);
        recorder_ = nullptr;
    }

  private:
    SpanRecorder *recorder_;
    std::size_t handle_;
};

/** Forwards every call; decide() runs inside a Decide span. */
class SpannedPolicy final : public hipster::TaskPolicy
{
  public:
    SpannedPolicy(std::unique_ptr<hipster::TaskPolicy> inner,
                  SpanRecorder &recorder)
        : inner_(std::move(inner)), recorder_(recorder)
    {
    }

    std::string name() const override { return inner_->name(); }
    hipster::Decision
    initialDecision() override
    {
        return inner_->initialDecision();
    }
    hipster::Decision
    decide(const hipster::IntervalMetrics &last) override
    {
        SpanScope span(&recorder_, SpanKind::Decide);
        return inner_->decide(last);
    }
    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<hipster::TaskPolicy> inner_;
    SpanRecorder &recorder_;
};

/** Forwards every call; route() and planMoves() run inside spans. */
class SpannedDispatcher final : public hipster::Dispatcher
{
  public:
    SpannedDispatcher(std::unique_ptr<hipster::Dispatcher> inner,
                      SpanRecorder &recorder)
        : Dispatcher(inner->name()), inner_(std::move(inner)),
          recorder_(recorder)
    {
    }

    void
    route(const std::vector<hipster::DispatchNodeView> &nodes,
          hipster::Fraction fleetLoad,
          std::vector<double> &shares) const override
    {
        SpanScope span(&recorder_, SpanKind::Route);
        inner_->route(nodes, fleetLoad, shares);
    }
    bool migrationAware() const override
    {
        return inner_->migrationAware();
    }
    void
    planMoves(const std::vector<hipster::DispatchNodeView> &nodes,
              hipster::Fraction fleetLoad,
              const hipster::MigrationPlanContext &ctx,
              std::vector<hipster::MigrationMove> &moves) const override
    {
        SpanScope span(&recorder_, SpanKind::Plan);
        inner_->planMoves(nodes, fleetLoad, ctx, moves);
    }

  private:
    std::unique_ptr<hipster::Dispatcher> inner_;
    SpanRecorder &recorder_;
};

/** Forwards every call; write() runs inside an Emit span. */
class SpannedSink final : public hipster::TelemetrySink
{
  public:
    SpannedSink(std::shared_ptr<hipster::TelemetrySink> inner,
                SpanRecorder &recorder)
        : inner_(std::move(inner)), recorder_(recorder)
    {
    }

    void
    write(const hipster::TelemetryEvent &event) override
    {
        SpanScope span(&recorder_, SpanKind::Emit);
        inner_->write(event);
    }
    void flush() override { inner_->flush(); }
    std::string summaryText() const override
    {
        return inner_->summaryText();
    }

  private:
    std::shared_ptr<hipster::TelemetrySink> inner_;
    SpanRecorder &recorder_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
