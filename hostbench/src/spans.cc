#include "spans.hh"

#include <atomic>
#include <fstream>
#include <stdexcept>

namespace hostbench
{

namespace
{

std::atomic<std::uint64_t> nextGeneration{1};

/** The calling thread's log in the recorder of `tlsGeneration`. */
thread_local std::uint64_t tlsGeneration = 0;
thread_local void *tlsLog = nullptr;

} // namespace

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Round: return "round";
    case SpanKind::Sweep: return "sweep";
    case SpanKind::Job: return "job";
    case SpanKind::Setup: return "setup";
    case SpanKind::Run: return "run";
    case SpanKind::Interval: return "interval";
    case SpanKind::Decide: return "decide";
    case SpanKind::Route: return "route";
    case SpanKind::Plan: return "plan";
    case SpanKind::Emit: return "emit";
    }
    return "?";
}

SpanRecorder::SpanRecorder()
    : generation_(nextGeneration.fetch_add(1)),
      origin_(std::chrono::steady_clock::now())
{
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

SpanRecorder::ThreadLog &
SpanRecorder::local()
{
    if (tlsGeneration != generation_) {
        auto log = std::make_unique<ThreadLog>();
        log->spans.reserve(1 << 16);
        std::lock_guard<std::mutex> lock(mutex_);
        log->id = static_cast<std::uint32_t>(logs_.size());
        tlsLog = log.get();
        tlsGeneration = generation_;
        logs_.push_back(std::move(log));
    }
    return *static_cast<ThreadLog *>(tlsLog);
}

std::size_t
SpanRecorder::open(SpanKind kind)
{
    ThreadLog &log = local();
    Span span;
    span.kind = kind;
    span.thread = log.id;
    span.parent = log.open.empty()
                      ? -1
                      : static_cast<std::int32_t>(log.open.back());
    const std::size_t handle = log.spans.size();
    log.open.push_back(handle);
    log.spans.push_back(span);
    log.spans.back().startNs = nowNs();
    return handle;
}

void
SpanRecorder::close(std::size_t handle)
{
    const std::int64_t end = nowNs();
    ThreadLog &log = local();
    if (log.open.empty() || log.open.back() != handle)
        throw std::logic_error("hostbench: spans closed out of order");
    log.open.pop_back();
    Span &span = log.spans[handle];
    span.endNs = end;
    if (span.parent >= 0)
        log.spans[static_cast<std::size_t>(span.parent)].childNs +=
            span.durationNs();
}

std::vector<Span>
SpanRecorder::collect() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto &log : logs_)
        all.insert(all.end(), log->spans.begin(), log->spans.end());
    return all;
}

void
SpanRecorder::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("hostbench: cannot write " + path);
    out << "thread,kind,start_ns,end_ns,self_ns,parent\n";
    for (const Span &span : collect()) {
        out << span.thread << ',' << spanKindName(span.kind) << ','
            << span.startNs << ',' << span.endNs << ',' << span.selfNs()
            << ',' << span.parent << '\n';
    }
    if (!out)
        throw std::runtime_error("hostbench: error writing " + path);
}

} // namespace hostbench
