/**
 * @file
 * Shared pieces of the performance benchmark: run options, the result
 * record printed as the final JSON line, the span tracer of the traced
 * run, and small order statistics.
 *
 * Every layer is measured from outside: spans are opened by the
 * benchmark around calls into the library's public functions, never
 * inside the library.
 */

#ifndef QLA_PERFBENCH_HARNESS_H
#define QLA_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scheduler workers handed to the library (default: nproc). */
    int workers = 0;
    /** Usable hardware threads of this process. */
    int nproc = 1;
    /** Directory for checkpoints and span dumps (inside the checkout). */
    std::string outDir = ".";
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples the value summarizes (shown in the human table). */
    std::size_t samples = 1;
};

/** Outcome of one run: the fields of the final JSON line. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Human-readable messages of failed checks. */
    std::vector<std::string> failures;
    /** Figures printed in the human table only. */
    std::map<std::string, Metric> extra;

    void set(const std::string &name, double value, const char *unit,
             std::size_t samples = 1)
    {
        metrics[name] = Metric{value, unit, samples};
    }
    void note(const std::string &name, double value, const char *unit,
              std::size_t samples = 1)
    {
        extra[name] = Metric{value, unit, samples};
    }
    /** Count one attempted operation; failed when @p problems is
     *  non-empty (each message is kept). */
    void operation(const std::vector<std::string> &problems);
    bool correct() const { return failed == 0 && failures.empty(); }
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** SplitMix64 step: derives per-operation seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

/** Linear-interpolated quantile (q in [0, 1]) of @p values. */
double quantile(std::vector<double> values, double q);
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

//
// Tracing.
//

/** Span names; the prefix before '.' is the layer (a src/ module, or
 *  "bench" for the benchmark's own operation root). */
enum class SpanName : std::uint8_t {
    BenchOp,        ///< Root: one operation of the workload.
    BenchChunk,     ///< The fig7 replica's own task and chunk lists.
    ServePartition, ///< serve::partitionJob.
    ServeJob,       ///< SweepService submit + processNext.
    ServeCkptSave,  ///< serve::saveCheckpointFile.
    ServeCkptLoad,  ///< serve::loadCheckpointFile.
    SimStart,       ///< sim::ShotScheduler construction.
    SimRun,         ///< sim::ShotScheduler::run.
    SimJob,         ///< One scheduler job on a worker.
    SimStop,        ///< sim::ShotScheduler destruction (joins).
    ArqRecord,      ///< BatchedLogicalQubitExperiment constructor.
    ArqReplayL1,    ///< failureRateRange at level 1.
    ArqReplayL2,    ///< failureRateRange at level 2.
    ArqReduce,      ///< Fixed-order chunk reduction into points.
    AppsCircuit,    ///< apps:: circuit generator.
    NetworkLower,   ///< network::ProgramWorkload constructor.
    NetworkRun,     ///< network::ProgramCoSimulator::run.
};

const char *spanNameText(SpanName name);

/**
 * In-memory span recorder. Each worker thread appends to its own
 * buffer (no locking on the hot path); a span's parent is the
 * innermost open span of the same worker unless given explicitly
 * (scheduler jobs name the sim.run span of the calling thread).
 */
class Tracer
{
  public:
    struct Span
    {
        std::int64_t id = 0;
        std::int64_t parent = -1;
        SpanName name = SpanName::BenchOp;
        int worker = 0;
        std::uint32_t group = 0; ///< Operation id shared by its spans.
        double t0 = 0.0;
        double t1 = 0.0;
        double duration() const { return t1 - t0; }
    };

    explicit Tracer(int workers);

    /** Open a span on @p worker; returns its id. */
    std::int64_t open(int worker, SpanName name, std::uint32_t group,
                      std::int64_t parent = -2);
    void close(int worker, std::int64_t id);

    /** RAII helper. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int worker, SpanName name,
              std::uint32_t group, std::int64_t parent = -2)
            : tracer_(tracer), worker_(worker),
              id_(tracer ? tracer->open(worker, name, group, parent) : -1)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(worker_, id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::int64_t id() const { return id_; }

      private:
        Tracer *tracer_;
        int worker_;
        std::int64_t id_;
    };

    /** Every recorded span, worker by worker. */
    std::vector<Span> spans() const;
    double now() const;

    /** Write all spans as CSV (id,parent,name,worker,group,t0,t1). */
    bool dump(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<std::vector<Span>> buffers_;
    std::vector<std::vector<std::size_t>> open_;
};

/** Per-layer accounting derived from a tracer's spans. */
struct SpanAccounting
{
    /** Self time per span name, summed over spans (seconds). */
    std::map<SpanName, double> selfTime;
    /** Spans per name. */
    std::map<SpanName, std::size_t> count;
    /** Sum over sim.run spans of workers x duration. */
    double schedulerCapacity = 0.0;
    /** Sum of job durations. */
    double jobTime = 0.0;
    /** Sum over sim.run spans of (duration - earliest worker finish). */
    double straggler = 0.0;
    /** Sum over sim.run spans of longest job / duration. */
    double maxJobFrac = 0.0;
    std::size_t runs = 0;
    std::size_t jobs = 0;
    /** Sum over roots of workers x root duration, and the part of it
     *  covered by non-root self times plus scheduler idle (per sim.run
     *  span and worker: run duration minus that worker's job time). */
    double rootCapacity = 0.0;
    double covered = 0.0;
    std::size_t roots = 0;
};

SpanAccounting accountSpans(const std::vector<Tracer::Span> &spans,
                            int workers);

} // namespace perfbench

#endif // QLA_PERFBENCH_HARNESS_H
