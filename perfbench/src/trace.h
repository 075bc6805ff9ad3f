/**
 * @file
 * In-memory span and count recorder for the traced benchmark mode.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * library layer (never inside the library): name, start, end, parent
 * span and run id, on the steady clock. Every thread appends to its
 * own buffer, so recording takes no lock on the hot path; buffers are
 * merged and written out once, when the run ends. A layer's self time
 * is its span's duration minus the part of that interval covered by
 * its child spans (children may run on other threads).
 *
 * The recorder is process-wide and starts disabled: an untraced run
 * pays one branch per span site.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds since an arbitrary process epoch. */
int64_t nowNs();
/** Steady-clock seconds since the same epoch. */
double nowSeconds();

/** One finished span. Ids start at 1; parent 0 means a root span. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0;
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t thread = 0;

    double seconds() const { return (double)(endNs - startNs) * 1e-9; }
};

class Tracer
{
  public:
    /** Turn recording on for this process under `run_id`. */
    static void enable(uint64_t run_id);
    static bool enabled();

    /** Open a span on this thread; returns its id (0 when disabled).
     *  `parent` 0 nests it under this thread's innermost open span. */
    static uint64_t begin(const char *name, uint64_t parent = 0);
    /** Close the innermost open span on this thread. */
    static void end();

    /** Add `value` to the named count (thread-safe). */
    static void count(const std::string &name, double value);

    /** Every span recorded so far, merged across threads, by id. */
    static std::vector<SpanRecord> spans();
    static std::map<std::string, double> counts();

    /**
     * Write the run's spans and counts as one JSON document to `path`
     * (`host_json` is embedded verbatim under "host"). Returns false
     * when the file cannot be written.
     */
    static bool write(const std::string &path,
                      const std::string &host_json);
};

/** RAII span. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t parent = 0)
        : id_(Tracer::enabled() ? Tracer::begin(name, parent) : 0)
    {
    }
    ~Span()
    {
        if (id_)
            Tracer::end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

  private:
    uint64_t id_;
};

/** Span-set queries over a merged span list. */
class SpanIndex
{
  public:
    /** `spans` as Tracer::spans() returns them, sorted by id. */
    explicit SpanIndex(std::vector<SpanRecord> spans);

    /** Durations (seconds) of every span with this name. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum of self time (seconds) over every span with this name. */
    double selfSeconds(const std::string &name) const;
    /** Self time of one span. */
    double selfSeconds(const SpanRecord &span) const;
    /** The span with this id (null when absent). */
    const SpanRecord *byId(uint64_t id) const;

  private:
    const std::vector<size_t> &children(uint64_t id) const;

    std::vector<SpanRecord> spans_;
    std::map<uint64_t, std::vector<size_t>> children_;
};

/** Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 for
 *  an empty sample. */
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
