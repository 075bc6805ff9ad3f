/**
 * @file
 * The benchmark's workloads, each generated from its name and a seed,
 * plus the shared run-report plumbing (checks, metrics, host
 * descriptor).
 *
 * Every workload runs the ERASER SwapLrc protocol in the Z basis with
 * rounds = 3d on a fixed worker count. The library receives only the
 * generated SweepPlan; the benchmark times and checks what comes back.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep_runner.h"

namespace perfbench
{

/** The seed whose outcome digests are pinned in workloads.cpp. */
constexpr uint64_t kDefaultSeed = 1;
/** Worker count every workload runs on (capped by the host's cores). */
constexpr unsigned kWorkers = 4;

/** Whether `name` is one of the benchmark's workloads. */
bool isWorkload(const std::string &name);

/** Wall time (nowNs) at which a plan's first shot started. Stamped
 *  by the plan's policy factories, which the engine calls at the
 *  start of every word-group. */
struct FirstShotClock
{
    std::atomic<int64_t> ns{0};

    void reset() { ns.store(0); }
    void stamp();
};

struct Workload
{
    std::string name;
    uint64_t seed = kDefaultSeed;
    /** Tiny shot counts for the self-check. */
    bool smoke = false;
    unsigned workers = kWorkers;
    qec::SweepPlan plan;
    /** Policy kind behind each plan policy, in plan order. */
    std::vector<qec::PolicyKind> kinds;
    qec::SweepRunOptions options;
    std::shared_ptr<FirstShotClock> firstShot;
};

Workload makeWorkload(const std::string &name, uint64_t seed,
                      bool smoke);

/** Exact outcome digest of one plan run: compared across repetitions
 *  and against the pins recorded for the default seed. */
struct Digest
{
    uint64_t fingerprint = 0;
    uint64_t shots = 0;
    uint64_t logicalErrors = 0;
    uint64_t lrcsScheduled = 0;
    uint64_t roundsTotal = 0;

    bool operator==(const Digest &o) const;
    bool operator!=(const Digest &o) const { return !(*this == o); }
    std::string toString() const;
};

Digest digestOf(const std::vector<qec::PointResult> &points);

/** Test hook for the self-check: corrupt every pinned fingerprint so
 *  the pin comparison must fail. */
void breakPins();

// --------------------------------------------------- run reporting

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Operations attempted/failed and the metrics of one run. */
struct RunReport
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> failures;

    /** Count one checked operation; a failed one is recorded with
     *  `what` and printed to stderr. */
    void check(bool ok, const std::string &what);
    void add(const std::string &name, double value,
             const std::string &unit);
    bool correct() const { return failed == 0; }
};

/** JSON object describing the host and build: CPU model, nproc,
 *  engine backend, build type, fault-injection state, workers. */
std::string hostJson(unsigned workers);

/** Peak resident set size of this process, in MiB (getrusage). */
double peakRssMb();

/** Share of the host's CPU time stolen by the hypervisor since
 *  construction (from /proc/stat; 0 where unavailable). Reported next
 *  to results to explain noisy runs. */
class StealMeter
{
  public:
    StealMeter();
    double fraction() const;

  private:
    uint64_t steal_ = 0, total_ = 0;
};

/**
 * Library-side correctness checks shared by both modes:
 *  - every distinct program of the plan compiles Error-free under
 *    IrAnalyzer;
 *  - the first word-groups of the plan's first point, re-run at W=64
 *    on one worker, XOR to the same verdict fingerprint (and counters)
 *    as at the workload's width on its worker count.
 */
void checkPrograms(const Workload &w, RunReport &report);

/** Count the plan's sessions as attempted operations (a quarantined
 *  point fails each of its sessions) and check the run finished. */
void checkPlanRun(const Workload &w, const qec::SweepSummary &summary,
                  RunReport &report);
/** At kDefaultSeed, check `digest` against the recorded one. */
void checkPinnedDigest(const Workload &w, const Digest &digest,
                       RunReport &report);
void checkCrossWidth(const Workload &w, RunReport &report);

/**
 * Untraced mode: run the whole plan repeatedly (cold caches each time)
 * for at least `seconds`, and report the end-to-end metrics as
 * medians over the repetitions.
 */
RunReport runUntraced(const Workload &w, double seconds);

/**
 * Traced mode: time each layer's public calls from the benchmark's
 * own code and report the per-layer metrics; writes the spans and
 * counts to `trace_path` (skipped when empty).
 */
RunReport runTraced(const Workload &w, double seconds,
                    const std::string &trace_path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
