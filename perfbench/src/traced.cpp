/**
 * @file
 * Traced mode: the per-layer split of a workload.
 *
 * Four phases, each recorded as spans from this file around calls
 * into the library's public API:
 *
 *  1. set-up, cold: lattice + CircuitCompiler (code.compile),
 *     IrAnalyzer (code.analyze), buildDetectorModel(program)
 *     (decoder.dem_build), decoder + ComponentGraph constructors
 *     (decoder.build) and MemoryExperiment (exp.experiment_ctor), once
 *     per distinct component of the plan, the way the sweep's build
 *     cache shares them;
 *  2. one whole plan through SweepRunner::run (exp.plan_run): the
 *     scheduler, cache-reuse and decode-lever counters, and the worker
 *     pool's busy time;
 *  3. word-group throughput loops over ExperimentSession::runPlannedUnit
 *     on the worker pool, interleaved round by round: untraced, traced
 *     (one exp.unit span per group) and with decoding off (the
 *     decode-off twin);
 *  4. the layer probe (probe.h) replaying the first groups of every
 *     session, checked against the traced loop's results for the same
 *     groups.
 */

#include <unistd.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "base/parallel.h"
#include "code/circuit_ir.h"
#include "code/ir_analysis.h"
#include "decoder/detector_model.h"
#include "probe.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench
{

using namespace qec;

namespace
{

/** Shots per loop experiment: the throughput loops walk fresh groups
 *  and never run out. */
constexpr uint64_t kLoopShots = uint64_t{1} << 22;

/** One (point, policy) pair of the plan, with everything built for it. */
struct SessionSpec
{
    const MemoryExperiment *exp = nullptr;
    const MemoryExperiment *expOff = nullptr;
    std::shared_ptr<const ComponentGraph> graph;
    PolicyKind kind = PolicyKind::Eraser;
};

struct LoopTask
{
    size_t session = 0;
    uint64_t unit = 0;
};

/** The three ways the throughput loop runs the same word-groups. */
enum Variant
{
    kUntraced,
    kTraced,
    kDecodeOff,
    kVariants,
};

struct LoopResult
{
    uint64_t shots = 0;
    /** Wall seconds of this variant's pool regions. */
    double seconds = 0.0;
    /** Per (session, unit) for units below the probe depth. */
    std::map<std::pair<size_t, uint64_t>, ExperimentResult> partials;
    std::map<std::pair<size_t, uint64_t>, double> unitSeconds;

    double rate() const { return seconds > 0.0 ? shots / seconds : 0.0; }
};

/**
 * Run word-groups of every session on the worker pool, in rounds of
 * `per_round` groups per session, until `budget` seconds passed and at
 * least `min_units` groups per session ran. Each round runs the same
 * groups once per variant, back to back in rotating order, each
 * variant on its own sessions — so host-load drift hits all three
 * alike, and the traced variant's spans are the only difference from
 * the untraced one.
 * Groups are never repeated, so the decode caches see fresh syndromes
 * throughout.
 */
std::vector<LoopResult>
unitLoops(const std::vector<SessionSpec> &specs, double budget,
          uint64_t min_units, uint64_t per_round, uint64_t keep_units,
          unsigned workers)
{
    std::vector<std::vector<std::unique_ptr<ExperimentSession>>> sessions(
        kVariants);
    for (int v = 0; v < kVariants; ++v) {
        for (const SessionSpec &s : specs) {
            sessions[v].push_back(std::make_unique<ExperimentSession>(
                v == kDecodeOff ? *s.expOff : *s.exp, s.kind));
            sessions[v].back()->ensureWorkerSlots(workers);
        }
    }
    std::vector<LoopResult> out(kVariants);
    std::mutex mu;
    Span loop("exp.unit_loop");
    const uint64_t parent = loop.id();
    const double begin = nowSeconds();
    for (uint64_t next = 0;; next += per_round) {
        if (next >= min_units && nowSeconds() - begin >= budget)
            break;
        std::vector<LoopTask> tasks;
        for (size_t s = 0; s < specs.size(); ++s)
            for (uint64_t u = next; u < next + per_round; ++u)
                tasks.push_back({s, u});
        // Rotate which variant goes first, so no variant always runs
        // after the same neighbour.
        for (int k = 0; k < kVariants; ++k) {
            const int v = (int)((next / per_round + k) % kVariants);
            LoopResult &res = out[v];
            const double region_begin = nowSeconds();
            sharedWorkerPool().run(
                tasks.size(),
                [&](unsigned worker, uint64_t i) {
                    const LoopTask &t = tasks[i];
                    ExperimentSession &session = *sessions[v][t.session];
                    const int64_t t0 = nowNs();
                    ExperimentResult part;
                    if (v == kTraced) {
                        Span unit("exp.unit", parent);
                        part = session.runPlannedUnit(t.unit, worker);
                    } else {
                        part = session.runPlannedUnit(t.unit, worker);
                    }
                    const double secs = (double)(nowNs() - t0) * 1e-9;
                    std::lock_guard<std::mutex> lock(mu);
                    res.shots += part.shots;
                    if (v == kTraced && t.unit < keep_units) {
                        res.partials[{t.session, t.unit}] = part;
                        res.unitSeconds[{t.session, t.unit}] = secs;
                    }
                },
                workers);
            res.seconds += nowSeconds() - region_begin;
        }
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

RunReport
runTraced(const Workload &w, double seconds,
          const std::string &trace_path)
{
    RunReport report;
    Tracer::enable(((uint64_t)getpid() << 32) ^ (uint64_t)nowNs());
    const std::vector<SweepPoint> points = w.plan.points();
    const unsigned workers = w.workers;

    // ------------------------------------------- 1. set-up, cold
    std::map<int, std::unique_ptr<RotatedSurfaceCode>> codes;
    std::map<int, std::shared_ptr<const CircuitProgram>> programs;
    std::map<int, std::shared_ptr<const DetectorModel>> dems;
    std::map<std::pair<int, double>, std::shared_ptr<const Decoder>>
        decoders;
    std::map<std::pair<int, double>,
             std::shared_ptr<const ComponentGraph>>
        graphs;
    std::vector<std::unique_ptr<MemoryExperiment>> experiments;
    std::vector<SessionSpec> specs;
    int analyze_errors = 0;
    {
        Span setup("bench.setup");
        for (const SweepPoint &pt : points) {
            Span point_span("setup.point");
            const int d = pt.distance;
            if (!programs.count(d)) {
                CircuitProgram prog;
                {
                    Span s("code.compile");
                    codes[d] = std::make_unique<RotatedSurfaceCode>(d);
                    prog = CircuitCompiler::surfaceMemory(
                        *codes[d], pt.rounds, pt.config.basis,
                        IrTailKind::SwapLrc);
                }
                IrAnalysisReport analysis;
                {
                    Span s("code.analyze");
                    analysis = IrAnalyzer::analyze(prog, pt.config.em);
                }
                analyze_errors += analysis.errorCount();
                programs[d] = std::make_shared<const CircuitProgram>(
                    std::move(prog));
            }
            if (!dems.count(d)) {
                Span s("decoder.dem_build");
                dems[d] = std::make_shared<const DetectorModel>(
                    buildDetectorModel(*programs[d]));
                Tracer::count("decoder.dem_edges",
                              (double)dems[d]->edges.size());
            }
            const auto key = std::make_pair(d, pt.p);
            if (!decoders.count(key)) {
                Span s("decoder.build");
                if (pt.decoderKind == DecoderKind::Mwpm)
                    decoders[key] = std::make_shared<MwpmDecoder>(
                        *dems[d], pt.p, w.plan.base.decoderOptions);
                else
                    decoders[key] = std::make_shared<UnionFindDecoder>(
                        *dems[d], pt.p);
                graphs[key] =
                    std::make_shared<ComponentGraph>(*dems[d], pt.p);
            }
            ExperimentConfig cfg = pt.config;
            cfg.shots = kLoopShots;
            {
                Span s("exp.experiment_ctor");
                experiments.push_back(std::make_unique<MemoryExperiment>(
                    *codes[d], cfg, dems[d], decoders[key], programs[d]));
            }
            const MemoryExperiment *exp = experiments.back().get();
            cfg.decode = false;
            experiments.push_back(std::make_unique<MemoryExperiment>(
                *codes[d], cfg, nullptr, nullptr, programs[d]));
            for (PolicyKind kind : w.kinds)
                specs.push_back(
                    {exp, experiments.back().get(), graphs[key], kind});
        }
    }
    Tracer::count("code.analyze_errors", analyze_errors);
    report.check(analyze_errors == 0,
                 "IrAnalyzer reported " + std::to_string(analyze_errors) +
                     " Error diagnostics");

    // ------------------------------------------- 2. one whole plan
    WorkerPool &pool = sharedWorkerPool();
    pool.ensureWorkers(workers);
    CollectSink sink;
    SweepRunner runner(w.plan);
    runner.addSink(sink);
    const WorkerPool::Stats pool_before = pool.stats();
    const double plan_begin = nowSeconds();
    SweepSummary summary;
    {
        Span s("exp.plan_run");
        summary = runner.run(w.options);
    }
    const double plan_wall = nowSeconds() - plan_begin;
    const WorkerPool::Stats pool_after = pool.stats();
    checkPlanRun(w, summary, report);
    checkPinnedDigest(w, digestOf(sink.points), report);
    uint64_t shots = 0, zero = 0, hits = 0, decoded = 0;
    for (const PointResult &pr : sink.points) {
        for (const ExperimentResult &r : pr.results) {
            shots += r.shots;
            zero += r.zeroDefectShots;
            hits += r.syndromeCacheHits;
            decoded += r.decodedShots;
        }
    }
    const double busy = pool_after.busySeconds - pool_before.busySeconds;
    const double tasks = (double)(pool_after.tasks - pool_before.tasks);
    Tracer::count("decoder.shots", (double)shots);
    Tracer::count("decoder.zero_defect_shots", (double)zero);
    Tracer::count("decoder.cache_hits", (double)hits);
    Tracer::count("decoder.decoded_shots", (double)decoded);
    Tracer::count("base.pool.busy_s", busy);
    Tracer::count("base.pool.tasks", tasks);

    // ------------------------------------------- 3. throughput loops
    const bool single = specs.size() == 1;
    const uint64_t probe_units = w.smoke ? 2 : single ? 16 : 4;
    const uint64_t per_round = single ? 2 * workers : 1;
    const double budget = std::max(w.smoke ? 0.3 : 3.0, 0.3 * seconds);
    const std::vector<LoopResult> loops = unitLoops(
        specs, budget, probe_units, per_round, probe_units, workers);
    const LoopResult &traced = loops[kTraced];
    const double rate_plain = loops[kUntraced].rate();
    const double rate_traced = traced.rate();
    const double rate_off = loops[kDecodeOff].rate();

    // ------------------------------------------- 4. layer probe
    std::vector<std::unique_ptr<LayerProbe>> probes;
    for (const SessionSpec &s : specs)
        probes.push_back(std::make_unique<LayerProbe>(*s.exp, s.kind,
                                                      s.graph, workers));
    std::vector<LoopTask> probe_tasks;
    for (size_t s = 0; s < specs.size(); ++s)
        for (uint64_t u = 0; u < probe_units; ++u)
            probe_tasks.push_back({s, u});
    std::vector<ProbeGroup> groups(probe_tasks.size());
    {
        Span s("probe.replay");
        const uint64_t parent = s.id();
        pool.run(
            probe_tasks.size(),
            [&](unsigned worker, uint64_t i) {
                const LoopTask &t = probe_tasks[i];
                const uint64_t width =
                    specs[t.session].exp->config().batchWidth;
                // Groups of the loop experiment are full-width, so
                // group u covers shots [u * width, (u + 1) * width).
                groups[i] = probes[t.session]->runGroup(
                    t.unit * width, (int)width, worker, parent);
            },
            workers);
    }

    const SpanIndex index(Tracer::spans());
    uint64_t lanes = 0, defects = 0, eraser_lrcs = 0, eraser_lane_rounds = 0,
             sim_lane_rounds = 0;
    double unit_sum = 0.0, child_sum = 0.0;
    for (size_t i = 0; i < probe_tasks.size(); ++i) {
        const ProbeGroup &g = groups[i];
        const LoopTask &t = probe_tasks[i];
        const auto key = std::make_pair(t.session, t.unit);
        const ExperimentResult &lib = traced.partials.at(key);
        report.check(lib.logicalErrors == g.logicalErrors &&
                         lib.lrcsScheduled == g.lrcsScheduled,
                     "probe replay of session " +
                         std::to_string(t.session) + " group " +
                         std::to_string(t.unit) +
                         " disagrees with runPlannedUnit");
        lanes += g.lanes;
        defects += g.defects;
        sim_lane_rounds += g.simLaneRounds;
        if (specs[t.session].kind == PolicyKind::Eraser) {
            eraser_lrcs += g.lrcsScheduled;
            eraser_lane_rounds += g.simLaneRounds;
        }
        const SpanRecord &span = *index.byId(g.spanId);
        unit_sum += traced.unitSeconds.at(key);
        child_sum += span.seconds() - index.selfSeconds(span);
    }
    Tracer::count("decoder.probe_defects", (double)defects);
    Tracer::count("decoder.probe_lanes", (double)lanes);
    Tracer::count("sim.lane_rounds", (double)sim_lane_rounds);
    Tracer::count("core.eraser_lrcs", (double)eraser_lrcs);
    Tracer::count("core.eraser_lane_rounds", (double)eraser_lane_rounds);

    auto ms = [](std::vector<double> v) {
        for (double &x : v)
            x *= 1e3;
        return v;
    };
    const std::vector<double> sim_rounds = index.durations("sim.round");
    double sim_seconds = 0.0;
    for (double x : sim_rounds)
        sim_seconds += x;
    std::vector<double> ctrl = index.durations("core.controller_round");
    for (double &x : ctrl)
        x *= 1e6;

    report.add("code.compile_s", index.selfSeconds("code.compile"), "s");
    report.add("code.analyze_s", index.selfSeconds("code.analyze"), "s");
    report.add("code.analyze_errors", analyze_errors, "count");
    report.add("decoder.dem_build_s",
               index.selfSeconds("decoder.dem_build"), "s");
    report.add("decoder.dem_edges",
               Tracer::counts()["decoder.dem_edges"], "count");
    report.add("decoder.build_s", index.selfSeconds("decoder.build"),
               "s");
    const auto decode_ms = ms(index.durations("decoder.decode_group"));
    report.add("decoder.decode_group_ms.p50", percentile(decode_ms, 0.5),
               "ms");
    report.add("decoder.decode_group_ms.p99",
               percentile(decode_ms, 0.99), "ms");
    report.add("decoder.extract_group_ms.p50",
               percentile(ms(index.durations("decoder.extract_group")),
                          0.5),
               "ms");
    report.add("decoder.defects_per_shot",
               ratio((double)defects, (double)lanes), "count");
    report.add("decoder.zero_defect_frac",
               ratio((double)zero, (double)shots), "frac");
    report.add("decoder.cache_hit_rate",
               ratio((double)hits, (double)(hits + decoded)), "frac");
    report.add("decoder.decoded_frac",
               ratio((double)decoded, (double)shots), "frac");
    report.add("sim.round_ms.p50", percentile(ms(sim_rounds), 0.5), "ms");
    report.add("sim.lane_rounds_per_s",
               ratio((double)sim_lane_rounds, sim_seconds), "1/s");
    report.add("core.controller_round_us.p50", percentile(ctrl, 0.5),
               "us");
    report.add("core.lrcs_per_round",
               ratio((double)eraser_lrcs, (double)eraser_lane_rounds),
               "count");
    const auto unit_ms = ms(index.durations("exp.unit"));
    report.add("exp.unit_ms.p50", percentile(unit_ms, 0.5), "ms");
    report.add("exp.unit_ms.p99", percentile(unit_ms, 0.99), "ms");
    report.add("exp.decode_share", 1.0 - ratio(rate_plain, rate_off),
               "frac");
    report.add("exp.experiment_ctor_s",
               index.selfSeconds("exp.experiment_ctor"), "s");
    report.add("exp.sched.pool_utilization", summary.poolUtilization,
               "frac");
    report.add("exp.sched.chunks", (double)summary.chunksDispatched,
               "count");
    report.add("exp.sched.shots_discarded_frac",
               ratio((double)summary.shotsDiscarded,
                     (double)(summary.shotsRun + summary.shotsDiscarded)),
               "frac");
    report.add("exp.sched.shots_reallocated",
               (double)summary.shotsReallocated, "count");
    report.add("exp.cache.dem_reuse_rate",
               ratio((double)summary.demsReused,
                     (double)(summary.demsBuilt + summary.demsReused)),
               "frac");
    report.add("exp.cache.decoder_reuse_rate",
               ratio((double)summary.decodersReused,
                     (double)(summary.decodersBuilt +
                              summary.decodersReused)),
               "frac");
    report.add("base.pool.busy_s", busy, "s");
    report.add("base.pool.tasks", tasks, "count");
    report.add("base.pool.efficiency",
               ratio(busy, (double)workers * plan_wall), "frac");
    report.add("trace.unattributed_frac", 1.0 - ratio(child_sum, unit_sum),
               "frac");
    report.add("trace.overhead_frac", 1.0 - ratio(rate_traced, rate_plain),
               "frac");

    std::printf("{\"perfbench\": \"loops\", \"untraced_shots_per_s\": "
                "%.6g, \"traced_shots_per_s\": %.6g, "
                "\"decode_off_shots_per_s\": %.6g, \"plan_wall_s\": %.6g, "
                "\"probe_groups\": %zu}\n",
                rate_plain, rate_traced, rate_off, plan_wall,
                probe_tasks.size());
    if (!trace_path.empty() &&
        !Tracer::write(trace_path, hostJson(workers)))
        std::fprintf(stderr, "perfbench: cannot write trace to %s\n",
                     trace_path.c_str());
    return report;
}

} // namespace perfbench
