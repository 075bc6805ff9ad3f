/**
 * @file
 * perfbench_driver: one workload, one mode, one result.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--smoke] [--break-pins] [--trace-out PATH]
 *
 * Prints a detail line (host descriptor, per-repetition samples, the
 * failed checks) and, as the last line of standard output, the result
 * object {"correct", "attempted", "failed", "metrics"}. Exits 0 when
 * every check passed, 1 when one failed, 2 on bad arguments.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/sweep_runner.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonSamples(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--break-pins] "
                 "[--trace-out PATH]\n",
                 msg);
    return 2;
}

} // namespace

namespace perfbench
{

RunReport
runUntraced(const Workload &w, double seconds)
{
    RunReport report;
    checkPrograms(w, report);

    const int min_reps = w.smoke ? 1 : 3;
    const int max_reps = 200;
    std::vector<double> setup, rate, wall;
    Digest first_digest;
    const double begin = nowSeconds();
    for (int rep = 0; rep < max_reps; ++rep) {
        if (rep >= min_reps && nowSeconds() - begin >= seconds)
            break;
        // A fresh runner per repetition: its component caches start
        // cold, so every repetition pays the full set-up. Handing the
        // allocator's free memory back first makes the repetition
        // start from about a fresh process's footprint, so peak RSS
        // measures one plan run rather than arena retention piled up
        // by the earlier repetitions.
        w.firstShot->reset();
        malloc_trim(0);
        qec::CollectSink sink;
        qec::SweepRunner runner(w.plan);
        runner.addSink(sink);
        const int64_t t0 = nowNs();
        const qec::SweepSummary summary = runner.run(w.options);
        const int64_t t1 = nowNs();
        const int64_t first_shot = w.firstShot->ns.load();

        checkPlanRun(w, summary, report);
        report.check(first_shot > t0, "plan run started no shot");

        const Digest digest = digestOf(sink.points);
        if (rep == 0)
            first_digest = digest;
        else
            report.check(digest == first_digest,
                         "repetition " + std::to_string(rep) +
                             " digest " + digest.toString() +
                             " differs from the first " +
                             first_digest.toString());
        setup.push_back((double)(first_shot - t0) * 1e-9);
        wall.push_back((double)(t1 - t0) * 1e-9);
        rate.push_back((double)digest.shots /
                       ((double)(t1 - first_shot) * 1e-9));
    }

    // Taken before the checks below, which build components of their
    // own: this is the plan's footprint.
    const double peak_rss = peakRssMb();

    std::fprintf(stderr, "perfbench: %s seed %llu digest %s\n",
                 w.name.c_str(), (unsigned long long)w.seed,
                 first_digest.toString().c_str());
    checkPinnedDigest(w, first_digest, report);
    checkCrossWidth(w, report);

    report.add("shots_per_s", median(rate), "1/s");
    report.add("setup_s", median(setup), "s");
    report.add("wall_s", median(wall), "s");
    report.add("peak_rss_mb", peak_rss, "MB");

    std::printf("{\"perfbench\": \"samples\", \"reps\": %zu, "
                "\"shots_per_s\": %s, \"setup_s\": %s, \"wall_s\": %s}\n",
                rate.size(), jsonSamples(rate).c_str(),
                jsonSamples(setup).c_str(), jsonSamples(wall).c_str());
    return report;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    bool smoke = false, break_pins = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--seed" && has_value)
            seed = std::strtoll(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace" && has_value)
            trace = std::atoi(argv[++i]);
        else if (arg == "--trace-out" && has_value)
            trace_out = argv[++i];
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--break-pins")
            break_pins = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    if (!isWorkload(workload))
        return usage(("unknown workload '" + workload + "'").c_str());
    if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage("--seed, --seconds and --trace are required");
    if (break_pins)
        breakPins();

    const Workload w = makeWorkload(workload, (uint64_t)seed, smoke);
    const StealMeter steal;
    const RunReport report = trace ? runTraced(w, seconds, trace_out)
                                   : runUntraced(w, seconds);

    std::string failures = "[";
    for (size_t i = 0; i < report.failures.size(); ++i)
        failures += (i ? ", " : "") + jsonString(report.failures[i]);
    failures += "]";
    std::printf("{\"perfbench\": \"run\", \"workload\": \"%s\", "
                "\"seed\": %lld, \"trace\": %d, \"smoke\": %s, "
                "\"host\": %s, \"cpu_steal_frac\": %.4f, "
                "\"failed_frac\": %.6g, \"failures\": %s}\n",
                workload.c_str(), seed, trace, smoke ? "true" : "false",
                hostJson(w.workers).c_str(), steal.fraction(),
                (double)report.failed /
                    (double)std::max<uint64_t>(report.attempted, 1),
                failures.c_str());

    std::string metrics;
    char buf[256];
    for (const Metric &m : report.metrics) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(),
                      m.value, m.unit.c_str());
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                report.correct() ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed, metrics.c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
