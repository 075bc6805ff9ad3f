/**
 * @file
 * qec-irlint: compile any shipped protocol to its CircuitProgram, dump
 * the instruction listing, and run the full IrAnalyzer pass stack.
 * Exit status 0 means the program carries no Error-severity
 * diagnostic — the gate CI's irlint-all-families step relies on.
 *
 * Usage:
 *   qec-irlint [--family surface|repetition] [--distance N]
 *              [--rounds N] [--basis z|x] [--protocol swap|dqlr]
 *              [--p RATE] [--quiet]
 *
 * Defaults: surface, d=3, rounds=3d, basis z, swap-LRC, p=1e-3. A
 * numeric flag whose token does not parse whole, or whose value is out
 * of range, is an error (exit status 2).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "cli_flags.h"
#include "code/ir_analysis.h"
#include "code/rotated_surface_code.h"

using namespace qec;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--family surface|repetition] [--distance N]\n"
        "          [--rounds N] [--basis z|x] "
        "[--protocol swap|dqlr]\n"
        "          [--p RATE] [--quiet]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CircuitFamily family = CircuitFamily::SurfaceMemory;
    int distance = 3;
    int rounds = -1; // default 3d
    Basis basis = Basis::Z;
    IrTailKind tail = IrTailKind::SwapLrc;
    double p = 1e-3;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--family") {
            const char *v = next();
            if (v && std::strcmp(v, "surface") == 0)
                family = CircuitFamily::SurfaceMemory;
            else if (v && std::strcmp(v, "repetition") == 0)
                family = CircuitFamily::RepetitionMemory;
            else
                return usage(argv[0]);
        } else if (arg == "--distance") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            distance = (int)cli::longFlag("--distance", v, 2, 99);
        } else if (arg == "--rounds") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            rounds = (int)cli::longFlag("--rounds", v, 1, 100000);
        } else if (arg == "--basis") {
            const char *v = next();
            if (v && (std::strcmp(v, "z") == 0 ||
                      std::strcmp(v, "Z") == 0))
                basis = Basis::Z;
            else if (v && (std::strcmp(v, "x") == 0 ||
                           std::strcmp(v, "X") == 0))
                basis = Basis::X;
            else
                return usage(argv[0]);
        } else if (arg == "--protocol") {
            const char *v = next();
            if (v && std::strcmp(v, "swap") == 0)
                tail = IrTailKind::SwapLrc;
            else if (v && std::strcmp(v, "dqlr") == 0)
                tail = IrTailKind::Dqlr;
            else
                return usage(argv[0]);
        } else if (arg == "--p") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            p = cli::doubleFlag("--p", v, 0.0, 1.0);
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (rounds < 0)
        rounds = 3 * distance;

    CircuitProgram prog;
    if (family == CircuitFamily::RepetitionMemory) {
        prog = CircuitCompiler::repetitionMemory(distance, rounds);
    } else {
        if (distance % 2 == 0) {
            std::fprintf(stderr,
                         "irlint: surface memory needs odd "
                         "distance, got %d\n",
                         distance);
            return 2;
        }
        RotatedSurfaceCode code(distance);
        prog = CircuitCompiler::surfaceMemory(code, rounds, basis,
                                              tail);
    }

    const Status valid = prog.validate();
    if (!valid.isOk()) {
        std::fprintf(stderr, "irlint: program is invalid: %s\n",
                     valid.toString().c_str());
        return 1;
    }

    const IrAnalysisReport report =
        IrAnalyzer::analyze(prog, ErrorModel::standard(p));

    if (!quiet)
        std::fputs(formatProgramListing(prog).c_str(), stdout);
    std::fputs(report.toString().c_str(), stdout);
    if (!report.removableInstructions.empty()) {
        std::printf("removable:");
        for (int32_t i : report.removableInstructions)
            std::printf(" %d", i);
        std::printf("\n");
    }
    std::printf("%d error(s), %d warning(s)\n", report.errorCount(),
                report.warningCount());
    return report.hasErrors() ? 1 : 0;
}
