/**
 * @file
 * RTL export: the equivalent of the paper artifact's eraser_rtl_gen.
 * Emits the SystemVerilog for the ERASER block of a given distance to
 * stdout, plus a resource summary on stderr.
 *
 *   rtl_export 9 > eraser_d9.sv
 *   rtl_export --distance 9 --multilevel > eraser_m_d9.sv
 *
 * The distance must parse whole as an odd integer in [3, 99]; anything
 * else exits with status 2.
 */

#include <cstdio>
#include <cstring>

#include "cli_flags.h"
#include "rtl/verilog_gen.h"

using namespace qec;

int
main(int argc, char **argv)
{
    int distance = 9;
    RtlOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--multilevel") == 0)
            options.multiLevel = true;
        else if (std::strcmp(argv[i], "--distance") == 0)
            distance = (int)cli::longFlag(
                "--distance", i + 1 < argc ? argv[++i] : "", 3, 99);
        else
            distance = (int)cli::longFlag("distance", argv[i], 3, 99);
    }
    if (distance % 2 == 0) {
        std::fprintf(stderr,
                     "usage: %s [--distance] <odd distance in [3, 99]>"
                     " [--multilevel]\n",
                     argv[0]);
        return 2;
    }

    RotatedSurfaceCode code(distance);
    std::fputs(generateEraserRtl(code, options).c_str(), stdout);

    const ResourceEstimate est = estimateResources(code, options);
    std::fprintf(stderr,
                 "eraser_d%d%s: ~%d LUTs (%.3f%%), ~%d FFs (%.3f%%),"
                 " ~%.2f ns critical path on xcku3p\n",
                 distance, options.multiLevel ? " (+M)" : "", est.luts,
                 est.lutPercent, est.ffs, est.ffPercent,
                 est.critPathNs);
    return 0;
}
