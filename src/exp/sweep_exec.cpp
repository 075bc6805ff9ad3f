#include "exp/sweep_exec.h"

#include <cstring>
#include <utility>

#include "code/builder.h"
#include "code/circuit_ir.h"

namespace qec
{

namespace
{

uint64_t
doubleKeyBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

StatusOr<SweepBuildCache::Components>
SweepBuildCache::build(const SweepPoint &point,
                       const DecoderOptions &decoder_options,
                       SweepSummary &summary)
{
    Components out;

    auto code_it = codes_.find(point.distance);
    if (code_it == codes_.end()) {
        code_it = codes_
                      .emplace(point.distance,
                               std::make_unique<RotatedSurfaceCode>(
                                   point.distance))
                      .first;
        ++summary.codesBuilt;
    } else {
        ++summary.codesReused;
    }
    out.code = code_it->second.get();

    const CircuitFamily family = point.config.family;
    const ProgramKey prog_key{(int)family, point.distance,
                              point.rounds, (int)point.config.basis,
                              (int)point.protocol};
    auto prog_it = programs_.find(prog_key);
    if (prog_it == programs_.end()) {
        // Checked compile: validate() plus the IrAnalyzer pass stack
        // run exactly once per cached program; every later point that
        // shares the key reuses the analyzed program.
        StatusOr<CircuitProgram> prog =
            family == CircuitFamily::RepetitionMemory
                ? CircuitCompiler::repetitionMemoryChecked(
                      point.distance, point.rounds)
                : CircuitCompiler::surfaceMemoryChecked(
                      *out.code, point.rounds, point.config.basis,
                      point.protocol == RemovalProtocol::Dqlr
                          ? IrTailKind::Dqlr
                          : IrTailKind::SwapLrc);
        if (!prog.ok())
            return prog.status();
        prog_it = programs_
                      .emplace(prog_key,
                               std::make_shared<const CircuitProgram>(
                                   std::move(prog).value()))
                      .first;
    }
    out.program = prog_it->second;

    if (!point.config.decode)
        return out;

    const DemKey dem_key{(int)family, point.distance, point.rounds,
                         (int)point.config.basis};
    auto dem_it = dems_.find(dem_key);
    if (dem_it == dems_.end()) {
        dem_it = dems_
                     .emplace(dem_key,
                              std::make_shared<DetectorModel>(
                                  family == CircuitFamily::SurfaceMemory
                                      ? buildDetectorModel(
                                            *out.code, point.rounds,
                                            point.config.basis)
                                      : buildDetectorModel(
                                            *out.program)))
                     .first;
        ++summary.demsBuilt;
    } else {
        ++summary.demsReused;
    }
    out.dem = dem_it->second;

    const DecoderKey dec_key{(int)family, point.distance, point.rounds,
                             (int)point.config.basis,
                             (int)point.decoderKind,
                             doubleKeyBits(point.p)};
    auto dec_it = decoders_.find(dec_key);
    if (dec_it == decoders_.end()) {
        std::shared_ptr<const Decoder> built;
        if (point.decoderKind == DecoderKind::Mwpm)
            built = std::make_shared<MwpmDecoder>(*out.dem, point.p,
                                                  decoder_options);
        else
            built = std::make_shared<UnionFindDecoder>(*out.dem,
                                                       point.p);
        dec_it = decoders_.emplace(dec_key, std::move(built)).first;
        ++summary.decodersBuilt;
    } else {
        ++summary.decodersReused;
    }
    out.decoder = dec_it->second;
    return out;
}

} // namespace qec
