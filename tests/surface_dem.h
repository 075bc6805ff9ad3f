/**
 * @file
 * Test helpers: the compiled rotated-surface-code memory program, its
 * detector error model (built exactly as the library's own callers
 * build it), an order-sensitive model digest for golden pins, and a
 * round locator for fault injection into the program's baseOps().
 */

#ifndef QEC_TESTS_SURFACE_DEM_H
#define QEC_TESTS_SURFACE_DEM_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "code/circuit_ir.h"
#include "decoder/detector_model.h"

namespace qec
{

/** The surface-memory program (SWAP-LRC tail) the experiment runs. */
inline CircuitProgram
surfaceProgram(const RotatedSurfaceCode &code, int rounds, Basis basis)
{
    return CircuitCompiler::surfaceMemory(code, rounds, basis,
                                          IrTailKind::SwapLrc);
}

/** The DEM every decoder of this experiment is built from. */
inline DetectorModel
surfaceDem(const RotatedSurfaceCode &code, int rounds, Basis basis)
{
    return buildDetectorModel(surfaceProgram(code, rounds, basis));
}

/** Direct (non-tiled) enumeration of the same model. */
inline DetectorModel
surfaceDemDirect(const RotatedSurfaceCode &code, int rounds, Basis basis)
{
    return buildDetectorModelDirect(surfaceProgram(code, rounds, basis));
}

/** Index of the RoundStart op that opens `round` in a baseOps()
 *  stream (ops.size() when the stream has no such round). */
inline size_t
roundStart(const std::vector<Op> &ops, int round)
{
    return std::find_if(ops.begin(), ops.end(),
                        [round](const Op &op) {
                            return op.type == OpType::RoundStart &&
                                   op.round == round;
                        }) -
           ops.begin();
}

/**
 * 64-bit FNV-1a digest of a model: rounds, stabsPerRound, the edge
 * count, every edge in order (a, b, obsFlip, n1, n3, n15), then
 * decomposedMechanisms and unmatchedDecompositions. Each field is
 * hashed as four little-endian bytes, so an edge reorder, a moved
 * count or a changed endpoint all change the digest.
 */
inline uint64_t
demDigest(const DetectorModel &model)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](int64_t value) {
        for (int i = 0; i < 4; ++i) {
            h ^= ((uint32_t)value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    fold(model.rounds);
    fold(model.stabsPerRound);
    fold((int64_t)model.edges.size());
    for (const DemEdge &e : model.edges) {
        fold(e.a);
        fold(e.b);
        fold(e.obsFlip);
        fold(e.n1);
        fold(e.n3);
        fold(e.n15);
    }
    fold(model.decomposedMechanisms);
    fold(model.unmatchedDecompositions);
    return h;
}

} // namespace qec

#endif // QEC_TESTS_SURFACE_DEM_H
