/**
 * @file
 * Gate-level circuit operations: the op pool of a compiled
 * CircuitProgram (code/circuit_ir.h), executed by both frame
 * simulators and, unrolled by CircuitProgram::baseOps(), analyzed by
 * the detector-model builder.
 *
 * Every noisy location is an explicit Op so that error enumeration can
 * name mechanisms by (op index, Pauli). Rounds are delimited with
 * RoundStart markers; measurement ops carry the stabilizer index and
 * round so outcomes can be mapped back to syndrome bits.
 */

#ifndef QEC_CODE_CIRCUIT_H
#define QEC_CODE_CIRCUIT_H

#include <cstdint>

#include "code/types.h"

namespace qec
{

/** Circuit operation kinds. */
enum class OpType : uint8_t
{
    RoundStart,   ///< Marker: begin syndrome extraction round `round`.
    DataNoise,    ///< Idling/depolarizing + leakage site on a data qubit.
    Reset,        ///< Reset q0 to |0> (clears leakage; init error).
    H,            ///< Hadamard on q0.
    Cnot,         ///< CNOT with control q0, target q1.
    Measure,      ///< Z-basis measurement of q0.
    MeasureX,     ///< X-basis measurement of q0 (memory-X finals).
    LeakageIswap, ///< DQLR leakage-moving op, data q0 -> parity q1.
};

/** One circuit operation. */
struct Op
{
    OpType type = OpType::RoundStart;
    int q0 = -1;
    int q1 = -1;
    /** Stabilizer index whose check this measurement reports (-1 for
     *  final transversal data measurements). */
    int stab = -1;
    /** Syndrome extraction round (RoundStart / Measure metadata). */
    int round = -1;
    /** True for the final transversal data-qubit measurements. */
    bool finalData = false;
    /** True when this measurement is a data qubit read out mid-round on
     *  behalf of an LRC (it still reports stabilizer `stab`). */
    bool lrcData = false;
};

} // namespace qec

#endif // QEC_CODE_CIRCUIT_H
