/**
 * @file
 * Builders for syndrome extraction rounds and the final transversal
 * readout: the pieces CircuitCompiler lowers into the one memory
 * circuit, a CircuitProgram (code/circuit_ir.h).
 *
 * A plain round measures every stabilizer with 4 CNOT layers (Fig. 4(a)).
 * A round with an LRC for pair (D, P) appends, after the stabilizer
 * CNOTs: a 3-CNOT SWAP of D and P, a measurement + reset of D (which
 * now holds the parity state and yields the check bit; the reset clears
 * any leakage on D), and a 2-CNOT MOV returning the stored data state
 * from P to D (Fig. 4(b)). This is 9 two-qubit ops instead of 4, with 6
 * P-D interactions of which 4 precede D's reset — the counts analyzed
 * in Section 3.1 and asserted by the test suite.
 */

#ifndef QEC_CODE_BUILDER_H
#define QEC_CODE_BUILDER_H

#include <vector>

#include "code/circuit.h"
#include "code/rotated_surface_code.h"

namespace qec
{

/** Construct a bare Op of `type` acting on q0 (and q1 if two-qubit);
 *  measurement metadata is filled in by the caller. */
Op makeOp(OpType type, int q0, int q1 = -1);

/** An LRC assignment: data qubit `data` swaps with the parity qubit of
 *  stabilizer `stab` (which must be adjacent to `data`). */
struct LrcPair
{
    int data = -1;
    int stab = -1;

    bool
    operator==(const LrcPair &other) const
    {
        return data == other.data && stab == other.stab;
    }
};

/** Index span of one LRC's tail within a round's op list, used by the
 *  runner to squash the MOV when ERASER+M observes |L> on the data
 *  qubit (Section 4.6.2). */
struct LrcSpan
{
    int data = -1;
    int stab = -1;
    int parity = -1;          ///< Ancilla qubit id.
    size_t measureIndex = 0;  ///< Index of the data measurement op.
    size_t movBegin = 0;      ///< First MOV op index.
    size_t movEnd = 0;        ///< One past the last MOV op index.
};

/** One syndrome extraction round, ready for execution. */
struct RoundSchedule
{
    std::vector<Op> ops;
    std::vector<LrcSpan> lrcs;
};

/**
 * Build one syndrome extraction round.
 *
 * @param code  The code lattice.
 * @param round Round index stamped into measurement metadata.
 * @param lrcs  LRC assignments; each parity qubit may appear at most
 *              once and each data qubit must be adjacent to its stab.
 */
RoundSchedule buildRoundSchedule(const RotatedSurfaceCode &code,
                                 int round,
                                 const std::vector<LrcPair> &lrcs);

/**
 * Build the DQLR leakage-removal segment appended after a round
 * (Section A.2): for each pair, LeakageISWAP(D, P) then reset P.
 */
std::vector<Op> buildDqlrSegment(const RotatedSurfaceCode &code,
                                 const std::vector<LrcPair> &pairs);

/** Final transversal data measurement ops for a memory experiment. */
std::vector<Op> buildFinalMeasurement(const RotatedSurfaceCode &code,
                                      int rounds, Basis basis);

} // namespace qec

#endif // QEC_CODE_BUILDER_H
