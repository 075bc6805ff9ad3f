/**
 * @file
 * Leakage-aware Pauli-frame simulator.
 *
 * This is the substrate the paper obtained by privately extending Stim:
 * a frame simulator tracks, per qubit, the X/Z Pauli difference between
 * the noisy execution and a noiseless reference execution, plus a
 * leakage flag. Measurement records report the *flip* of each outcome
 * relative to the reference, which is exactly what detectors and the
 * decoder consume, and is independent of the reference's random
 * stabilizer projections.
 *
 * Leakage semantics (Section 5.2.2):
 *  - frames do not propagate through a CNOT touching a leaked qubit;
 *  - the unleaked operand of such a CNOT receives a uniformly random
 *    Pauli, and with probability pTransport the leakage moves
 *    (Conservative: copies; Exchange: swaps) to it;
 *  - a two-level measurement of a leaked qubit returns a random bit;
 *  - reset clears leakage; seepage returns a leaked qubit to a random
 *    computational state.
 */

#ifndef QEC_SIM_FRAME_SIMULATOR_H
#define QEC_SIM_FRAME_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "code/circuit.h"
#include "code/types.h"
#include "sim/error_model.h"

namespace qec
{

/** One measurement outcome, as recorded by the simulator. */
struct MeasureRecord
{
    int qubit = -1;
    int stab = -1;          ///< Stabilizer reported (-1 for data finals).
    int round = -1;
    bool flip = false;      ///< Outcome relative to noiseless reference.
    bool leakedLabel = false; ///< Multi-level discriminator flagged |L>.
    bool finalData = false;
    bool lrcData = false;   ///< Data qubit measured on behalf of an LRC.
};

/**
 * Executes circuits over the frame + leakage state. One instance per
 * shot (or reset() between shots); not thread-safe across shots.
 */
class FrameSimulator
{
  public:
    FrameSimulator(int num_qubits, const ErrorModel &em, Rng rng);

    /** Clear frames, leakage and the measurement record. */
    void reset();

    /** Execute one operation with noise. */
    void execute(const Op &op);

    /** Execute a span of operations. */
    void executeRange(const Op *begin, const Op *end);

    /** Execute a whole op stream (e.g. CircuitProgram::baseOps())
     *  from a clean state. */
    void run(const std::vector<Op> &ops);

    /** Measurement record accumulated so far. */
    const std::vector<MeasureRecord> & record() const { return record_; }

    /** Pre-size the record so the shot loop never reallocates it. */
    void reserveRecord(size_t measurements)
    {
        record_.reserve(record_.size() + measurements);
    }

    int numQubits() const { return (int)leaked_.size(); }
    bool leaked(int q) const { return leaked_[q] != 0; }
    bool xFrame(int q) const { return x_[q] != 0; }
    bool zFrame(int q) const { return z_[q] != 0; }
    /** Number of currently leaked qubits (for LPR accounting). */
    int countLeaked(int first, int last) const;

    /** Test hook: XOR a Pauli into a qubit's frame. */
    void injectPauli(int q, Pauli p);
    /** Test hook: force a qubit's leakage state. */
    void setLeaked(int q, bool leaked);

    const ErrorModel & errorModel() const { return em_; }
    Rng & rng() { return rng_; }

  private:
    void opDataNoise(const Op &op);
    void opReset(const Op &op);
    void opH(const Op &op);
    void opCnot(const Op &op);
    void opLeakageIswap(const Op &op);
    void opMeasure(const Op &op, bool x_basis);

    /** Apply depolarizing/leak/seepage after a two-qubit op. */
    void twoQubitNoise(int a, int b);
    void maybeLeak(int q);
    void maybeSeep(int q);
    void applyRandomPauli(int q);

    ErrorModel em_;
    Rng rng_;
    std::vector<uint8_t> x_;
    std::vector<uint8_t> z_;
    std::vector<uint8_t> leaked_;
    std::vector<MeasureRecord> record_;
};

} // namespace qec

#endif // QEC_SIM_FRAME_SIMULATOR_H
