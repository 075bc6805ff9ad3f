/**
 * @file
 * Bit-packed batched Pauli-frame simulator: W shots per plane word.
 *
 * Where FrameSimulator stores one byte per qubit per flag and runs one
 * shot at a time, this engine packs up to W = NW*64 shots ("lanes")
 * into one NW-word plane per qubit per bit-plane (X frame, Z frame,
 * leaked) — the bulk Pauli-frame layout popularized by Stim, extended
 * here to width-generic SIMD words (see base/simd_word.h). Static
 * circuit structure — CNOT frame propagation, Hadamard plane swaps,
 * resets — executes as a handful of vector word ops for all lanes at
 * once; noise is sampled as Bernoulli *masks* via BernoulliMaskSampler,
 * so at p = 1e-3 the cost of a noisy location is amortized across the
 * whole word-group.
 *
 * Randomness is streamed per 64-lane *block*: block b of a word-group
 * starting at shot S owns the mask-sampler/raw-bit streams a 64-lane
 * group starting at shot S + 64*b would own, and every draw is gated
 * on the block exactly as the 64-lane engine gates it on its whole
 * word. A W = 256/512 run is therefore bit-for-bit the concatenation
 * of its W = 64 sub-runs — the cross-width differential anchor the
 * tests pin.
 *
 * Every op has one noise body, written for one 64-lane block. Each op
 * first sorts the blocks its mask touches:
 *
 *  - An *event-free* block draws nothing beyond the body's fixed
 *    per-block draws (no leaked operand lane, and for the DQLR iSWAP
 *    no excitable lane), and the pending geometric skips of the rare
 *    streams those draws land on cover them, so no draw can hit. The
 *    op subtracts the skips and applies its noiseless frame action as
 *    plane-word ops, on all such blocks at once.
 *  - Every other block is an *event* block and runs the single-block
 *    body, which draws exactly what the per-block contract draws:
 *    masks from the block's streams, per-lane outcomes (depolarizing
 *    Paulis, seepage returns) from lane-split RNG streams.
 *
 * Leakage also breaks lockstep across ops: ERASER adapts each
 * shot's LRC schedule from that shot's own syndrome, so every
 * execute() takes a lane-activation mask, and the experiment layer
 * runs policy-divergent LRC/DQLR insertions only on the lanes whose
 * policies scheduled them.
 *
 * With num_lanes == 1 the engine (at every plane depth) delegates to
 * the scalar FrameSimulator seeded per shot (Rng::forShot(seed,
 * first_shot)); the scalar simulator is thereby the W=1 reference
 * implementation, whose experiment results the golden W=1 tests pin —
 * and which keeps 1-lane ragged tail groups identical across widths.
 */

#ifndef QEC_SIM_BATCH_FRAME_SIMULATOR_H
#define QEC_SIM_BATCH_FRAME_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/simd_word.h"
#include "code/circuit.h"
#include "code/circuit_ir.h"
#include "code/types.h"
#include "sim/bit_mask_sampler.h"
#include "sim/error_model.h"
#include "sim/frame_simulator.h"

namespace qec
{

/** One measurement across all lanes: per-lane outcome bits packed into
 *  plane words, plus the lane set for which the measurement happened. */
template <int NW>
struct BatchMeasureRecordT
{
    using Lane = LaneWord<NW>;

    int qubit = -1;
    int stab = -1;            ///< Stabilizer reported (-1 for finals).
    int round = -1;
    bool finalData = false;
    bool lrcData = false;     ///< Data qubit measured for an LRC.
    Lane mask{};              ///< Lanes that executed this measurement.
    Lane flips{};             ///< Flip bits; zero outside `mask`.
    Lane leakedLabels{};      ///< |L> labels; zero outside `mask`.
};

/** The 64-lane record layout (uint64_t lane sets). */
using BatchMeasureRecord = BatchMeasureRecordT<1>;

/**
 * What the controller supplies for one LRC-slot id when a program
 * round is replayed: the per-stabilizer plane of lanes whose plain
 * readout the slot replaces, and the divergent tails per 64-lane
 * block (first-insertion order — the cross-width bit-identity
 * anchor). An empty fill (both pointers null) leaves the branch
 * untaken, which is also what a slot id without a fill gets.
 */
template <int NW>
struct ProgramLrcFillT
{
    using Lane = LaneWord<NW>;

    /** [numStabs] planes, or null when nothing was scheduled. */
    const Lane *lrcOnStab = nullptr;
    /** [numBlocks()] tail lists, or null. */
    const std::vector<IrLrcTail> *blockTails = nullptr;
    /** Multi-level readout: squash the MOV-back on |L> labels. */
    bool multiLevel = false;
};

/**
 * Executes circuits over W parallel shots packed NW words deep. Lane l
 * simulates global shot `first_shot + l` of the experiment identified
 * by `seed`. One instance per word-group; not thread-safe across
 * word-groups.
 */
template <int NW>
class BatchFrameSimulatorT
{
  public:
    using Lane = LaneWord<NW>;
    using Record = BatchMeasureRecordT<NW>;

    /** Plane words per lane set. */
    static constexpr int kWords = NW;
    /** Maximum lanes per word-group at this width. */
    static constexpr int kMaxLanes = NW * 64;

    BatchFrameSimulatorT(int num_qubits, const ErrorModel &em,
                         int num_lanes, uint64_t seed,
                         uint64_t first_shot);

    // The samplers hold pointers into this object's per-block RNGs;
    // copies would keep drawing from (and later dangle on) the
    // source's streams.
    BatchFrameSimulatorT(const BatchFrameSimulatorT &) = delete;
    BatchFrameSimulatorT & operator=(const BatchFrameSimulatorT &)
        = delete;

    /** Clear frames, leakage and the measurement record. */
    void reset();

    /** Execute one operation on a subset of lanes. */
    void execute(const Op &op, const Lane &mask);
    /** Execute one operation on all live lanes. */
    void execute(const Op &op) { execute(op, live_); }

    /** Execute a span of operations on a subset of lanes. */
    void executeRange(const Op *begin, const Op *end, const Lane &mask);
    void
    executeRange(const Op *begin, const Op *end)
    {
        executeRange(begin, end, live_);
    }

    /**
     * Replay one round of a compiled program on the masked lanes:
     * Gate instructions run verbatim through execute(), Readout
     * instructions stamp their pool Measure with `round` (masking off
     * LRC'd lanes when the program replaces plain readouts), and each
     * LrcSlot branch expands the fill registered under its slot id
     * (`fills[id]`, ids >= num_fills stay empty). The verdicts,
     * counters and LPR this replay produces are pinned per width,
     * protocol, policy and basis by golden tables
     * (tests/test_batch_sim.cpp).
     */
    void executeProgramRound(const CircuitProgram &prog, int round,
                             const Lane &mask,
                             const ProgramLrcFillT<NW> *fills = nullptr,
                             int num_fills = 0);

    /** Replay the program's final transversal measurement. */
    void executeProgramFinal(const CircuitProgram &prog,
                             const Lane &mask);

    /**
     * Replay a whole program on all live lanes with every LRC-slot
     * branch left empty: all rounds, then the final measurement.
     * Protocols without adaptive control (repetition memory, plain
     * surface memory) run entirely through this loop.
     */
    void executeProgram(const CircuitProgram &prog);

    /**
     * RareStream id for probability p, creating the stream if absent
     * (-1 when p is outside the rare-sampled range). Streams are
     * keyed by probability only and initialized lazily per 64-lane
     * block, so registration order cannot change draw content. The
     * constructor resolves every noise channel's id this way, once.
     */
    int noiseStreamId(double p);

    /**
     * Kept for callers that pin a program's noise streams explicitly:
     * the constructor already binds every channel of the error model,
     * so no program can need a stream that is not registered.
     */
    void bindProgramStreams(const CircuitProgram &) {}

    /** The measurements recorded since construction, reset() or the
     *  last clearRecord(): only what the caller has not cleared. */
    const std::vector<Record> &
    record() const
    {
        return record_;
    }

    /**
     * Drop every record (the scalar delegate's too) and keep the
     * capacity; frames, leakage and noise streams are untouched. A
     * caller that consumes each round's records as they come clears
     * after each round, so the record never holds more than one.
     */
    void clearRecord();

    /** Pre-size the record for `measurements` more entries beyond
     *  those it holds, so the ops that record them never reallocate
     *  it: one round's worth when the caller clears per round. */
    void
    reserveRecord(size_t measurements)
    {
        record_.reserve(record_.size() + measurements);
    }

    int numQubits() const { return numQubits_; }
    int numLanes() const { return numLanes_; }
    /** 64-lane blocks in this group (ceil(numLanes / 64)). */
    int numBlocks() const { return numBlocks_; }
    /** Lane set with one bit per live lane. */
    const Lane & liveMask() const { return live_; }

    /** Per-qubit plane words (bits above numLanes() are zero). */
    Lane xWord(int q) const;
    Lane zWord(int q) const;
    Lane leakedWord(int q) const;
    bool leaked(int q, int lane) const;

    /** Total leaked (qubit, lane) pairs in a qubit range. */
    uint64_t countLeaked(int first, int last) const;

    /** Test/DEM hook: XOR a Pauli into the frame on masked lanes. */
    void injectPauli(int q, Pauli p, const Lane &mask);
    /** Test hook: force leakage state on masked lanes. */
    void setLeaked(int q, bool leaked, const Lane &mask);

    const ErrorModel & errorModel() const { return em_; }

  private:
    void opDataNoise(int q, const Lane &mask);
    void opReset(int q, const Lane &mask);
    void opH(int q, const Lane &mask);
    void opCnot(int c, int t, const Lane &mask);
    void opLeakageIswap(int d, int p, const Lane &mask);
    void opMeasure(const Op &op, bool x_basis, const Lane &mask);

    /**
     * Run one LRC-tail op (CNOT, reset, Z readout or DQLR iSWAP) on
     * lanes `m` of block b through its single-block body; scalar mode
     * delegates as execute() does.
     */
    void executeOnBlock(const Op &op, int b, uint64_t m);
    /** One divergent LRC-slot tail on one 64-lane block. */
    void executeLrcTail(const CircuitProgram &prog, const IrLrcTail &t,
                        int b, int round, bool multi_level);
    /**
     * A SwapLrc tail on block b whose outcome needs no draw: no mask
     * lane has a leaked operand, and the p and leak streams' pending
     * skips cover every draw the tail would take, so none can hit.
     * Subtracts those skips and applies the tail as word ops; returns
     * false, having changed nothing, when the tail is not clean.
     */
    bool cleanSwapTail(const IrLrcTail &t, int parity, int b,
                       uint64_t mask, int round);

    // Single-block op bodies: the one noise implementation of each
    // op, run on every event block (see the file comment).
    void opDataNoiseB(int q, int b, uint64_t mask);
    void opResetB(int q, int b, uint64_t mask);
    void opHB(int q, int b, uint64_t mask);
    void opCnotB(int c, int t, int b, uint64_t mask);
    void opLeakageIswapB(int d, int p, int b, uint64_t mask);
    /** Fills word b of `rec`, the op's one record. */
    void opMeasureB(int q, bool x_basis, int b, uint64_t mask,
                    Record &rec);
    void twoQubitNoiseB(int qa, int qb, int b, uint64_t mask);
    void maybeLeakB(int q, int b, uint64_t mask);
    void maybeSeepB(int q, int b, uint64_t mask);
    /** Per-lane uniform {X,Y,Z} depolarizing on masked lanes. */
    void depolarizePerLaneB(int q, int b, uint64_t mask);
    /** Random computational state relative to the reference. */
    void randomComputationalB(int q, int b, uint64_t mask);
    /**
     * One noise channel's draw plan, resolved at construction: its
     * probability, its RareStream id (-1 unless p is rare-sampled;
     * channels with equal p share one id and so one stream) and p's
     * binary digits for the dense path.
     */
    struct Channel
    {
        double p = 0.0;
        int stream = -1;
        BernoulliDigits digits;
    };
    Channel bindChannel(double p);

    /** Bernoulli mask of a channel for block b, drawn iff `gate` is
     *  nonzero: a block outside the gate consumes nothing. */
    uint64_t drawBlockWhere(const Channel &ch, int b, uint64_t gate);

    /**
     * The fixed draws an op body takes on every block it runs, per
     * rare stream: `take[i][b]` trials on stream `stream[i]` for block
     * b (draws times blockLanes_[b]; channels that share a stream add
     * their counts). `coverable` is false when a fixed draw lands on a
     * dense channel, which consumes its block's Rng on every draw.
     */
    struct DrawNeed
    {
        bool coverable = true;
        int streams = 0;
        int stream[2] = {-1, -1};
        uint64_t take[2][NW] = {};
    };
    /** Need of `p_draws` draws on the p channel and `leak_draws` on
     *  the leak-injection channel (none while leakage is off). */
    DrawNeed drawNeed(int p_draws, int leak_draws) const;
    /**
     * True, having subtracted the draws from the skips, when block b's
     * pending skips cover `need`, so that none of its draws can hit;
     * false, having changed nothing, otherwise. An uninitialized
     * stream holds skip 0, below any need.
     */
    bool takeDraws(int b, const DrawNeed &need);
    /**
     * Sort the blocks `mask` touches: a block with no `events` lane
     * whose draws takeDraws() covers is event-free, and its mask word
     * is returned for the caller's noiseless word ops; every other
     * block runs `body(b, mask_word)`.
     */
    template <class Body>
    Lane splitBlocks(const Lane &mask, const Lane &events,
                     const DrawNeed &need, Body &&body);

    /**
     * Per-probability rare-event streams shared across the group's
     * blocks, each block's geometric skip counter stored
     * contiguously; channels hold their stream's id, so a draw makes
     * no probability lookup. Block b's counter trajectory (and its
     * Rng consumption) is exactly what a standalone per-block
     * BernoulliMaskSampler would produce — the layout only removes
     * the per-block stream-list scan from the hot path, which is what
     * made wide word-groups pay the sampler cost once per block
     * instead of once per draw. A block's skip stays 0 until its
     * first draw initializes it.
     */
    struct RareStream
    {
        double p = 0.0;
        double log1mp = 0.0;
        uint64_t skip[NW];
        uint8_t inited[NW];
    };

    RareStream & rareStreamFor(double p);
    /** Rare-path mask for block b (cold path: a hit lands in-word). */
    uint64_t drawRareBlock(RareStream &stream, int b);
    /** Mask of a non-rare channel for block b: empty, full or a
     *  dense digit comparison on the block's Rng. */
    uint64_t drawPlainBlock(const Channel &ch, int b);

    /** Mirror any new scalar-mode records into batch records. */
    void syncScalarRecord();

    int numQubits_;
    int numLanes_;
    int numBlocks_;
    /** Live lanes per 64-lane block; 0 past numBlocks_. */
    int blockLanes_[NW] = {};
    Lane live_;
    ErrorModel em_;
    /** The error model's channels: gate/readout/reset error p, leak
     *  injection, seepage, multi-level readout miss, transport and
     *  DQLR excitation. */
    Channel chP_, chLeak_, chSeep_, chMiss_, chTransport_, chExcite_;
    /** Fixed draws of the op bodies: one p draw (reset, H, readout),
     *  data noise, a two-qubit gate and a whole SwapLrc tail. */
    DrawNeed needP_, needData_, needTwoQubit_, needSwapTail_;
    /** Per-block group streams; block b draws what a 64-lane group at
     *  first_shot + 64*b would draw. */
    std::vector<Rng> blockRng_;
    std::vector<RareStream> rareStreams_;
    std::vector<Rng> laneRng_;
    std::vector<Lane> x_;
    std::vector<Lane> z_;
    std::vector<Lane> leaked_;
    std::vector<Record> record_;

    /** W=1 reference mode (any NW): the scalar simulator. */
    std::unique_ptr<FrameSimulator> scalar_;
    size_t scalarSynced_ = 0;
};

/** The 64-lane engine (uint64_t lane sets). */
using BatchFrameSimulator = BatchFrameSimulatorT<1>;

extern template class BatchFrameSimulatorT<1>;
extern template class BatchFrameSimulatorT<4>;
extern template class BatchFrameSimulatorT<8>;

} // namespace qec

#endif // QEC_SIM_BATCH_FRAME_SIMULATOR_H
