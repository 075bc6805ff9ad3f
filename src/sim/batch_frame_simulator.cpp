#include "sim/batch_frame_simulator.h"

#include <cmath>

#include "base/logging.h"
#include "code/builder.h"

namespace qec
{

namespace
{

/** Salt separating word-group mask streams from per-lane streams. */
constexpr uint64_t kBatchStreamSalt = 0x9ec0ffeeb47c5a11ULL;

} // namespace

template <int NW>
BatchFrameSimulatorT<NW>::BatchFrameSimulatorT(int num_qubits,
                                               const ErrorModel &em,
                                               int num_lanes,
                                               uint64_t seed,
                                               uint64_t first_shot)
    : numQubits_(num_qubits), numLanes_(num_lanes),
      numBlocks_((num_lanes + 63) / 64),
      live_(laneMaskOf<Lane>(num_lanes)), em_(em)
{
    panicIf(num_lanes < 1 || num_lanes > kMaxLanes,
            "batch simulator lane count out of range for this width");
    if (numLanes_ == 1) {
        // W=1 reference mode at every plane depth: the scalar
        // simulator, seeded per shot. Delegating for NW > 1 as well
        // keeps 1-lane ragged tail groups bit-identical across widths
        // (e.g. shots = 257 at widths 64 and 256 both simulate shot
        // 256 on this scalar stream).
        scalar_ = std::make_unique<FrameSimulator>(
            num_qubits, em, Rng::forShot(seed, first_shot));
        return;
    }
    // Block b owns the streams of the 64-lane group that would start
    // at shot first_shot + 64*b: W-wide runs replay the 64-wide runs
    // bit for bit.
    blockRng_.reserve(numBlocks_);
    for (int b = 0; b < numBlocks_; ++b) {
        blockLanes_[b] =
            numLanes_ - 64 * b >= 64 ? 64 : numLanes_ - 64 * b;
        blockRng_.push_back(Rng::forStream(
            seed, first_shot + 64 * (uint64_t)b, kBatchStreamSalt));
    }
    rareStreams_.reserve(8);
    laneRng_.reserve(numLanes_);
    for (int l = 0; l < numLanes_; ++l)
        laneRng_.push_back(Rng::forShot(seed, first_shot + l));
    x_.assign(num_qubits, Lane{});
    z_.assign(num_qubits, Lane{});
    leaked_.assign(num_qubits, Lane{});
    chP_ = bindChannel(em.p);
    chLeak_ = bindChannel(em.leakInjectProb());
    chSeep_ = bindChannel(em.seepageProb());
    chMiss_ = bindChannel(em.multiLevelMissProb());
    chTransport_ = bindChannel(em.pTransport);
    chExcite_ = bindChannel(em.dqlrExciteProb);
    needP_ = drawNeed(1, 0);
    needData_ = drawNeed(1, 1);
    needTwoQubit_ = drawNeed(1, 2);
    needSwapTail_ = drawNeed(7, 10);
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Channel
BatchFrameSimulatorT<NW>::bindChannel(double p)
{
    Channel ch;
    ch.p = p;
    ch.stream = noiseStreamId(p);
    if (p > 0.0 && p < 1.0)
        ch.digits = bernoulliDigits(p);
    return ch;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::reset()
{
    record_.clear();
    if (scalar_) {
        scalar_->reset();
        scalarSynced_ = 0;
        return;
    }
    std::fill(x_.begin(), x_.end(), Lane{});
    std::fill(z_.begin(), z_.end(), Lane{});
    std::fill(leaked_.begin(), leaked_.end(), Lane{});
}

template <int NW>
void
BatchFrameSimulatorT<NW>::clearRecord()
{
    record_.clear();
    if (scalar_) {
        // Every scalar record has been mirrored by now (each scalar
        // execute() syncs), so both sides restart empty.
        scalar_->clearRecord();
        scalarSynced_ = 0;
    }
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::xWord(int q) const
{
    if (scalar_) {
        Lane r{};
        laneWordRef(r, 0) = scalar_->xFrame(q) ? 1 : 0;
        return r;
    }
    return x_[q];
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::zWord(int q) const
{
    if (scalar_) {
        Lane r{};
        laneWordRef(r, 0) = scalar_->zFrame(q) ? 1 : 0;
        return r;
    }
    return z_[q];
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::leakedWord(int q) const
{
    if (scalar_) {
        Lane r{};
        laneWordRef(r, 0) = scalar_->leaked(q) ? 1 : 0;
        return r;
    }
    return leaked_[q];
}

template <int NW>
bool
BatchFrameSimulatorT<NW>::leaked(int q, int lane) const
{
    return testLane(leakedWord(q), lane);
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::countLeaked(int first, int last) const
{
    if (scalar_)
        return (uint64_t)scalar_->countLeaked(first, last);
    uint64_t n = 0;
    for (int q = first; q < last; ++q)
        n += (uint64_t)popcountLanes(leaked_[q]);
    return n;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::injectPauli(int q, Pauli p, const Lane &mask)
{
    if (scalar_) {
        if (laneWord(mask, 0) & 1)
            scalar_->injectPauli(q, p);
        return;
    }
    if (p == Pauli::X || p == Pauli::Y)
        x_[q] ^= mask & live_;
    if (p == Pauli::Z || p == Pauli::Y)
        z_[q] ^= mask & live_;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::setLeaked(int q, bool leaked,
                                    const Lane &mask)
{
    if (scalar_) {
        if (laneWord(mask, 0) & 1)
            scalar_->setLeaked(q, leaked);
        return;
    }
    if (leaked)
        leaked_[q] |= mask & live_;
    else
        leaked_[q] = andnot(leaked_[q], mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::syncScalarRecord()
{
    const auto &scalar_record = scalar_->record();
    for (; scalarSynced_ < scalar_record.size(); ++scalarSynced_) {
        const MeasureRecord &rec = scalar_record[scalarSynced_];
        Record batch;
        batch.qubit = rec.qubit;
        batch.stab = rec.stab;
        batch.round = rec.round;
        batch.finalData = rec.finalData;
        batch.lrcData = rec.lrcData;
        laneWordRef(batch.mask, 0) = 1;
        laneWordRef(batch.flips, 0) = rec.flip ? 1 : 0;
        laneWordRef(batch.leakedLabels, 0) = rec.leakedLabel ? 1 : 0;
        record_.push_back(batch);
    }
}

template <int NW>
typename BatchFrameSimulatorT<NW>::RareStream &
BatchFrameSimulatorT<NW>::rareStreamFor(double p)
{
    for (auto &stream : rareStreams_) {
        if (stream.p == p)
            return stream;
    }
    RareStream stream;
    stream.p = p;
    stream.log1mp = std::log1p(-p);
    for (int b = 0; b < NW; ++b) {
        stream.skip[b] = 0;
        stream.inited[b] = 0;
    }
    rareStreams_.push_back(stream);
    return rareStreams_.back();
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::drawRareBlock(RareStream &stream, int b)
{
    // Identical consumption to a per-block BernoulliMaskSampler: the
    // stream's initial gap is drawn from block b's Rng at b's first
    // gated draw of this probability, exactly when the standalone
    // 64-lane group's sampler would create its stream. The gap/walk
    // algorithms are the sampler's own (shared free functions), so
    // the streams cannot drift apart.
    if (!stream.inited[b]) {
        stream.inited[b] = 1;
        stream.skip[b] =
            bernoulliGeometricGap(blockRng_[b], stream.log1mp);
    }
    return bernoulliRareMask(blockRng_[b], stream.log1mp,
                             stream.skip[b], blockLanes_[b]);
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::drawPlainBlock(const Channel &ch, int b)
{
    if (ch.p <= 0.0)
        return 0;
    if (ch.p >= 1.0)
        return laneMask64(blockLanes_[b]);
    return bernoulliDenseMask(blockRng_[b], ch.digits, blockLanes_[b]);
}

template <int NW>
inline uint64_t
BatchFrameSimulatorT<NW>::drawBlockWhere(const Channel &ch, int b,
                                         uint64_t gate)
{
    if (!gate)
        return 0;
    if (ch.stream >= 0) {
        // A stream not yet initialized on block b holds skip 0, so
        // this test also routes its first draw to drawRareBlock.
        RareStream &stream = rareStreams_[ch.stream];
        const uint64_t n = (uint64_t)blockLanes_[b];
        if (stream.skip[b] >= n) {
            stream.skip[b] -= n;
            return 0;
        }
        return drawRareBlock(stream, b);
    }
    return drawPlainBlock(ch, b);
}

template <int NW>
typename BatchFrameSimulatorT<NW>::DrawNeed
BatchFrameSimulatorT<NW>::drawNeed(int p_draws, int leak_draws) const
{
    DrawNeed need;
    const auto add = [&](const Channel &ch, int draws) {
        // A channel with p <= 0 draws nothing; any other channel off
        // the rare path consumes its block's Rng on every draw.
        if (draws == 0 || ch.p <= 0.0)
            return;
        if (ch.stream < 0) {
            need.coverable = false;
            return;
        }
        int i = 0;
        while (i < need.streams && need.stream[i] != ch.stream)
            ++i;
        if (i == need.streams)
            need.stream[need.streams++] = ch.stream;
        for (int b = 0; b < numBlocks_; ++b)
            need.take[i][b] += (uint64_t)draws * (uint64_t)blockLanes_[b];
    };
    add(chP_, p_draws);
    if (em_.leakageEnabled)
        add(chLeak_, leak_draws);
    return need;
}

template <int NW>
bool
BatchFrameSimulatorT<NW>::takeDraws(int b, const DrawNeed &need)
{
    if (!need.coverable)
        return false;
    // Every draw subtracts the block's lane count from a covering
    // skip, so a skip that covers the block's total covers each draw
    // in turn.
    RareStream *streams = rareStreams_.data();
    for (int i = 0; i < need.streams; ++i)
        if (streams[need.stream[i]].skip[b] < need.take[i][b])
            return false;
    for (int i = 0; i < need.streams; ++i)
        streams[need.stream[i]].skip[b] -= need.take[i][b];
    return true;
}

template <int NW>
template <class Body>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::splitBlocks(const Lane &mask, const Lane &events,
                                      const DrawNeed &need, Body &&body)
{
    // Blocks are independent (own streams, own lanes), so running the
    // event blocks' bodies before the caller's word ops on the
    // event-free blocks leaves every stream and plane as a per-block
    // run would.
    Lane clean{};
    for (int b = 0; b < numBlocks_; ++b) {
        const uint64_t m = laneWord(mask, b);
        if (!m)
            continue;
        if (!laneWord(events, b) && takeDraws(b, need))
            laneWordRef(clean, b) = m;
        else
            body(b, m);
    }
    return clean;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::depolarizePerLaneB(int q, int b,
                                             uint64_t mask)
{
    for (const int base = 64 * b; mask; mask &= mask - 1) {
        const int l = base + __builtin_ctzll(mask);
        // Uniform over {X, Y, Z}, matching the scalar draw order.
        switch (laneRng_[l].randint(3)) {
          case 0: flipLane(x_[q], l); break;
          case 1: flipLane(x_[q], l); flipLane(z_[q], l); break;
          default: flipLane(z_[q], l); break;
        }
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::randomComputationalB(int q, int b,
                                               uint64_t mask)
{
    // Per-lane events: touch only the set lanes (the masks here almost
    // always hold one or two lanes).
    for (const int base = 64 * b; mask; mask &= mask - 1) {
        const int l = base + __builtin_ctzll(mask);
        clearLane(leaked_[q], l);
        if (laneRng_[l].bit())
            setLane(x_[q], l);
        else
            clearLane(x_[q], l);
        if (laneRng_[l].bit())
            setLane(z_[q], l);
        else
            clearLane(z_[q], l);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeLeakB(int q, int b, uint64_t mask)
{
    if (!em_.leakageEnabled)
        return;
    // The draw itself must always happen (it IS the noise stream);
    // the plane update is skipped on the empty-mask common case.
    const uint64_t d = drawBlockWhere(chLeak_, b, mask);
    if (d)
        laneWordRef(leaked_[q], b) |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeSeepB(int q, int b, uint64_t mask)
{
    const uint64_t leaked = laneWord(leaked_[q], b) & mask;
    if (!leaked)
        return;
    const uint64_t m =
        drawBlockWhere(chSeep_, b, leaked) & leaked;
    // Seeped lanes return in a random computational state.
    if (m)
        randomComputationalB(q, b, m);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::twoQubitNoiseB(int qa, int qb, int b,
                                         uint64_t mask)
{
    const uint64_t d = drawBlockWhere(chP_, b, mask);
    uint64_t m = d & mask;
    const int base = 64 * b;
    while (m) {
        const int l = base + __builtin_ctzll(m);
        m &= m - 1;
        // One of the 15 non-identity two-qubit Paulis, uniformly.
        const uint32_t pp = 1 + laneRng_[l].randint(15);
        const uint32_t pa = pp & 3;
        const uint32_t pb = (pp >> 2) & 3;
        if (!testLane(leaked_[qa], l)) {
            if (pa == 1 || pa == 2)
                flipLane(x_[qa], l);
            if (pa == 2 || pa == 3)
                flipLane(z_[qa], l);
        }
        if (!testLane(leaked_[qb], l)) {
            if (pb == 1 || pb == 2)
                flipLane(x_[qb], l);
            if (pb == 2 || pb == 3)
                flipLane(z_[qb], l);
        }
    }
    if (em_.leakageEnabled) {
        maybeLeakB(qa, b, mask);
        maybeLeakB(qb, b, mask);
        maybeSeepB(qa, b, mask);
        maybeSeepB(qb, b, mask);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opDataNoiseB(int q, int b, uint64_t mask)
{
    const uint64_t d = drawBlockWhere(chP_, b, mask);
    if (d)
        depolarizePerLaneB(q, b, d & mask & ~laneWord(leaked_[q], b));
    maybeLeakB(q, b, mask);
    maybeSeepB(q, b, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opResetB(int q, int b, uint64_t mask)
{
    laneWordRef(x_[q], b) &= ~mask;
    laneWordRef(z_[q], b) &= ~mask;
    laneWordRef(leaked_[q], b) &= ~mask;
    // Initialization error: the qubit comes up in |1> with prob p.
    const uint64_t d = drawBlockWhere(chP_, b, mask);
    if (d)
        laneWordRef(x_[q], b) |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opHB(int q, int b, uint64_t mask)
{
    const uint64_t act = mask & ~laneWord(leaked_[q], b);
    uint64_t &xw = laneWordRef(x_[q], b);
    uint64_t &zw = laneWordRef(z_[q], b);
    const uint64_t swap = (xw ^ zw) & act;
    xw ^= swap;
    zw ^= swap;
    const uint64_t d = drawBlockWhere(chP_, b, mask);
    if (d)
        depolarizePerLaneB(q, b, d & act);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opCnotB(int c, int t, int b, uint64_t mask)
{
    const uint64_t lc = laneWord(leaked_[c], b);
    const uint64_t lt = laneWord(leaked_[t], b);
    const uint64_t both_clean = (mask & ~lc) & ~lt;
    laneWordRef(x_[t], b) ^= laneWord(x_[c], b) & both_clean;
    laneWordRef(z_[c], b) ^= laneWord(z_[t], b) & both_clean;

    // Exactly one operand leaked: the gate is uncalibrated for |L>, so
    // the unleaked operand receives a uniformly random Pauli, and
    // leakage may transport.
    const uint64_t c_only = (mask & lc) & ~lt;
    const uint64_t t_only = (mask & lt) & ~lc;
    if (c_only) {
        laneWordRef(x_[t], b) ^= blockRng_[b].next() & c_only;
        laneWordRef(z_[t], b) ^= blockRng_[b].next() & c_only;
    }
    if (t_only) {
        laneWordRef(x_[c], b) ^= blockRng_[b].next() & t_only;
        laneWordRef(z_[c], b) ^= blockRng_[b].next() & t_only;
    }
    const uint64_t mixed = c_only | t_only;
    if (mixed && em_.pTransport > 0.0) {
        const uint64_t tr =
            drawBlockWhere(chTransport_, b, mixed) & mixed;
        laneWordRef(leaked_[t], b) |= tr & c_only;
        laneWordRef(leaked_[c], b) |= tr & t_only;
        if (em_.transport == TransportModel::Exchange) {
            const uint64_t src_c = tr & c_only;
            if (src_c)
                randomComputationalB(c, b, src_c);
            const uint64_t src_t = tr & t_only;
            if (src_t)
                randomComputationalB(t, b, src_t);
        }
    }
    // Lanes with both operands leaked see no frame action at all.
    twoQubitNoiseB(c, t, b, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opLeakageIswapB(int d, int p, int b,
                                          uint64_t mask)
{
    const uint64_t ld = laneWord(leaked_[d], b);
    const uint64_t lp = laneWord(leaked_[p], b);

    // DQLR moves the data qubit's leakage onto the (just reset) parity
    // qubit; the data qubit returns to a random computational state.
    const uint64_t move = (mask & ld) & ~lp;
    if (move) {
        laneWordRef(leaked_[p], b) |= move;
        randomComputationalB(d, b, move);
    }

    // Reset failure left the parity qubit in |1>: the iSWAP acts in the
    // |11>/|20> subspace and can excite the data qubit to |L>.
    const uint64_t excitable =
        ((mask & ~ld) & ~lp) & laneWord(x_[p], b);
    if (excitable && em_.leakageEnabled && em_.dqlrExciteProb > 0.0) {
        laneWordRef(leaked_[d], b) |=
            drawBlockWhere(chExcite_, b, excitable) &
            excitable;
    }
    // The op has CNOT-class fidelity (Section A.2.2).
    twoQubitNoiseB(d, p, b, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opMeasureB(int q, bool x_basis, int b,
                                     uint64_t mask, Record &rec)
{
    const uint64_t frame =
        x_basis ? laneWord(z_[q], b) : laneWord(x_[q], b);
    const uint64_t lw = laneWord(leaked_[q], b);
    const uint64_t lk = lw & mask;

    // Unleaked lanes report the frame; a two-level discriminator
    // classifies |L> randomly, and the multi-level discriminator flags
    // |L> unless it errs.
    uint64_t flips = (frame & ~lw) & mask;
    uint64_t labels = 0;
    if (lk) {
        flips |= blockRng_[b].next() & lk;
        labels =
            lk & ~drawBlockWhere(chMiss_, b, lk);
    }
    const uint64_t me = drawBlockWhere(chP_, b, mask);
    if (me)
        flips ^= me & mask;
    laneWordRef(rec.flips, b) = flips;
    laneWordRef(rec.leakedLabels, b) = labels;
}

// The op entry points: event-free blocks get the noiseless frame
// action as word ops, event blocks the single-block body.

template <int NW>
void
BatchFrameSimulatorT<NW>::opDataNoise(int q, const Lane &mask)
{
    // Seepage draws on leaked lanes; a noiseless idle does nothing.
    splitBlocks(mask, leaked_[q] & mask, needData_,
                [&](int b, uint64_t m) { opDataNoiseB(q, b, m); });
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opReset(int q, const Lane &mask)
{
    const Lane clean =
        splitBlocks(mask, Lane{}, needP_,
                    [&](int b, uint64_t m) { opResetB(q, b, m); });
    x_[q] = andnot(x_[q], clean);
    z_[q] = andnot(z_[q], clean);
    leaked_[q] = andnot(leaked_[q], clean);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opH(int q, const Lane &mask)
{
    // Leaked lanes see no frame action but draw the same p mask.
    const Lane clean =
        splitBlocks(mask, Lane{}, needP_,
                    [&](int b, uint64_t m) { opHB(q, b, m); });
    const Lane swap = (x_[q] ^ z_[q]) & andnot(clean, leaked_[q]);
    x_[q] ^= swap;
    z_[q] ^= swap;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opCnot(int c, int t, const Lane &mask)
{
    const Lane clean = splitBlocks(
        mask, (leaked_[c] | leaked_[t]) & mask, needTwoQubit_,
        [&](int b, uint64_t m) { opCnotB(c, t, b, m); });
    x_[t] ^= x_[c] & clean;
    z_[c] ^= z_[t] & clean;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opLeakageIswap(int d, int p, const Lane &mask)
{
    // Movable (leaked data) and excitable (parity in |1>) lanes draw;
    // on the rest the noiseless iSWAP leaves the frame unchanged.
    splitBlocks(mask, (leaked_[d] | leaked_[p] | x_[p]) & mask,
                needTwoQubit_,
                [&](int b, uint64_t m) { opLeakageIswapB(d, p, b, m); });
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opMeasure(const Op &op, bool x_basis,
                                    const Lane &mask)
{
    const int q = op.q0;
    Record &rec = record_.emplace_back();
    rec.qubit = q;
    rec.stab = op.stab;
    rec.round = op.round;
    rec.finalData = op.finalData;
    rec.lrcData = op.lrcData;
    rec.mask = mask;
    const Lane clean = splitBlocks(
        mask, leaked_[q] & mask, needP_, [&](int b, uint64_t m) {
            opMeasureB(q, x_basis, b, m, rec);
        });
    // No lane of an event-free block is leaked: each reports its frame.
    rec.flips |= (x_basis ? z_[q] : x_[q]) & clean;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::execute(const Op &op, const Lane &mask_in)
{
    const Lane mask = mask_in & live_;
    if (scalar_) {
        if (laneWord(mask, 0) & 1) {
            scalar_->execute(op);
            syncScalarRecord();
        }
        return;
    }
    if (!anyLane(mask))
        return;
    switch (op.type) {
      case OpType::RoundStart:
        break;
      case OpType::DataNoise:
        opDataNoise(op.q0, mask);
        break;
      case OpType::Reset:
        opReset(op.q0, mask);
        break;
      case OpType::H:
        opH(op.q0, mask);
        break;
      case OpType::Cnot:
        opCnot(op.q0, op.q1, mask);
        break;
      case OpType::LeakageIswap:
        opLeakageIswap(op.q0, op.q1, mask);
        break;
      case OpType::Measure:
        opMeasure(op, false, mask);
        break;
      case OpType::MeasureX:
        opMeasure(op, true, mask);
        break;
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeRange(const Op *begin, const Op *end,
                                       const Lane &mask)
{
    for (const Op *op = begin; op != end; ++op)
        execute(*op, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeOnBlock(const Op &op, int b, uint64_t m)
{
    if (scalar_) {
        if (m & 1) {
            scalar_->execute(op);
            syncScalarRecord();
        }
        return;
    }
    switch (op.type) {
      case OpType::Cnot:
        opCnotB(op.q0, op.q1, b, m);
        break;
      case OpType::Reset:
        opResetB(op.q0, b, m);
        break;
      case OpType::LeakageIswap:
        opLeakageIswapB(op.q0, op.q1, b, m);
        break;
      case OpType::Measure: {
        Record &rec = record_.emplace_back();
        rec.qubit = op.q0;
        rec.stab = op.stab;
        rec.round = op.round;
        rec.lrcData = op.lrcData;
        laneWordRef(rec.mask, b) = m;
        opMeasureB(op.q0, false, b, m, rec);
        break;
      }
      default:
        panic("op kind without an LRC-tail body");
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeLrcTail(const CircuitProgram &prog,
                                         const IrLrcTail &t, int b,
                                         int round, bool multi_level)
{
    const int parity = prog.stabAncilla[t.stab];
    // Tail masks never span blocks: each op runs on block b alone,
    // through the same single-block bodies as the static ops' event
    // blocks.
    const uint64_t mask = t.mask & laneWord(live_, b);
    if (!mask)
        return;
    if (!scalar_ && prog.tail == IrTailKind::SwapLrc &&
        cleanSwapTail(t, parity, b, mask, round))
        return;
    if (prog.tail == IrTailKind::SwapLrc) {
        // SWAP D <-> P, measure + reset D, MOV back -- with the
        // ERASER+M in-round rule: lanes whose data readout is
        // labelled |L> squash the MOV and reset P instead.
        executeOnBlock(makeOp(OpType::Cnot, t.data, parity), b, mask);
        executeOnBlock(makeOp(OpType::Cnot, parity, t.data), b, mask);
        executeOnBlock(makeOp(OpType::Cnot, t.data, parity), b, mask);
        Op meas = makeOp(OpType::Measure, t.data);
        meas.stab = t.stab;
        meas.round = round;
        meas.lrcData = true;
        executeOnBlock(meas, b, mask);
        uint64_t squash = 0;
        if (multi_level)
            squash = laneWord(record_.back().leakedLabels, b) & mask;
        executeOnBlock(makeOp(OpType::Reset, t.data), b, mask);
        const uint64_t mov = mask & ~squash;
        if (mov) {
            executeOnBlock(makeOp(OpType::Cnot, parity, t.data), b, mov);
            executeOnBlock(makeOp(OpType::Cnot, t.data, parity), b, mov);
        }
        if (squash)
            executeOnBlock(makeOp(OpType::Reset, parity), b, squash);
    } else {
        executeOnBlock(makeOp(OpType::LeakageIswap, t.data, parity), b, mask);
        executeOnBlock(makeOp(OpType::Reset, parity), b, mask);
    }
}

template <int NW>
bool
BatchFrameSimulatorT<NW>::cleanSwapTail(const IrLrcTail &t, int parity,
                                        int b, uint64_t mask, int round)
{
    const int d = t.data;
    // With no leaked operand lane the tail's draws on block b are
    // fixed: each of the five CNOTs draws p once and the leak channel
    // twice (seepage draws only on leaked lanes), and the readout and
    // the reset draw p once each (the |L> draws also need a leaked
    // lane): needSwapTail_.
    if ((laneWord(leaked_[d], b) | laneWord(leaked_[parity], b)) & mask ||
        !takeDraws(b, needSwapTail_))
        return false;

    // No draw hits, so every op is its noiseless frame action:
    // SWAP D <-> P, read D out, reset D, MOV back. No lane is leaked,
    // so the readout carries no |L> label and nothing is squashed.
    const auto cnot = [&](int c, int q) {
        laneWordRef(x_[q], b) ^= laneWord(x_[c], b) & mask;
        laneWordRef(z_[c], b) ^= laneWord(z_[q], b) & mask;
    };
    cnot(d, parity);
    cnot(parity, d);
    cnot(d, parity);
    Record &rec = record_.emplace_back();
    rec.qubit = d;
    rec.stab = t.stab;
    rec.round = round;
    rec.lrcData = true;
    laneWordRef(rec.mask, b) = mask;
    laneWordRef(rec.flips, b) = laneWord(x_[d], b) & mask;
    laneWordRef(x_[d], b) &= ~mask;
    laneWordRef(z_[d], b) &= ~mask;
    cnot(parity, d);
    cnot(d, parity);
    return true;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramRound(
    const CircuitProgram &prog, int round, const Lane &mask,
    const ProgramLrcFillT<NW> *fills, int num_fills)
{
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        switch (inst.op) {
          case IrOpcode::Gate:
            execute(prog.pool[inst.a], mask);
            break;
          case IrOpcode::Readout: {
            Lane m = mask;
            if (prog.maskReadoutOnLrc) {
                for (int f = 0; f < num_fills; ++f)
                    if (fills[f].lrcOnStab)
                        m = andnot(m, fills[f].lrcOnStab[inst.a]);
            }
            // Skipping the whole pair when no lane remains mirrors
            // execute()'s own empty-mask early return: no draws, no
            // record entry.
            if (!anyLane(m))
                break;
            Op meas = prog.pool[inst.b];
            meas.round = round;
            execute(meas, m);
            execute(prog.pool[(size_t)inst.b + 1], m);
            break;
          }
          case IrOpcode::LrcSlot: {
            if (!fills || inst.a >= num_fills)
                break;
            const ProgramLrcFillT<NW> &fill = fills[inst.a];
            if (!fill.blockTails)
                break;
            for (int b = 0; b < numBlocks_; ++b)
                for (const IrLrcTail &t : fill.blockTails[b])
                    executeLrcTail(prog, t, b, round,
                                   fill.multiLevel);
            break;
          }
          default:
            break;
        }
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramFinal(const CircuitProgram &prog,
                                              const Lane &mask)
{
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        execute(prog.pool[prog.instrs[i].a], mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgram(const CircuitProgram &prog)
{
    for (int r = 0; r < prog.rounds; ++r)
        executeProgramRound(prog, r, live_);
    executeProgramFinal(prog, live_);
}

template <int NW>
int
BatchFrameSimulatorT<NW>::noiseStreamId(double p)
{
    if (scalar_ || p <= 0.0 ||
        p >= BernoulliMaskSampler::kRareThreshold)
        return -1;
    RareStream &stream = rareStreamFor(p);
    return (int)(&stream - rareStreams_.data());
}

template class BatchFrameSimulatorT<1>;
template class BatchFrameSimulatorT<4>;
template class BatchFrameSimulatorT<8>;

} // namespace qec
