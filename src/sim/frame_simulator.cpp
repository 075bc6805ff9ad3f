#include "sim/frame_simulator.h"

#include "base/logging.h"

namespace qec
{

FrameSimulator::FrameSimulator(int num_qubits, const ErrorModel &em,
                               Rng rng)
    : em_(em), rng_(rng),
      x_(num_qubits, 0), z_(num_qubits, 0), leaked_(num_qubits, 0)
{
}

void
FrameSimulator::reset()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
    std::fill(leaked_.begin(), leaked_.end(), 0);
    record_.clear();
}

int
FrameSimulator::countLeaked(int first, int last) const
{
    int n = 0;
    for (int q = first; q < last; ++q)
        n += leaked_[q];
    return n;
}

void
FrameSimulator::injectPauli(int q, Pauli p)
{
    if (p == Pauli::X || p == Pauli::Y)
        x_[q] ^= 1;
    if (p == Pauli::Z || p == Pauli::Y)
        z_[q] ^= 1;
}

void
FrameSimulator::setLeaked(int q, bool leaked)
{
    leaked_[q] = leaked ? 1 : 0;
}

void
FrameSimulator::applyRandomPauli(int q)
{
    // Uniform over {I, X, Y, Z}: two independent frame bits.
    uint64_t r = rng_.next();
    x_[q] ^= (uint8_t)(r & 1);
    z_[q] ^= (uint8_t)((r >> 1) & 1);
}

void
FrameSimulator::maybeLeak(int q)
{
    if (!em_.leakageEnabled || leaked_[q])
        return;
    if (rng_.bernoulli(em_.leakInjectProb()))
        leaked_[q] = 1;
}

void
FrameSimulator::maybeSeep(int q)
{
    if (!leaked_[q])
        return;
    if (rng_.bernoulli(em_.seepageProb())) {
        leaked_[q] = 0;
        // Returns in a random computational state: a random Pauli
        // relative to the reference.
        x_[q] = (uint8_t)rng_.bit();
        z_[q] = (uint8_t)rng_.bit();
    }
}

void
FrameSimulator::opDataNoise(const Op &op)
{
    const int q = op.q0;
    if (!leaked_[q] && rng_.bernoulli(em_.p)) {
        // Depolarizing: uniform over {X, Y, Z}.
        switch (rng_.randint(3)) {
          case 0: x_[q] ^= 1; break;
          case 1: x_[q] ^= 1; z_[q] ^= 1; break;
          default: z_[q] ^= 1; break;
        }
    }
    maybeLeak(q);
    maybeSeep(q);
}

void
FrameSimulator::opReset(const Op &op)
{
    const int q = op.q0;
    x_[q] = 0;
    z_[q] = 0;
    leaked_[q] = 0;
    // Initialization error: the qubit comes up in |1> with prob p.
    if (rng_.bernoulli(em_.p))
        x_[q] = 1;
}

void
FrameSimulator::opH(const Op &op)
{
    const int q = op.q0;
    if (!leaked_[q])
        std::swap(x_[q], z_[q]);
    if (!leaked_[q] && rng_.bernoulli(em_.p)) {
        switch (rng_.randint(3)) {
          case 0: x_[q] ^= 1; break;
          case 1: x_[q] ^= 1; z_[q] ^= 1; break;
          default: z_[q] ^= 1; break;
        }
    }
}

void
FrameSimulator::twoQubitNoise(int a, int b)
{
    if (rng_.bernoulli(em_.p)) {
        // One of the 15 non-identity two-qubit Paulis, uniformly.
        uint32_t pp = 1 + rng_.randint(15);
        Pauli pa = (Pauli)(pp & 3);
        Pauli pb = (Pauli)((pp >> 2) & 3);
        if (!leaked_[a])
            injectPauli(a, pa);
        if (!leaked_[b])
            injectPauli(b, pb);
    }
    if (em_.leakageEnabled) {
        maybeLeak(a);
        maybeLeak(b);
        maybeSeep(a);
        maybeSeep(b);
    }
}

void
FrameSimulator::opCnot(const Op &op)
{
    const int c = op.q0;
    const int t = op.q1;

    const bool lc = leaked_[c];
    const bool lt = leaked_[t];
    if (!lc && !lt) {
        x_[t] ^= x_[c];
        z_[c] ^= z_[t];
    } else if (lc != lt) {
        // A CNOT between a leaked and an unleaked qubit: the gate is
        // uncalibrated for |L>, so the unleaked operand receives a
        // uniformly random Pauli, and leakage may transport.
        const int leaked_q = lc ? c : t;
        const int clean_q = lc ? t : c;
        applyRandomPauli(clean_q);
        if (rng_.bernoulli(em_.pTransport)) {
            leaked_[clean_q] = 1;
            if (em_.transport == TransportModel::Exchange) {
                leaked_[leaked_q] = 0;
                x_[leaked_q] = (uint8_t)rng_.bit();
                z_[leaked_q] = (uint8_t)rng_.bit();
            }
        }
    }
    // If both are leaked the gate does nothing to the frames.
    twoQubitNoise(c, t);
}

void
FrameSimulator::opLeakageIswap(const Op &op)
{
    const int d = op.q0;
    const int p = op.q1;

    if (leaked_[d] && !leaked_[p]) {
        // DQLR moves the data qubit's leakage onto the (just reset)
        // parity qubit; the data qubit returns to a random
        // computational state.
        leaked_[p] = 1;
        leaked_[d] = 0;
        x_[d] = (uint8_t)rng_.bit();
        z_[d] = (uint8_t)rng_.bit();
    } else if (!leaked_[d] && !leaked_[p] && x_[p]) {
        // Reset failure left the parity qubit in |1>: the iSWAP acts in
        // the |11>/|20> subspace and can excite the data qubit to |L>
        // (Fig. 19(b)).
        if (em_.leakageEnabled && rng_.bernoulli(em_.dqlrExciteProb))
            leaked_[d] = 1;
    }
    // The op has CNOT-class fidelity (Section A.2.2).
    twoQubitNoise(d, p);
}

void
FrameSimulator::opMeasure(const Op &op, bool x_basis)
{
    const int q = op.q0;

    MeasureRecord rec;
    rec.qubit = q;
    rec.stab = op.stab;
    rec.round = op.round;
    rec.finalData = op.finalData;
    rec.lrcData = op.lrcData;

    if (leaked_[q]) {
        // A two-level discriminator classifies |L> randomly.
        rec.flip = rng_.bit();
        // The multi-level discriminator flags |L> unless it errs.
        rec.leakedLabel =
            !rng_.bernoulli(em_.multiLevelMissProb());
    } else {
        rec.flip = x_basis ? (z_[q] != 0) : (x_[q] != 0);
        rec.leakedLabel = false;
    }
    if (rng_.bernoulli(em_.p))
        rec.flip = !rec.flip;

    record_.push_back(rec);
}

void
FrameSimulator::execute(const Op &op)
{
    switch (op.type) {
      case OpType::RoundStart:
        break;
      case OpType::DataNoise:
        opDataNoise(op);
        break;
      case OpType::Reset:
        opReset(op);
        break;
      case OpType::H:
        opH(op);
        break;
      case OpType::Cnot:
        opCnot(op);
        break;
      case OpType::LeakageIswap:
        opLeakageIswap(op);
        break;
      case OpType::Measure:
        opMeasure(op, false);
        break;
      case OpType::MeasureX:
        opMeasure(op, true);
        break;
    }
}

void
FrameSimulator::executeRange(const Op *begin, const Op *end)
{
    for (const Op *op = begin; op != end; ++op)
        execute(*op);
}

void
FrameSimulator::run(const std::vector<Op> &ops)
{
    size_t measurements = 0;
    for (const Op &op : ops) {
        panicIf(op.q0 >= numQubits() || op.q1 >= numQubits(),
                "op uses more qubits than the simulator holds");
        measurements += op.type == OpType::Measure ||
                        op.type == OpType::MeasureX;
    }
    reset();
    record_.reserve(measurements);
    executeRange(ops.data(), ops.data() + ops.size());
}

} // namespace qec
