#include "code/circuit_ir.h"

#include <algorithm>

#include "base/logging.h"
#include "code/builder.h"
#include "code/ir_analysis.h"

namespace qec
{

namespace
{

/** Which pool ops are legal Readout measurement templates. */
inline bool
isMeasureOp(OpType type)
{
    return type == OpType::Measure || type == OpType::MeasureX;
}

void
appendGate(CircuitProgram &prog, const Op &op)
{
    prog.instrs.push_back(
        {IrOpcode::Gate, (int32_t)prog.pool.size(), -1});
    prog.pool.push_back(op);
}

void
appendReadout(CircuitProgram &prog, int stab, const Op &meas,
              const Op &reset)
{
    const int32_t mi = (int32_t)prog.pool.size();
    prog.pool.push_back(meas);
    prog.pool.push_back(reset);
    prog.instrs.push_back({IrOpcode::Readout, stab, mi});
}

/** The template for one tail kind, mirroring executeLrcTail's
 *  expansion op for op (the conditional ERASER+M suffix — MOV on
 *  non-squashed lanes, parity reset on squashed ones — listed
 *  unconditionally, as the superset static analysis reasons about).
 *  test_ir_analysis pins this against the engine's hardcoded
 *  expansion. */
IrTailTemplate
makeTailTemplate(IrTailKind kind)
{
    constexpr int D = kTailDataQubit, P = kTailParityQubit;
    IrTailTemplate tmpl;
    tmpl.kind = kind;
    if (kind == IrTailKind::SwapLrc) {
        tmpl.ops.push_back(makeOp(OpType::Cnot, D, P));
        tmpl.ops.push_back(makeOp(OpType::Cnot, P, D));
        tmpl.ops.push_back(makeOp(OpType::Cnot, D, P));
        Op meas = makeOp(OpType::Measure, D);
        meas.lrcData = true;
        tmpl.ops.push_back(meas);
        tmpl.ops.push_back(makeOp(OpType::Reset, D));
        tmpl.ops.push_back(makeOp(OpType::Cnot, P, D));
        tmpl.ops.push_back(makeOp(OpType::Cnot, D, P));
        tmpl.ops.push_back(makeOp(OpType::Reset, P));
    } else {
        tmpl.ops.push_back(makeOp(OpType::LeakageIswap, D, P));
        tmpl.ops.push_back(makeOp(OpType::Reset, P));
    }
    return tmpl;
}

} // namespace

bool
CircuitProgram::supportContains(int stab, int data) const
{
    if (stab < 0 || (size_t)stab + 1 >= supportOffset.size())
        return false;
    const int begin = supportOffset[stab];
    const int end = supportOffset[(size_t)stab + 1];
    return std::find(supportData.begin() + begin,
                     supportData.begin() + end,
                     data) != supportData.begin() + end;
}

Status
CircuitProgram::validate() const
{
    if (rounds < 1)
        return invalidArgument(
            "circuit program needs at least one round, got " +
            std::to_string(rounds));
    if (numQubits < 1 || numData < 1 || numData > numQubits ||
        numStabs < 0)
        return invalidArgument("circuit program has invalid qubit "
                               "dimensions");
    if (instrs.empty() || instrs.front().op != IrOpcode::RoundBegin)
        return invalidArgument(
            "circuit program must start with RoundBegin");
    if (instrs.front().a != rounds)
        return invalidArgument(
            "RoundBegin trip count disagrees with program rounds");
    if (bodyBegin != 1 || bodyEnd < bodyBegin ||
        bodyEnd >= instrs.size())
        return invalidArgument("round-body span is out of range");

    size_t round_ends = 0;
    std::vector<int32_t> slot_ids;
    for (size_t i = 1; i < instrs.size(); ++i) {
        const IrInst &inst = instrs[i];
        switch (inst.op) {
          case IrOpcode::RoundBegin:
            return invalidArgument("nested round loops are not "
                                   "supported (second RoundBegin)");
          case IrOpcode::RoundEnd:
            if (i != bodyEnd)
                return invalidArgument(
                    "RoundEnd does not match the recorded body span");
            ++round_ends;
            break;
          case IrOpcode::Gate: {
            if (inst.a < 0 || (size_t)inst.a >= pool.size())
                return invalidArgument(
                    "Gate references an op outside the pool");
            const Op &op = pool[inst.a];
            if (op.type != OpType::RoundStart) {
                if (op.q0 < 0 || op.q0 >= numQubits)
                    return invalidArgument(
                        "gate op references a dangling qubit index");
                if ((op.type == OpType::Cnot ||
                     op.type == OpType::LeakageIswap) &&
                    (op.q1 < 0 || op.q1 >= numQubits))
                    return invalidArgument(
                        "two-qubit op references a dangling qubit "
                        "index");
            }
            if (i > bodyEnd && !op.finalData)
                return invalidArgument(
                    "instructions after RoundEnd must be final "
                    "data measurements");
            break;
          }
          case IrOpcode::Readout: {
            if (i > bodyEnd)
                return invalidArgument(
                    "Readout instruction after the round body");
            if (inst.a < 0 || inst.a >= numStabs)
                return invalidArgument(
                    "Readout references a dangling stabilizer index");
            if (inst.b < 0 || (size_t)inst.b + 1 >= pool.size())
                return invalidArgument(
                    "Readout references ops outside the pool");
            const Op &meas = pool[inst.b];
            const Op &reset = pool[(size_t)inst.b + 1];
            if (!isMeasureOp(meas.type) || meas.stab != inst.a ||
                meas.q0 < 0 || meas.q0 >= numQubits)
                return invalidArgument(
                    "Readout measurement template is malformed");
            if (reset.type != OpType::Reset || reset.q0 != meas.q0)
                return invalidArgument(
                    "Readout must be followed by a reset of the "
                    "measured qubit");
            break;
          }
          case IrOpcode::LrcSlot:
            if (i > bodyEnd)
                return invalidArgument(
                    "LrcSlot instruction after the round body");
            if (inst.a < 0)
                return invalidArgument("LRC-slot id must be "
                                       "non-negative");
            if (std::find(slot_ids.begin(), slot_ids.end(), inst.a) !=
                slot_ids.end())
                return invalidArgument(
                    "duplicate LRC-slot id " + std::to_string(inst.a));
            slot_ids.push_back(inst.a);
            break;
        }
    }
    if (round_ends != 1)
        return invalidArgument(
            "round loop is unclosed (RoundBegin without RoundEnd)");

    if ((int)stabAncilla.size() != numStabs ||
        (int)detR0.size() != numStabs ||
        supportOffset.size() != (size_t)numStabs + 1)
        return invalidArgument(
            "per-stabilizer metadata does not match numStabs");
    for (int a : stabAncilla)
        if (a < 0 || a >= numQubits)
            return invalidArgument(
                "stabilizer ancilla index is dangling");
    for (int s = 0; s < numStabs; ++s)
        if (supportOffset[s] > supportOffset[(size_t)s + 1])
            return invalidArgument("support CSR is not monotone");
    if ((size_t)supportOffset[numStabs] != supportData.size())
        return invalidArgument("support CSR is truncated");
    for (int q : supportData)
        if (q < 0 || q >= numData)
            return invalidArgument(
                "stabilizer support references a dangling data qubit");

    const IrDetectorMap &map = detectors;
    if (map.numData != numData ||
        (int)map.stabColumn.size() != numStabs ||
        map.colSupportOffset.size() != (size_t)map.cols + 1)
        return invalidArgument("detector map shape is inconsistent");
    for (int col : map.stabColumn)
        if (col < -1 || col >= map.cols)
            return invalidArgument(
                "detector map references a dangling column");
    for (int c = 0; c < map.cols; ++c)
        if (map.colSupportOffset[c] > map.colSupportOffset[(size_t)c + 1])
            return invalidArgument(
                "detector column support CSR is not monotone");
    if (map.cols > 0 &&
        (size_t)map.colSupportOffset[map.cols] !=
            map.colSupportData.size())
        return invalidArgument("detector column support is truncated");
    for (int q : map.colSupportData)
        if (q < 0 || q >= numData)
            return invalidArgument(
                "detector column support references a dangling data "
                "qubit");
    for (int q : map.observable)
        if (q < 0 || q >= numData)
            return invalidArgument(
                "observable references a dangling data qubit");
    return okStatus();
}

std::vector<Op>
CircuitProgram::baseOps(int rounds_override) const
{
    const int total = rounds_override < 0 ? rounds : rounds_override;
    std::vector<Op> ops;
    for (int r = 0; r < total; ++r) {
        for (size_t i = bodyBegin; i < bodyEnd; ++i) {
            const IrInst &inst = instrs[i];
            if (inst.op == IrOpcode::Gate) {
                Op op = pool[inst.a];
                if (op.type == OpType::RoundStart)
                    op.round = r;
                ops.push_back(op);
            } else if (inst.op == IrOpcode::Readout) {
                Op meas = pool[inst.b];
                meas.round = r;
                ops.push_back(meas);
                ops.push_back(pool[(size_t)inst.b + 1]);
            }
            // LrcSlot branches are empty in the base circuit.
        }
    }
    for (size_t i = bodyEnd + 1; i < instrs.size(); ++i) {
        Op op = pool[instrs[i].a];
        op.round = total;
        ops.push_back(op);
    }
    return ops;
}

CircuitProgram
CircuitCompiler::surfaceMemory(const RotatedSurfaceCode &code,
                               int rounds, Basis basis, IrTailKind tail)
{
    panicIf(rounds < 1, "memory program needs at least one round");

    CircuitProgram prog;
    prog.family = CircuitFamily::SurfaceMemory;
    prog.tail = tail;
    prog.basis = basis;
    prog.distance = code.distance();
    prog.rounds = rounds;
    prog.numQubits = code.numQubits();
    prog.numData = code.numData();
    prog.numStabs = code.numStabilizers();
    prog.maskReadoutOnLrc = tail == IrTailKind::SwapLrc;

    // The round body is the LRC-free schedule: its pre-readout prefix
    // becomes Gate instructions replayed verbatim every round (the
    // engine's gate/noise helpers ignore Op::round, so no restamping
    // is needed), and its readouts become per-round-stamped Readout
    // instructions.
    const RoundSchedule plain = buildRoundSchedule(code, 0, {});
    prog.instrs.push_back({IrOpcode::RoundBegin, rounds, -1});
    prog.bodyBegin = prog.instrs.size();
    for (const Op &op : plain.ops) {
        if (op.type == OpType::Measure)
            break;
        appendGate(prog, op);
    }
    for (const auto &stab : code.stabilizers()) {
        Op meas = makeOp(OpType::Measure, stab.ancilla);
        meas.stab = stab.index;
        appendReadout(prog, stab.index, meas,
                      makeOp(OpType::Reset, stab.ancilla));
    }
    prog.instrs.push_back({IrOpcode::LrcSlot, 0, -1});
    prog.bodyEnd = prog.instrs.size();
    prog.instrs.push_back({IrOpcode::RoundEnd, -1, -1});
    for (const Op &op : buildFinalMeasurement(code, rounds, basis))
        appendGate(prog, op);

    const StabType primary = protectingStabType(basis);
    prog.stabAncilla.resize(prog.numStabs);
    prog.detR0.resize(prog.numStabs);
    prog.supportOffset.push_back(0);
    for (const auto &stab : code.stabilizers()) {
        prog.stabAncilla[stab.index] = stab.ancilla;
        prog.detR0[stab.index] = stab.type == primary ? 1 : 0;
        prog.supportData.insert(prog.supportData.end(),
                                stab.support.begin(),
                                stab.support.end());
        prog.supportOffset.push_back((int)prog.supportData.size());
    }

    IrDetectorMap &map = prog.detectors;
    map.cols = code.numBasisStabilizers(basis);
    map.numData = prog.numData;
    map.stabColumn.assign(prog.numStabs, -1);
    for (const auto &stab : code.stabilizers())
        if (stab.type == primary)
            map.stabColumn[stab.index] = stab.basisIndex;
    map.colSupportOffset.push_back(0);
    for (int stab_index : code.basisStabilizers(basis)) {
        const auto &support = code.stabilizer(stab_index).support;
        map.colSupportData.insert(map.colSupportData.end(),
                                  support.begin(), support.end());
        map.colSupportOffset.push_back((int)map.colSupportData.size());
    }
    map.observable = code.logicalSupport(basis);
    prog.tailTemplates.push_back(makeTailTemplate(tail));
    return prog;
}

CircuitProgram
CircuitCompiler::repetitionMemory(int distance, int rounds)
{
    panicIf(distance < 2, "repetition code needs distance >= 2");
    panicIf(rounds < 1, "memory program needs at least one round");

    CircuitProgram prog;
    prog.family = CircuitFamily::RepetitionMemory;
    prog.tail = IrTailKind::SwapLrc;
    prog.basis = Basis::Z;
    prog.distance = distance;
    prog.rounds = rounds;
    prog.numData = distance;
    prog.numStabs = distance - 1;
    prog.numQubits = 2 * distance - 1;
    prog.maskReadoutOnLrc = true;

    // One round: idle data noise, then the two CNOT layers of each ZZ
    // check (data -> ancilla, like the surface code's Z stabilizers),
    // then the ancilla readouts. Data qubit q sits at index q; check s
    // compares qubits s and s+1 through ancilla distance + s.
    const auto ancilla = [distance](int s) { return distance + s; };
    prog.instrs.push_back({IrOpcode::RoundBegin, rounds, -1});
    prog.bodyBegin = prog.instrs.size();
    Op start = makeOp(OpType::RoundStart, -1);
    start.round = 0;
    appendGate(prog, start);
    for (int q = 0; q < distance; ++q)
        appendGate(prog, makeOp(OpType::DataNoise, q));
    for (int layer = 0; layer < 2; ++layer)
        for (int s = 0; s < prog.numStabs; ++s)
            appendGate(prog,
                       makeOp(OpType::Cnot, s + layer, ancilla(s)));
    for (int s = 0; s < prog.numStabs; ++s) {
        Op meas = makeOp(OpType::Measure, ancilla(s));
        meas.stab = s;
        appendReadout(prog, s, meas,
                      makeOp(OpType::Reset, ancilla(s)));
    }
    prog.instrs.push_back({IrOpcode::LrcSlot, 0, -1});
    prog.bodyEnd = prog.instrs.size();
    prog.instrs.push_back({IrOpcode::RoundEnd, -1, -1});
    for (int q = 0; q < distance; ++q) {
        Op m = makeOp(OpType::Measure, q);
        m.round = rounds;
        m.finalData = true;
        appendGate(prog, m);
    }

    // Every ZZ check is deterministic from the |0..0> start, so round
    // 0 already raises detection events.
    prog.detR0.assign(prog.numStabs, 1);
    prog.supportOffset.push_back(0);
    for (int s = 0; s < prog.numStabs; ++s) {
        prog.stabAncilla.push_back(ancilla(s));
        prog.supportData.push_back(s);
        prog.supportData.push_back(s + 1);
        prog.supportOffset.push_back((int)prog.supportData.size());
    }

    IrDetectorMap &map = prog.detectors;
    map.cols = prog.numStabs;
    map.numData = prog.numData;
    map.colSupportOffset.push_back(0);
    for (int s = 0; s < prog.numStabs; ++s) {
        map.stabColumn.push_back(s);
        map.colSupportData.push_back(s);
        map.colSupportData.push_back(s + 1);
        map.colSupportOffset.push_back((int)map.colSupportData.size());
    }
    // Any single data qubit's final readout is a logical-Z
    // representative; qubit 0 matches the surface convention.
    map.observable = {0};
    prog.tailTemplates.push_back(
        makeTailTemplate(IrTailKind::SwapLrc));
    return prog;
}

StatusOr<CircuitProgram>
CircuitCompiler::surfaceMemoryChecked(const RotatedSurfaceCode &code,
                                      int rounds, Basis basis,
                                      IrTailKind tail)
{
    if (rounds < 1)
        return invalidArgument(
            "memory program needs at least one round, got " +
            std::to_string(rounds));
    CircuitProgram prog = surfaceMemory(code, rounds, basis, tail);
    Status st = IrAnalyzer::verify(prog);
    if (!st.isOk())
        return st;
    return prog;
}

StatusOr<CircuitProgram>
CircuitCompiler::repetitionMemoryChecked(int distance, int rounds)
{
    if (distance < 2)
        return invalidArgument(
            "repetition code needs distance >= 2, got " +
            std::to_string(distance));
    if (rounds < 1)
        return invalidArgument(
            "memory program needs at least one round, got " +
            std::to_string(rounds));
    CircuitProgram prog = repetitionMemory(distance, rounds);
    Status st = IrAnalyzer::verify(prog);
    if (!st.isOk())
        return st;
    return prog;
}

const char *
circuitFamilyName(CircuitFamily family)
{
    switch (family) {
      case CircuitFamily::SurfaceMemory: return "surface_memory";
      case CircuitFamily::RepetitionMemory: return "repetition_memory";
    }
    return "unknown";
}

} // namespace qec
