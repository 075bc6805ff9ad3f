#pragma once

/** Circuit IR: a flat, replayable instruction stream compiled from a
 *  protocol description and executed by the batch frame simulator.
 *
 *  The IR decouples "what circuit" from "how fast": a CircuitProgram
 *  holds one round body plus the final transversal readout as indices
 *  into an op pool, and the engine replays that body `rounds` times
 *  with its word-level op/noise helpers. Divergent adaptive-LRC tails
 *  are IR branch points (LrcSlot instructions) that the controller
 *  fills per lane/word at replay time, so adding a protocol means
 *  adding a compiler path — not an engine edit.
 *
 *  Instruction set:
 *
 *  | opcode     | a                  | b              | effect at replay |
 *  |------------|--------------------|----------------|------------------|
 *  | Gate       | op-pool index      | —              | execute pool[a] verbatim on the masked lanes (gates carry their own noise channels; each channel resolves to a per-probability RareStream id in the engine) |
 *  | Readout    | stabilizer index   | op-pool index  | stamp pool[b] (Measure) with the current round, mask out LRC'd lanes when the protocol replaces the plain readout, measure + reset |
 *  | LrcSlot    | slot id (== round-relative slot) | — | branch point: the controller supplies per-64-lane-block divergent tails (swap-LRC or DQLR) that the engine expands with block-local masks |
 *  | RoundBegin | trip count (rounds)| —              | marks the start of the replayed round body |
 *  | RoundEnd   | —                  | —              | marks the end of the round body; instructions after it are the final transversal measurement |
 *
 *  Draw-order contract: replaying a compiled program consumes each
 *  64-lane block's noise streams in one fixed order, so per-shot
 *  verdicts are bit-identical at every batch width. The compiler
 *  guarantees this by emitting the round body in schedule order and
 *  the engine by running LrcSlot tails through its single-block op
 *  bodies. Golden tables in tests/test_batch_sim.cpp pin the replay's
 *  verdict fingerprints, counters and LPR at W = 1/64/256/512.
 */

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "code/circuit.h"
#include "code/rotated_surface_code.h"
#include "code/types.h"

namespace qec
{

/** Which protocol family a program encodes. Families other than the
 *  rotated-surface-code memory experiment exist purely as compiler
 *  paths over the same engine. */
enum class CircuitFamily : uint8_t
{
    SurfaceMemory,
    RepetitionMemory,
};

/** How an LrcSlot branch removes leakage when the controller fills it. */
enum class IrTailKind : uint8_t
{
    SwapLrc, ///< swap-based LRC: 3 CNOTs + multi-level readout + resets
    Dqlr,    ///< iSWAP-in-|2> DQLR: LeakageIswap + parity reset
};

enum class IrOpcode : uint8_t
{
    Gate,
    Readout,
    LrcSlot,
    RoundBegin,
    RoundEnd,
};

struct IrInst
{
    IrOpcode op;
    int32_t a = -1;
    int32_t b = -1;
};

/** One divergent LRC tail the controller scheduled for a 64-lane block:
 *  stabilizer `stab` redirects its readout through data qubit `data` on
 *  the lanes in `mask` (a block-local 64-bit lane mask). */
struct IrLrcTail
{
    int stab = -1;
    int data = -1;
    uint64_t mask = 0;
};

/** Placeholder qubit ids inside IrTailTemplate ops, resolved at replay
 *  time to the scheduled pair's data / parity qubit. */
constexpr int kTailDataQubit = -2;
constexpr int kTailParityQubit = -3;

/** The op sequence a filled LrcSlot branch expands to for one tail
 *  kind, written against the kTailDataQubit/kTailParityQubit
 *  placeholders. Conditional suffix ops (the ERASER+M MOV squash) are
 *  listed unconditionally — the template describes the superset of ops
 *  a tail may run, which is what static analysis needs. The engine's
 *  executeLrcTail stays the hardcoded expansion (replay never reads
 *  templates), so templates are pure metadata; test_ir_analysis pins
 *  the two against each other. */
struct IrTailTemplate
{
    IrTailKind kind = IrTailKind::SwapLrc;
    std::vector<Op> ops;
};

/** The measure→detector/observable binding: the one detector
 *  convention, read by the DEM builder and by both syndrome
 *  extractors. Columns index detectors within one round
 *  (detector id = round * cols + column). */
struct IrDetectorMap
{
    int cols = 0;
    int numData = 0;
    /** Per stabilizer: detector column, or -1 when the stabilizer's
     *  basis does not produce detectors for this memory basis. */
    std::vector<int> stabColumn;
    /** CSR over columns -> data-qubit support, used to reconstruct the
     *  final detector row from the transversal data readout. */
    std::vector<int> colSupportOffset;
    std::vector<int> colSupportData;
    /** Data qubits whose final readouts XOR into the logical observable. */
    std::vector<int> observable;
};

struct CircuitProgram
{
    CircuitFamily family = CircuitFamily::SurfaceMemory;
    IrTailKind tail = IrTailKind::SwapLrc;
    Basis basis = Basis::Z;
    int distance = 0;
    int rounds = 0;
    int numQubits = 0;
    int numData = 0;
    int numStabs = 0;
    /** True when a filled LrcSlot replaces the plain readout of its
     *  stabilizer (swap-LRC); false when the tail is purely additive
     *  (DQLR measures through the normal ancilla readout). */
    bool maskReadoutOnLrc = false;

    /** Op pool referenced by Gate/Readout instructions. Pool ops are
     *  executed verbatim (rounds are NOT restamped for body gates —
     *  the engine's gate/noise helpers ignore Op::round); Readout
     *  measurement ops are copied and stamped per round. */
    std::vector<Op> pool;
    /** [RoundBegin, body..., RoundEnd, final gates...] */
    std::vector<IrInst> instrs;
    /** Index of the first body instruction (after RoundBegin). */
    size_t bodyBegin = 0;
    /** Index of the RoundEnd instruction. */
    size_t bodyEnd = 0;

    /** Per stabilizer: its ancilla qubit (parity qubit for LRC tails). */
    std::vector<int> stabAncilla;
    /** CSR over stabilizers -> data-qubit support (LRC-pair validity). */
    std::vector<int> supportOffset;
    std::vector<int> supportData;
    /** Per stabilizer: 1 when its first-round outcome is deterministic
     *  in the memory basis (so round 0 raises a detection event on a
     *  nonzero readout). */
    std::vector<uint8_t> detR0;

    IrDetectorMap detectors;

    /** Tail expansions for the LrcSlot branch points (one per
     *  IrTailKind the program's slots can request). */
    std::vector<IrTailTemplate> tailTemplates;

    /** Structural validation: dangling qubit/stabilizer indices,
     *  unclosed or misplaced round-loop markers, duplicate LRC-slot
     *  ids, detector-map shape. Returns the first violation found.
     *  Semantic checks (detector coverage, stream sync, tail
     *  legality, observable reachability) live in IrAnalyzer. */
    [[nodiscard]] Status validate() const;

    /** True when `data` lies in `stab`'s support (valid LRC pairing). */
    bool supportContains(int stab, int data) const;

    /** The LRC-free memory circuit this program replays, unrolled
     *  into one op stream: the round body stamped per round (its
     *  RoundStart and Readout measurements carry the round index,
     *  LrcSlot branches are empty), then the final transversal
     *  measurement stamped `rounds`. This is the only flat form of
     *  the circuit: the detector-model builder enumerates it, and
     *  the scalar FrameSimulator runs it. A non-negative
     *  `rounds_override` unrolls the same body for a different round
     *  count (the DEM tiler's short template). */
    std::vector<Op> baseOps(int rounds_override = -1) const;
};

/** Lowers protocol descriptions into CircuitPrograms. */
class CircuitCompiler
{
  public:
    /** Lower the rotated-surface-code memory protocol (any basis, any
     *  LRC tail kind). The emitted round body replays bit-identically
     *  to buildRoundSchedule()-driven execution. */
    static CircuitProgram surfaceMemory(const RotatedSurfaceCode &code,
                                        int rounds, Basis basis,
                                        IrTailKind tail);

    /** Lower a distance-d repetition-code (bit-flip) memory protocol:
     *  d data qubits in a line, d-1 ZZ checks, Z memory only. Exists
     *  entirely as a compiler path — no engine changes. */
    static CircuitProgram repetitionMemory(int distance, int rounds);

    /** Checked lowering: compile, then run validate() and the full
     *  IrAnalyzer pass stack, refusing (InvalidArgument, never panic)
     *  any program carrying Error-severity diagnostics. The form the
     *  sweep executor and other recoverable callers use. */
    [[nodiscard]] static StatusOr<CircuitProgram>
    surfaceMemoryChecked(const RotatedSurfaceCode &code, int rounds,
                         Basis basis, IrTailKind tail);
    [[nodiscard]] static StatusOr<CircuitProgram>
    repetitionMemoryChecked(int distance, int rounds);
};

const char *circuitFamilyName(CircuitFamily family);

} // namespace qec
