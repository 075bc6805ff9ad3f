#include "decoder/detector_model.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>

#include "base/logging.h"

namespace qec
{

double
DemEdge::probability(double p) const
{
    // XOR-combination of independent mechanisms: the edge fires iff an
    // odd number of its mechanisms fire.
    // P(odd) = (1 - prod(1 - 2 q_i)) / 2.
    double prod = 1.0;
    prod *= std::pow(1.0 - 2.0 * p, n1);
    prod *= std::pow(1.0 - 2.0 * (p / 3.0), n3);
    prod *= std::pow(1.0 - 2.0 * (p / 15.0), n15);
    return (1.0 - prod) / 2.0;
}

namespace
{

/** Probability class of a mechanism (shared error rate divisor). */
enum class ProbClass { P1, P3, P15 };

/** Signature of one mechanism: flipped detectors + observable. */
struct Signature
{
    std::vector<int> dets;
    bool obs = false;
};

uint64_t
edgeKey(int a, int b, bool obs)
{
    // a <= b after normalization; boundary (-1) stored as 0.
    return ((uint64_t)(a + 1) << 33) | ((uint64_t)(b + 1) << 1) |
           (obs ? 1 : 0);
}

/** Accumulates mechanisms into merged DEM edges. */
class EdgeAccumulator
{
  public:
    void
    add(int a, int b, bool obs, ProbClass cls, int count = 1)
    {
        if (a > b)
            std::swap(a, b);
        if (a == kBoundary && b == kBoundary)
            return;
        if (a == kBoundary)
            std::swap(a, b);  // keep the real detector in `a`
        auto [it, inserted] =
            index_.try_emplace(edgeKey(a, b, obs), edges_.size());
        if (inserted) {
            DemEdge edge;
            edge.a = a;
            edge.b = b;
            edge.obsFlip = obs;
            edges_.push_back(edge);
        }
        DemEdge &edge = edges_[it->second];
        switch (cls) {
          case ProbClass::P1: edge.n1 += count; break;
          case ProbClass::P3: edge.n3 += count; break;
          case ProbClass::P15: edge.n15 += count; break;
        }
    }

    void
    addEdgeCounts(const DemEdge &src, int a, int b)
    {
        if (src.n1)
            add(a, b, src.obsFlip, ProbClass::P1, src.n1);
        if (src.n3)
            add(a, b, src.obsFlip, ProbClass::P3, src.n3);
        if (src.n15)
            add(a, b, src.obsFlip, ProbClass::P15, src.n15);
    }

    /** True if (a, b) exists as an edge with the given observable. */
    bool
    has(int a, int b, bool obs) const
    {
        if (a > b)
            std::swap(a, b);
        if (a == kBoundary)
            std::swap(a, b);
        return index_.count(edgeKey(a, b, obs)) != 0;
    }

    std::vector<DemEdge> take() { return std::move(edges_); }

  private:
    std::unordered_map<uint64_t, size_t> index_;
    std::vector<DemEdge> edges_;
};

/** `dst ^= src` on sorted detector sets; `scratch` is spare storage. */
void
xorInto(Signature &dst, const int *src, const int *src_end,
        bool src_obs, std::vector<int> &scratch)
{
    scratch.clear();
    std::set_symmetric_difference(dst.dets.begin(), dst.dets.end(),
                                  src, src_end,
                                  std::back_inserter(scratch));
    dst.dets.swap(scratch);
    dst.obs ^= src_obs;
}

/** Frame bits of a Pauli: bit 0 = X component, bit 1 = Z component. */
int
frameBits(Pauli p)
{
    return (p == Pauli::X || p == Pauli::Y ? 1 : 0) |
           (p == Pauli::Y || p == Pauli::Z ? 2 : 0);
}

/**
 * Enumerates all Pauli mechanisms of a program's base op stream,
 * CircuitProgram::baseOps (the tiled build unrolls a short template,
 * the direct build all rounds), and produces their detector
 * signatures, routed through the program's IrDetectorMap, with one
 * backward detector-sensitivity sweep (Stim's error-analyzer
 * technique).
 *
 * Walking the ops in reverse, each qubit carries two sensitivity sets:
 * the detectors (and observable) an X frame on it would flip from that
 * point on, and likewise for a Z frame. A fault injected after op k
 * flips the XOR of its components' sets as they stand when the walk
 * reaches op k. The sweep records those operand sets in one flat
 * arena; the forward visit combines them per mechanism, so mechanisms
 * come out in forward op order.
 */
class Enumerator
{
  public:
    /** Enumerates `prog`'s base op stream unrolled to `rounds`. */
    Enumerator(const CircuitProgram &prog, int rounds)
        : map_(prog.detectors), numQubits_(prog.numQubits),
          rounds_(rounds), nS_(prog.detectors.cols),
          ops_(prog.baseOps(rounds)), dataColumns_(prog.numData),
          dataObs_(prog.numData, 0)
    {
        for (int col = 0; col < nS_; ++col) {
            for (int k = map_.colSupportOffset[col];
                 k < map_.colSupportOffset[(size_t)col + 1]; ++k)
                dataColumns_[map_.colSupportData[k]].push_back(col);
        }
        for (int q : map_.observable)
            dataObs_[q] = 1;
    }

    /**
     * Visit every mechanism. The callback receives the source round
     * (final data block = `rounds`), the probability class, and the
     * signature.
     */
    template <typename Fn>
    void
    forEachMechanism(Fn &&fn)
    {
        sweepBackward();
        // Op k's sets follow those of every later op in the arena.
        size_t next_set = setEnd_.size();
        int round = -1;
        for (const Op &op : ops_) {
            next_set -= operandSets(op);
            switch (op.type) {
              case OpType::RoundStart:
                round = op.round;
                break;
              case OpType::DataNoise:
              case OpType::H:
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                    fn(round, ProbClass::P3,
                       combine(next_set, frameBits(p)));
                break;
              case OpType::Cnot:
                for (int pp = 1; pp < 16; ++pp) {
                    const Pauli pa = (Pauli)(pp & 3);
                    const Pauli pb = (Pauli)((pp >> 2) & 3);
                    fn(round, ProbClass::P15,
                       combine(next_set,
                               frameBits(pa) | frameBits(pb) << 2));
                }
                break;
              case OpType::Reset:
                fn(round, ProbClass::P1, combine(next_set, 1));
                break;
              case OpType::Measure:
              case OpType::MeasureX:
                outcomeFlips(op, sig_);
                fn(op.finalData ? rounds_ : round, ProbClass::P1, sig_);
                break;
              case OpType::LeakageIswap:
                panic("base circuit must not contain DQLR ops");
            }
        }
    }

  private:
    /** Sets recorded per op: X then Z of each operand a fault hits. */
    static int
    operandSets(const Op &op)
    {
        switch (op.type) {
          case OpType::DataNoise:
          case OpType::H:
            return 2;
          case OpType::Cnot:
            return 4;
          case OpType::Reset:
            return 1;  // reset errors are X flips only
          default:
            return 0;
        }
    }

    /** Walk the circuit in reverse, recording each op's operand sets
     *  as they stand just after the op. */
    void
    sweepBackward()
    {
        std::vector<Signature> x(numQubits_);
        std::vector<Signature> z(numQubits_);
        size_t sets = 0;
        for (const Op &op : ops_)
            sets += operandSets(op);
        setEnd_.reserve(sets);
        setObs_.reserve(sets);
        auto record = [&](const Signature &s) {
            arena_.insert(arena_.end(), s.dets.begin(), s.dets.end());
            setEnd_.push_back((uint32_t)arena_.size());
            setObs_.push_back(s.obs);
        };
        auto xor_sets = [&](Signature &dst, const Signature &src) {
            xorInto(dst, src.dets.data(),
                    src.dets.data() + src.dets.size(), src.obs,
                    scratch_);
        };
        for (auto it = ops_.rbegin(); it != ops_.rend();
             ++it) {
            const Op &op = *it;
            const int q = op.q0;
            switch (op.type) {
              case OpType::RoundStart:
                break;
              case OpType::DataNoise:
                record(x[q]);
                record(z[q]);
                break;
              case OpType::H:
                record(x[q]);
                record(z[q]);
                std::swap(x[q], z[q]);
                break;
              case OpType::Cnot:
                record(x[q]);
                record(z[q]);
                record(x[op.q1]);
                record(z[op.q1]);
                xor_sets(x[q], x[op.q1]);
                xor_sets(z[op.q1], z[q]);
                break;
              case OpType::Reset:
                record(x[q]);
                x[q] = Signature{};
                z[q] = Signature{};
                break;
              case OpType::Measure:
              case OpType::MeasureX:
                outcomeFlips(op, sig_);
                xor_sets(op.type == OpType::Measure ? x[q] : z[q], sig_);
                break;
              case OpType::LeakageIswap:
                panic("base circuit must not contain DQLR ops");
            }
        }
    }

    /** XOR of the recorded sets first_set + i for each set bit i of
     *  `mask`, left in sig_. */
    const Signature &
    combine(size_t first_set, int mask)
    {
        sig_.dets.clear();
        sig_.obs = false;
        for (size_t s = first_set; mask; ++s, mask >>= 1) {
            if (mask & 1)
                xorInto(sig_, arena_.data() + (s ? setEnd_[s - 1] : 0),
                        arena_.data() + setEnd_[s], setObs_[s] != 0,
                        scratch_);
        }
        return sig_;
    }

    /** Detectors and observable flipped by one measurement's outcome. */
    void
    outcomeFlips(const Op &op, Signature &out) const
    {
        out.dets.clear();
        out.obs = false;
        if (op.finalData) {
            for (int col : dataColumns_[op.q0])
                out.dets.push_back(rounds_ * nS_ + col);
            out.obs = dataObs_[op.q0] != 0;
            return;
        }
        const int col = map_.stabColumn[op.stab];
        if (col >= 0)
            out.dets = {op.round * nS_ + col,
                        (op.round + 1) * nS_ + col};
    }

    const IrDetectorMap &map_;
    int numQubits_;
    int rounds_;
    int nS_;
    std::vector<Op> ops_;
    /** Per data qubit: detector columns its final readout toggles. */
    std::vector<std::vector<int>> dataColumns_;
    /** Per data qubit: whether its final readout flips the logical. */
    std::vector<uint8_t> dataObs_;
    /** Recorded sensitivity sets: set i holds the detector ids
     *  arena_[setEnd_[i-1], setEnd_[i]) and observable bit setObs_[i]. */
    std::vector<int> arena_;
    std::vector<uint32_t> setEnd_;
    std::vector<uint8_t> setObs_;
    Signature sig_;
    std::vector<int> scratch_;
};

/**
 * Collects signatures, decomposing >2-detector mechanisms against the
 * set of simple edges (Stim-style graph-like decomposition).
 */
class ModelAssembler
{
  public:
    void
    addSignature(const Signature &sig, ProbClass cls,
                 DetectorModel &stats)
    {
        if (sig.dets.empty() && !sig.obs)
            return;
        if (sig.dets.size() <= 2) {
            const int a = sig.dets.empty() ? kBoundary : sig.dets[0];
            const int b = sig.dets.size() < 2 ? kBoundary : sig.dets[1];
            acc_.add(a, b, sig.obs, cls);
            return;
        }
        pending_.push_back({sig, cls});
        ++stats.decomposedMechanisms;
    }

    void
    resolvePending(DetectorModel &stats)
    {
        for (const auto &[sig, cls] : pending_) {
            if (!tryDecompose(sig, cls))
                greedyDecompose(sig, cls, stats);
        }
        pending_.clear();
    }

    std::vector<DemEdge> take() { return acc_.take(); }

  private:
    struct Block
    {
        int a;
        int b;   // kBoundary for singletons
        bool obs;
    };

    /** Check a candidate block against known simple edges and pick an
     *  observable value for it; prefers obs=false. */
    bool
    blockExists(int a, int b, Block &out) const
    {
        for (bool obs : {false, true}) {
            if (acc_.has(a, b, obs)) {
                out = {a, b, obs};
                return true;
            }
        }
        return false;
    }

    bool
    tryDecompose(const Signature &sig, ProbClass cls)
    {
        const auto &d = sig.dets;
        std::vector<std::vector<std::pair<int, int>>> partitions;
        if (d.size() == 3) {
            partitions = {
                {{d[0], d[1]}, {d[2], kBoundary}},
                {{d[0], d[2]}, {d[1], kBoundary}},
                {{d[1], d[2]}, {d[0], kBoundary}},
                {{d[0], kBoundary}, {d[1], kBoundary},
                 {d[2], kBoundary}},
            };
        } else if (d.size() == 4) {
            partitions = {
                {{d[0], d[1]}, {d[2], d[3]}},
                {{d[0], d[2]}, {d[1], d[3]}},
                {{d[0], d[3]}, {d[1], d[2]}},
                {{d[0], d[1]}, {d[2], kBoundary}, {d[3], kBoundary}},
                {{d[0], d[2]}, {d[1], kBoundary}, {d[3], kBoundary}},
                {{d[0], d[3]}, {d[1], kBoundary}, {d[2], kBoundary}},
                {{d[1], d[2]}, {d[0], kBoundary}, {d[3], kBoundary}},
                {{d[1], d[3]}, {d[0], kBoundary}, {d[2], kBoundary}},
                {{d[2], d[3]}, {d[0], kBoundary}, {d[1], kBoundary}},
            };
        } else {
            return false;
        }

        for (const auto &partition : partitions) {
            std::vector<Block> blocks;
            bool ok = true;
            bool obs_total = false;
            for (const auto &[a, b] : partition) {
                Block block;
                if (!blockExists(a, b, block)) {
                    ok = false;
                    break;
                }
                blocks.push_back(block);
                obs_total ^= block.obs;
            }
            if (!ok)
                continue;
            // Fix up the observable parity on one block if possible.
            if (obs_total != sig.obs) {
                bool fixed = false;
                for (auto &block : blocks) {
                    if (acc_.has(block.a, block.b, !block.obs)) {
                        block.obs = !block.obs;
                        fixed = true;
                        break;
                    }
                }
                if (!fixed)
                    continue;
            }
            for (const auto &block : blocks)
                acc_.add(block.a, block.b, block.obs, cls);
            return true;
        }
        return false;
    }

    void
    greedyDecompose(const Signature &sig, ProbClass cls,
                    DetectorModel &stats)
    {
        ++stats.unmatchedDecompositions;
        // Pair consecutive detectors (they are sorted, so time/space
        // neighbours end up together); attach the observable to the
        // first block.
        bool obs = sig.obs;
        for (size_t i = 0; i < sig.dets.size(); i += 2) {
            const int a = sig.dets[i];
            const int b = (i + 1 < sig.dets.size()) ? sig.dets[i + 1]
                                                    : kBoundary;
            acc_.add(a, b, obs, cls);
            obs = false;
        }
    }

    EdgeAccumulator acc_;
    std::vector<std::pair<Signature, ProbClass>> pending_;
};

/** Shortest round count from which tiling is exact. */
constexpr int kTileShortRounds = 8;

DetectorModel
buildModelTiled(const CircuitProgram &prog)
{
    // Enumerate a short circuit and tile its bulk round through time.
    // Head: mechanisms of round 0 (round-0 detectors are special).
    // Bulk: mechanisms of round 2 stand in for source rounds 1..R-3.
    // Tail: mechanisms of rounds R0-2, R0-1 and the final data block,
    // shifted by R - R0.
    const int r0 = kTileShortRounds;
    const int rounds = prog.rounds;
    const int n_s = prog.detectors.cols;

    DetectorModel model;
    model.rounds = rounds;
    model.basis = prog.basis;
    model.stabsPerRound = n_s;

    // Collect per-group signature lists from the short template.
    Enumerator enumerator(prog, r0);
    ModelAssembler assembler;

    auto shift_sig = [&](const Signature &sig, int dr) {
        Signature shifted;
        shifted.obs = sig.obs;
        shifted.dets.reserve(sig.dets.size());
        for (int det : sig.dets)
            shifted.dets.push_back(det + dr * n_s);
        return shifted;
    };

    enumerator.forEachMechanism(
        [&](int src_round, ProbClass cls, const Signature &sig) {
            if (src_round == 0) {
                assembler.addSignature(sig, cls, model);
            } else if (src_round == 2) {
                for (int target = 1; target <= rounds - 3; ++target) {
                    assembler.addSignature(
                        shift_sig(sig, target - 2), cls, model);
                }
            } else if (src_round >= r0 - 2) {
                // Tail rounds and the final data block.
                assembler.addSignature(shift_sig(sig, rounds - r0),
                                       cls, model);
            }
            // Source rounds 1 and 3..r0-3 are redundant with the bulk
            // template and are skipped.
        });
    assembler.resolvePending(model);
    model.edges = assembler.take();
    return model;
}

} // namespace

DetectorModel
buildDetectorModelDirect(const CircuitProgram &prog)
{
    DetectorModel model;
    model.rounds = prog.rounds;
    model.basis = prog.basis;
    model.stabsPerRound = prog.detectors.cols;

    Enumerator enumerator(prog, prog.rounds);
    ModelAssembler assembler;
    enumerator.forEachMechanism(
        [&](int, ProbClass cls, const Signature &sig) {
            assembler.addSignature(sig, cls, model);
        });
    assembler.resolvePending(model);
    model.edges = assembler.take();
    return model;
}

DetectorModel
buildDetectorModel(const CircuitProgram &prog)
{
    return prog.rounds <= kTileShortRounds
               ? buildDetectorModelDirect(prog)
               : buildModelTiled(prog);
}

} // namespace qec
