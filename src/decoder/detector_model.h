/**
 * @file
 * Detector error model (DEM) for memory experiments.
 *
 * Detectors are parities of stabilizer measurement flips that are
 * deterministically zero in a noiseless run:
 *   det(s, 0)       = m[s][0]                       (round 0)
 *   det(s, r)       = m[s][r] xor m[s][r-1]         (1 <= r < R)
 *   det(s, R)       = recon[s] xor m[s][R-1]        (final round)
 * where recon[s] is the stabilizer value reconstructed from the final
 * transversal data measurement, and s ranges over stabilizers of the
 * type protecting the memory basis.
 *
 * The builder enumerates every Pauli-noise mechanism of a compiled
 * program's base (no-LRC) op stream, CircuitProgram::baseOps, and
 * records which detectors (and whether the logical observable) flip;
 * detector ids come from the program's IrDetectorMap, the same map the
 * syndrome extractors read. One backward detector-sensitivity sweep
 * over the op stream yields every signature:
 * walking the ops in reverse, each qubit carries the detectors an X or
 * a Z frame on it would flip from that point on, and a fault's
 * signature is the XOR of its components' sets at its location.
 * Mechanisms with identical signatures are merged, keeping counts per
 * probability class so edge probabilities can be re-evaluated for any
 * physical error rate p without re-enumeration. For long experiments
 * the bulk rounds are built once and tiled through time; tests assert
 * that the tiled and direct edge multisets match, while their edge
 * order differs by design.
 *
 * Leakage mechanisms are deliberately NOT represented: the paper's
 * decoder is leakage-unaware, and so is this one.
 */

#ifndef QEC_DECODER_DETECTOR_MODEL_H
#define QEC_DECODER_DETECTOR_MODEL_H

#include <vector>

#include "code/circuit_ir.h"
#include "code/types.h"

namespace qec
{

/** Index of the virtual boundary in DEM edges. */
constexpr int kBoundary = -1;

/**
 * One weighted decoding-graph edge. Mechanism counts are kept per
 * probability class: n1 at prob p (measurement flips, reset errors),
 * n3 at p/3 (single-qubit depolarizing components), n15 at p/15
 * (two-qubit depolarizing components).
 */
struct DemEdge
{
    int a = kBoundary;      ///< Detector id (always valid).
    int b = kBoundary;      ///< Detector id or kBoundary.
    bool obsFlip = false;   ///< Whether the mechanism flips the logical.
    int n1 = 0;
    int n3 = 0;
    int n15 = 0;

    /** XOR-combined probability that this edge fires, given p. */
    double probability(double p) const;
};

/** The full detector error model of one (code, rounds, basis) config. */
struct DetectorModel
{
    int rounds = 0;             ///< R: syndrome extraction rounds.
    int stabsPerRound = 0;      ///< Stabilizers of the protected type.
    Basis basis = Basis::Z;

    std::vector<DemEdge> edges;

    /** Mechanisms whose signature needed >2-detector decomposition. */
    int decomposedMechanisms = 0;
    /** Mechanisms whose decomposition had no exact match (paired
     *  greedily); expected to be zero for surface-code circuits. */
    int unmatchedDecompositions = 0;

    /** Total detector count: (rounds + 1) * stabsPerRound. */
    int
    numDetectors() const
    {
        return (rounds + 1) * stabsPerRound;
    }

    int
    detectorId(int basis_stab, int round) const
    {
        return round * stabsPerRound + basis_stab;
    }
    int detectorRound(int det) const { return det / stabsPerRound; }
    int detectorStab(int det) const { return det % stabsPerRound; }
};

/**
 * Build the DEM of a compiled circuit program from its own
 * measure→detector/observable map (no lattice walking): the sweep runs
 * over the program's baseOps() and routes outcome flips through
 * `prog.detectors`. Uses direct enumeration for short experiments and
 * time-translation tiling for long ones (identical edge sets).
 */
DetectorModel buildDetectorModel(const CircuitProgram &prog);

/** Direct (non-tiled) program enumeration, for equivalence tests. */
DetectorModel buildDetectorModelDirect(const CircuitProgram &prog);

} // namespace qec

#endif // QEC_DECODER_DETECTOR_MODEL_H
