/**
 * @file
 * Converts one shot's scalar measurement record into decoder inputs:
 * the list of fired detectors (defects) and the true logical-observable
 * flip. Detector ids come from the compiled program's IrDetectorMap —
 * the one convention the DEM builder and the batched
 * SparseSyndromeExtractor also read — so every side agrees on it.
 */

#ifndef QEC_DECODER_DEFECTS_H
#define QEC_DECODER_DEFECTS_H

#include <vector>

#include "code/circuit_ir.h"
#include "sim/frame_simulator.h"

namespace qec
{

/** Decoder-facing summary of one memory-experiment shot. */
struct ShotOutcome
{
    /** Fired detector ids in the protected basis (see DetectorModel
     *  for the id convention). */
    std::vector<int> defects;
    /** Whether the logical observable actually flipped (from the final
     *  transversal data measurement). */
    bool observableFlip = false;
};

/**
 * Extract defects from a full measurement record.
 *
 * @param map     The program's measure→detector/observable map.
 * @param rounds  Number of syndrome extraction rounds R.
 * @param record  All measurement records of the shot, including the
 *                final transversal data measurement.
 */
ShotOutcome extractDefects(const IrDetectorMap &map, int rounds,
                           const std::vector<MeasureRecord> &record);

} // namespace qec

#endif // QEC_DECODER_DEFECTS_H
