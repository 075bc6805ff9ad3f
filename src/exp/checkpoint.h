/**
 * @file
 * Crash-exact sweep checkpoints: the `qec.ckpt.v1` artifact.
 *
 * A SweepCheckpoint persists everything needed to continue a sweep
 * after a crash with *bit-identical* final results: the full
 * PointResult of every completed grid point, and for the in-flight
 * point each policy's cumulative partial ExperimentResult plus its
 * execution cursors at the last chunk boundary (SessionProgress).
 * Exactness is by construction, not approximation: per-point noise
 * streams are seeded by (plan seed, first shot) alone, chunk
 * boundaries follow the deterministic word-group decomposition, and
 * early-stop decisions depend only on cumulative counters at those
 * boundaries — so a resumed session replays the remaining chunks
 * exactly as the uninterrupted run would have (PR 5's merge/seed
 * contracts; see experiment_session.h).
 *
 * Artifact layout (all integers little-endian):
 *
 *     "qec.ckpt"  8-byte magic
 *     u32         format version (1)
 *     u32         CRC-32 of the payload bytes
 *     u64         payload byte count
 *     payload     versioned record stream (see checkpoint.cpp)
 *
 * The payload opens with a fingerprint of the plan identity — every
 * point's derived seed, shot count and resolved axes, the policy
 * names, and the early-stop rule — so a checkpoint can never be
 * resumed against a different plan (the seed scheme makes the
 * fingerprint content-addressed). save() writes through
 * AtomicFileWriter (temp + fsync + rename): a crash during
 * checkpointing leaves the previous checkpoint, never a torn one.
 * load() verifies magic, version, length and CRC before parsing and
 * rejects anything inconsistent with a Status — a corrupt checkpoint
 * is never partially loaded.
 */

#ifndef QEC_EXP_CHECKPOINT_H
#define QEC_EXP_CHECKPOINT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "exp/sweep_plan.h"

namespace qec
{

/** One policy's progress at a grid point. */
struct PolicyCheckpoint
{
    SessionProgress progress;
    /** Busy worker-seconds spent on this policy across all
     *  incarnations (PointResult::seconds). */
    double seconds = 0.0;
    bool finished = false;
    bool stoppedEarly = false;
    bool truncated = false;
};

/** One grid point's progress: completed, or mid-policy partial. */
struct PointCheckpoint
{
    uint64_t pointIndex = 0;
    /** The point's derived seed, cross-checked on resume. */
    uint64_t seed = 0;
    bool finished = false;
    std::vector<PolicyCheckpoint> policies;
};

class SweepCheckpoint
{
  public:
    /** Artifact schema name, mirrored into sink metadata. */
    static constexpr const char *kSchema = "qec.ckpt.v1";

    /**
     * Identity fingerprint of (plan, expanded points): per-point
     * seeds/shots/axes chained with the policy names and early-stop
     * rule through splitmix64. Two plans that could produce different
     * results have different fingerprints; cosmetic fields (plan
     * name, sink choices) are excluded.
     */
    static uint64_t fingerprintPlan(
        const SweepPlan &plan, const std::vector<SweepPoint> &points);

    uint64_t planFingerprint = 0;
    /** Completed and in-flight points, keyed by point index. */
    std::map<uint64_t, PointCheckpoint> points;

    /** Serialize to the qec.ckpt.v1 byte layout. */
    std::string serialize() const;

    /** Parse + integrity-check a byte buffer (DataLoss on anything
     *  torn, truncated, version-skewed, or malformed). */
    static StatusOr<SweepCheckpoint> deserialize(
        const std::string &bytes);

    /** Crash-safe write: temp file + fsync + atomic rename. */
    Status save(const std::string &path) const;

    /** Read + deserialize `path` (NotFound when absent). */
    static StatusOr<SweepCheckpoint> load(const std::string &path);
};

} // namespace qec

#endif // QEC_EXP_CHECKPOINT_H
