/**
 * @file
 * Vectorized Bernoulli sampling over 64 lanes at once.
 *
 * The batch frame simulator asks, for every noisy circuit location,
 * "which of my W packed shots suffer this error?" — a 64-bit mask whose
 * bit l is 1 with probability p, independently per lane. Drawing 64
 * scalar Bernoulli trials would erase the advantage of bit-packing, so
 * two word-level strategies are used, picked by probability:
 *
 *  - Rare events (p below ~2%): geometric gap skipping over a
 *    persistent virtual trial stream, the technique Stim's bulk
 *    samplers use. The amortized cost is proportional to the number of
 *    *hits*, so at p = 1e-3 a mask over 64 lanes costs a fraction of
 *    one RNG draw.
 *  - Dense events: a bitwise comparison U < p evaluated lane-parallel
 *    by streaming the binary expansion of p against uniform words. The
 *    still-equal lane set halves each step, so ~8 words resolve all 64
 *    lanes exactly (to double precision).
 */

#ifndef QEC_SIM_BIT_MASK_SAMPLER_H
#define QEC_SIM_BIT_MASK_SAMPLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/simd_word.h"

namespace qec
{

// Shared word-level Bernoulli primitives. Both BernoulliMaskSampler
// and the batch engine's grouped per-block streams build on these, so
// there is exactly ONE definition of each RNG-stream-critical
// algorithm — the cross-width bit-identity invariant depends on every
// consumer drawing the same sequence.

/** Geometric gap (failures before the next success) of a Bernoulli
 *  stream with cached log(1-p); consumes one word of `rng`. */
uint64_t bernoulliGeometricGap(Rng &rng, double log1mp);

/**
 * Rare-event mask over the low `nlanes` lanes: advance the stream's
 * persistent `skip` counter, setting a bit for every virtual trial
 * that lands in this word. The common all-miss case is the inline
 * compare + subtract the callers fast-path themselves.
 */
uint64_t bernoulliRareMask(Rng &rng, double log1mp, uint64_t &skip,
                           int nlanes);

/**
 * The binary expansion of a probability p in (0, 1), most significant
 * digit first: digit i (weight 2^-(i+1)) is bit 63 - i of `word`, and
 * `count` is the number of digits through p's last 1 digit (64 when
 * the expansion runs past 64 digits). Built once per noise channel so
 * the dense path streams digits instead of redoubling a double.
 */
struct BernoulliDigits
{
    uint64_t word = 0;
    int count = 0;
};

/** p's digits for the dense path; p must lie in (0, 1). */
BernoulliDigits bernoulliDigits(double p);

/**
 * Dense-path mask: lane-parallel digit comparison U < p over the low
 * `nlanes` lanes, one RNG word per digit. `eq` holds the lanes whose
 * uniform digits so far equal p's prefix; the walk ends when no lane
 * is still equal or after p's last 1 digit (lanes equal to p through
 * it have U >= p and stay clear). The digit select is branch-free.
 */
inline uint64_t
bernoulliDenseMask(Rng &rng, const BernoulliDigits &digits, int nlanes)
{
    uint64_t lt = 0;
    uint64_t eq = laneMask64(nlanes);
    uint64_t word = digits.word;
    for (int i = 0; i < digits.count && eq != 0; ++i) {
        const uint64_t w = rng.next();
        // All ones when the digit is 1: U's digit 0 then means U < p,
        // and equality continues on U's 1 digits (on 0 digits for a
        // 0 digit of p).
        const uint64_t one = (uint64_t)((int64_t)word >> 63);
        word <<= 1;
        lt |= eq & ~w & one;
        eq &= ~(w ^ one);
    }
    return lt;
}

/** Dense-path mask for a probability given as a double. */
uint64_t bernoulliDenseMask(Rng &rng, double p, int nlanes);

class BernoulliMaskSampler
{
  public:
    /** @param rng Source of raw words; not owned, must outlive this. */
    explicit BernoulliMaskSampler(Rng *rng) : rng_(rng) {}

    /**
     * A word whose low `nlanes` bits are independent Bernoulli(p)
     * draws (higher bits are zero). Streams are kept per distinct
     * probability so rare-event skips carry across calls.
     *
     * Inlined fast path: an engine run alternates between a handful
     * of distinct rare probabilities (gate, leak, seepage, ...), so
     * the per-probability stream list stays tiny and is scanned
     * inline; when the matching stream's pending skip covers the
     * whole word (the overwhelmingly common case at the error rates
     * of interest) the draw is a compare + subtract — identical in
     * sequence to the out-of-line rare path, just without the call.
     */
    uint64_t
    draw(double p, int nlanes)
    {
        for (auto &stream : streams_) {
            if (stream.p == p) {
                if (nlanes > 0 &&
                    stream.skip >= (uint64_t)nlanes) {
                    stream.skip -= (uint64_t)nlanes;
                    return 0;
                }
                break;
            }
        }
        return drawSlow(p, nlanes);
    }

    /** Probability below which the geometric skip path is used. */
    static constexpr double kRareThreshold = 0.02;

  private:
    struct Stream
    {
        double p = 0.0;
        double log1mp = 0.0;   ///< log(1 - p), cached.
        uint64_t skip = 0;     ///< Trials remaining before the next hit.
    };

    uint64_t drawSlow(double p, int nlanes);

    Stream & streamFor(double p);
    uint64_t drawRare(Stream &stream, int nlanes);
    uint64_t drawDense(double p, int nlanes);

    Rng *rng_;
    std::vector<Stream> streams_;
};

/** Mask with the low `nlanes` bits set (alias of base/simd_word.h's
 *  clamped laneMask64, kept for the sampler's historical callers). */
inline uint64_t
laneMask(int nlanes)
{
    return laneMask64(nlanes);
}

} // namespace qec

#endif // QEC_SIM_BIT_MASK_SAMPLER_H
