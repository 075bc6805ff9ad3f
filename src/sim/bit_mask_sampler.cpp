#include "sim/bit_mask_sampler.h"

#include <cmath>

namespace qec
{

uint64_t
bernoulliGeometricGap(Rng &rng, double log1mp)
{
    // Number of failures before the next success of a Bernoulli(p)
    // stream: floor(log(U) / log(1-p)) with U uniform on (0, 1].
    double u = (double)(rng.next() >> 11) * 0x1.0p-53;
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double gap = std::log(u) / log1mp;
    // Clamp: a gap beyond any realistic trial horizon means "never".
    if (gap >= 0x1.0p62)
        return uint64_t{1} << 62;
    return (uint64_t)gap;
}

uint64_t
bernoulliRareMask(Rng &rng, double log1mp, uint64_t &skip, int nlanes)
{
    const uint64_t n = (uint64_t)nlanes;
    if (skip >= n) {
        skip -= n;
        return 0;
    }
    uint64_t mask = 0;
    uint64_t pos = skip;
    while (pos < n) {
        mask |= uint64_t{1} << pos;
        pos += 1 + bernoulliGeometricGap(rng, log1mp);
    }
    skip = pos - n;
    return mask;
}

BernoulliDigits
bernoulliDigits(double p)
{
    // p = mant * 2^(e-53) with a 53-bit integer mantissa, so the
    // 64-digit word p * 2^64 is mant * 2^(e+11); p < 1 keeps e <= 0,
    // and digits past the 64th are dropped (the walk never reads them).
    int e = 0;
    const double m = std::frexp(p, &e);
    const uint64_t mant = (uint64_t)std::ldexp(m, 53);
    const int shift = e + 11;
    BernoulliDigits digits;
    if (shift >= 0)
        digits.word = mant << shift;
    else if (shift > -64)
        digits.word = mant >> -shift;
    // The mantissa's lowest 1 bit is digit 52 - e - ctz(mant).
    const int last = 52 - e - __builtin_ctzll(mant);
    digits.count = last < 64 ? last + 1 : 64;
    return digits;
}

uint64_t
bernoulliDenseMask(Rng &rng, double p, int nlanes)
{
    return bernoulliDenseMask(rng, bernoulliDigits(p), nlanes);
}

BernoulliMaskSampler::Stream &
BernoulliMaskSampler::streamFor(double p)
{
    for (auto &stream : streams_) {
        if (stream.p == p)
            return stream;
    }
    Stream stream;
    stream.p = p;
    stream.log1mp = std::log1p(-p);
    streams_.push_back(stream);
    auto &created = streams_.back();
    created.skip = bernoulliGeometricGap(*rng_, created.log1mp);
    return created;
}

uint64_t
BernoulliMaskSampler::drawRare(Stream &stream, int nlanes)
{
    return bernoulliRareMask(*rng_, stream.log1mp, stream.skip,
                             nlanes);
}

uint64_t
BernoulliMaskSampler::drawDense(double p, int nlanes)
{
    return bernoulliDenseMask(*rng_, p, nlanes);
}

uint64_t
BernoulliMaskSampler::drawSlow(double p, int nlanes)
{
    if (p <= 0.0 || nlanes <= 0)
        return 0;
    if (p >= 1.0)
        return laneMask(nlanes);
    if (p < kRareThreshold)
        return drawRare(streamFor(p), nlanes);
    return drawDense(p, nlanes);
}

} // namespace qec
