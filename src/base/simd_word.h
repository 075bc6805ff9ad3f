/**
 * @file
 * Width-generic SIMD bit-plane words: the lane-set type underneath the
 * batched frame-simulation engine.
 *
 * A plane word packs one bit per shot ("lane"). The original engine
 * hardwired one uint64_t per plane (64 lanes); this header generalizes
 * the plane word to `WordVec<NW>` — NW consecutive 64-bit words, i.e.
 * NW*64 lanes — so the same masked-word algebra runs at W = 64, 256 or
 * 512 lanes per group. Template code selects the lane-set type through
 * `LaneWord<NW>`, which is plain `uint64_t` for NW == 1 (zero wrapper
 * cost, byte-for-byte the pre-SIMD engine) and `WordVec<NW>` above.
 *
 * Backends: the bulk boolean ops (and/or/xor/andnot) are written as
 * fixed-trip loops the compiler can auto-vectorize, plus explicit
 * AVX-512 / AVX2 / NEON intrinsic paths chosen at compile time from
 * the target architecture macros. Defining QEC_SIMD_FORCE_PORTABLE
 * (CMake option QEC_PORTABLE_SIMD) disables every intrinsic path; the
 * portable fallback is bit-identical by construction and is what the
 * no-vector-extensions CI leg builds. Runtime capability detection
 * (`runtimeSimdSupported`, `recommendedBatchWidth`) lets callers pick
 * a word-group width to match the host without recompiling.
 *
 * Lane-set helper functions (`laneWord`, `popcountLanes`, `testLane`,
 * `forEachSetLane`, ...) are overloaded for both `uint64_t` and
 * `WordVec<NW>` so engine templates read identically at every width.
 */

#ifndef QEC_BASE_SIMD_WORD_H
#define QEC_BASE_SIMD_WORD_H

#include <cstdint>
#include <type_traits>

#if !defined(QEC_SIMD_FORCE_PORTABLE) && defined(__AVX512F__)
#define QEC_SIMD_BACKEND_AVX512 1
#include <immintrin.h>
#elif !defined(QEC_SIMD_FORCE_PORTABLE) && defined(__AVX2__)
#define QEC_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif !defined(QEC_SIMD_FORCE_PORTABLE) && defined(__ARM_NEON)
#define QEC_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define QEC_SIMD_BACKEND_PORTABLE 1
#endif

namespace qec
{

/** Widest supported word-group: 8 plane words = 512 lanes. */
constexpr int kMaxBatchWords = 8;
constexpr int kMaxBatchLanes = kMaxBatchWords * 64;

/** Mask with the low `nlanes` bits set (nlanes clamped to [0, 64]). */
constexpr uint64_t
laneMask64(int nlanes)
{
    return nlanes >= 64 ? ~uint64_t{0}
           : nlanes <= 0 ? uint64_t{0}
                         : ((uint64_t{1} << nlanes) - 1);
}

/**
 * NW consecutive 64-bit plane words (NW * 64 lanes). Alignment is
 * fixed by NW alone so the layout is independent of the compile flags
 * of the translation unit (safe to share across differently-flagged
 * TUs).
 */
template <int NW>
struct alignas(NW >= 8 ? 64 : NW >= 4 ? 32 : NW >= 2 ? 16 : 8) WordVec
{
    static_assert(NW >= 1 && NW <= kMaxBatchWords,
                  "WordVec supports 1..8 plane words");
    static constexpr int kWords = NW;
    static constexpr int kLanes = NW * 64;

    uint64_t w[NW] = {};

    friend WordVec
    operator&(const WordVec &a, const WordVec &b)
    {
        WordVec r;
#if QEC_SIMD_BACKEND_AVX512
        if constexpr (NW % 8 == 0) {
            for (int i = 0; i < NW; i += 8)
                _mm512_store_si512(
                    (__m512i *)(r.w + i),
                    _mm512_and_si512(
                        _mm512_load_si512((const __m512i *)(a.w + i)),
                        _mm512_load_si512((const __m512i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_AVX2
        if constexpr (NW % 4 == 0) {
            for (int i = 0; i < NW; i += 4)
                _mm256_store_si256(
                    (__m256i *)(r.w + i),
                    _mm256_and_si256(
                        _mm256_load_si256((const __m256i *)(a.w + i)),
                        _mm256_load_si256((const __m256i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_NEON
        if constexpr (NW % 2 == 0) {
            for (int i = 0; i < NW; i += 2)
                vst1q_u64(r.w + i, vandq_u64(vld1q_u64(a.w + i),
                                             vld1q_u64(b.w + i)));
            return r;
        }
#endif
        for (int i = 0; i < NW; ++i)
            r.w[i] = a.w[i] & b.w[i];
        return r;
    }

    friend WordVec
    operator|(const WordVec &a, const WordVec &b)
    {
        WordVec r;
#if QEC_SIMD_BACKEND_AVX512
        if constexpr (NW % 8 == 0) {
            for (int i = 0; i < NW; i += 8)
                _mm512_store_si512(
                    (__m512i *)(r.w + i),
                    _mm512_or_si512(
                        _mm512_load_si512((const __m512i *)(a.w + i)),
                        _mm512_load_si512((const __m512i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_AVX2
        if constexpr (NW % 4 == 0) {
            for (int i = 0; i < NW; i += 4)
                _mm256_store_si256(
                    (__m256i *)(r.w + i),
                    _mm256_or_si256(
                        _mm256_load_si256((const __m256i *)(a.w + i)),
                        _mm256_load_si256((const __m256i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_NEON
        if constexpr (NW % 2 == 0) {
            for (int i = 0; i < NW; i += 2)
                vst1q_u64(r.w + i, vorrq_u64(vld1q_u64(a.w + i),
                                             vld1q_u64(b.w + i)));
            return r;
        }
#endif
        for (int i = 0; i < NW; ++i)
            r.w[i] = a.w[i] | b.w[i];
        return r;
    }

    friend WordVec
    operator^(const WordVec &a, const WordVec &b)
    {
        WordVec r;
#if QEC_SIMD_BACKEND_AVX512
        if constexpr (NW % 8 == 0) {
            for (int i = 0; i < NW; i += 8)
                _mm512_store_si512(
                    (__m512i *)(r.w + i),
                    _mm512_xor_si512(
                        _mm512_load_si512((const __m512i *)(a.w + i)),
                        _mm512_load_si512((const __m512i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_AVX2
        if constexpr (NW % 4 == 0) {
            for (int i = 0; i < NW; i += 4)
                _mm256_store_si256(
                    (__m256i *)(r.w + i),
                    _mm256_xor_si256(
                        _mm256_load_si256((const __m256i *)(a.w + i)),
                        _mm256_load_si256((const __m256i *)(b.w + i))));
            return r;
        }
#elif QEC_SIMD_BACKEND_NEON
        if constexpr (NW % 2 == 0) {
            for (int i = 0; i < NW; i += 2)
                vst1q_u64(r.w + i, veorq_u64(vld1q_u64(a.w + i),
                                             vld1q_u64(b.w + i)));
            return r;
        }
#endif
        for (int i = 0; i < NW; ++i)
            r.w[i] = a.w[i] ^ b.w[i];
        return r;
    }

    friend WordVec
    operator~(const WordVec &a)
    {
        WordVec r;
        for (int i = 0; i < NW; ++i)
            r.w[i] = ~a.w[i];
        return r;
    }

    WordVec &
    operator&=(const WordVec &o)
    {
        *this = *this & o;
        return *this;
    }
    WordVec &
    operator|=(const WordVec &o)
    {
        *this = *this | o;
        return *this;
    }
    WordVec &
    operator^=(const WordVec &o)
    {
        *this = *this ^ o;
        return *this;
    }

    friend bool
    operator==(const WordVec &a, const WordVec &b)
    {
        uint64_t diff = 0;
        for (int i = 0; i < NW; ++i)
            diff |= a.w[i] ^ b.w[i];
        return diff == 0;
    }
    friend bool
    operator!=(const WordVec &a, const WordVec &b)
    {
        return !(a == b);
    }

    /** Contextual truth: any lane set (`if (mask)` / `if (!mask)`). */
    explicit
    operator bool() const
    {
        uint64_t any = 0;
        for (int i = 0; i < NW; ++i)
            any |= w[i];
        return any != 0;
    }
};

/** `a & ~b` (the masked-update idiom; AVX has a native andnot). */
template <int NW>
inline WordVec<NW>
andnot(const WordVec<NW> &a, const WordVec<NW> &b)
{
    WordVec<NW> r;
#if QEC_SIMD_BACKEND_AVX512
    if constexpr (NW % 8 == 0) {
        // a & (b ^ ~0) compiles to the same vpandnq; GCC 12's
        // _mm512_andnot_si512 reads an undefined vector and warns
        // wherever it is inlined.
        const __m512i ones = _mm512_set1_epi64(-1);
        for (int i = 0; i < NW; i += 8)
            _mm512_store_si512(
                (__m512i *)(r.w + i),
                _mm512_and_si512(
                    _mm512_load_si512((const __m512i *)(a.w + i)),
                    _mm512_xor_si512(
                        _mm512_load_si512((const __m512i *)(b.w + i)),
                        ones)));
        return r;
    }
#elif QEC_SIMD_BACKEND_AVX2
    if constexpr (NW % 4 == 0) {
        for (int i = 0; i < NW; i += 4)
            _mm256_store_si256(
                (__m256i *)(r.w + i),
                _mm256_andnot_si256(
                    _mm256_load_si256((const __m256i *)(b.w + i)),
                    _mm256_load_si256((const __m256i *)(a.w + i))));
        return r;
    }
#elif QEC_SIMD_BACKEND_NEON
    if constexpr (NW % 2 == 0) {
        for (int i = 0; i < NW; i += 2)
            vst1q_u64(r.w + i, vbicq_u64(vld1q_u64(a.w + i),
                                         vld1q_u64(b.w + i)));
        return r;
    }
#endif
    for (int i = 0; i < NW; ++i)
        r.w[i] = a.w[i] & ~b.w[i];
    return r;
}

inline uint64_t
andnot(uint64_t a, uint64_t b)
{
    return a & ~b;
}

/** Lane-set type for an NW-word group: raw uint64_t when NW == 1. */
template <int NW>
struct LaneWordSel
{
    using type = WordVec<NW>;
};
template <>
struct LaneWordSel<1>
{
    using type = uint64_t;
};
template <int NW>
using LaneWord = typename LaneWordSel<NW>::type;

// ------------------------------------------------- lane-set helpers
// Overloaded for uint64_t and WordVec so width-generic engine code
// reads the same at every NW.

inline bool
anyLane(uint64_t v)
{
    return v != 0;
}
template <int NW>
inline bool
anyLane(const WordVec<NW> &v)
{
    return static_cast<bool>(v);
}

inline int
popcountLanes(uint64_t v)
{
    return __builtin_popcountll(v);
}
template <int NW>
inline int
popcountLanes(const WordVec<NW> &v)
{
    int n = 0;
    for (int i = 0; i < NW; ++i)
        n += __builtin_popcountll(v.w[i]);
    return n;
}

/** Read 64-bit plane word `i` of a lane set. */
inline uint64_t
laneWord(uint64_t v, int)
{
    return v;
}
template <int NW>
inline uint64_t
laneWord(const WordVec<NW> &v, int i)
{
    return v.w[i];
}

/** Mutable access to plane word `i`. */
inline uint64_t &
laneWordRef(uint64_t &v, int)
{
    return v;
}
template <int NW>
inline uint64_t &
laneWordRef(WordVec<NW> &v, int i)
{
    return v.w[i];
}

inline bool
testLane(uint64_t v, int lane)
{
    return (v >> lane) & 1;
}
template <int NW>
inline bool
testLane(const WordVec<NW> &v, int lane)
{
    return (v.w[lane >> 6] >> (lane & 63)) & 1;
}

inline void
setLane(uint64_t &v, int lane)
{
    v |= uint64_t{1} << lane;
}
template <int NW>
inline void
setLane(WordVec<NW> &v, int lane)
{
    v.w[lane >> 6] |= uint64_t{1} << (lane & 63);
}

/** XOR one lane bit (Pauli application semantics). */
inline void
flipLane(uint64_t &v, int lane)
{
    v ^= uint64_t{1} << lane;
}
template <int NW>
inline void
flipLane(WordVec<NW> &v, int lane)
{
    v.w[lane >> 6] ^= uint64_t{1} << (lane & 63);
}

inline void
clearLane(uint64_t &v, int lane)
{
    v &= ~(uint64_t{1} << lane);
}
template <int NW>
inline void
clearLane(WordVec<NW> &v, int lane)
{
    v.w[lane >> 6] &= ~(uint64_t{1} << (lane & 63));
}

/** Lane set with the low `nlanes` lanes set. */
template <typename L>
inline L
laneMaskOf(int nlanes)
{
    if constexpr (std::is_same_v<L, uint64_t>) {
        return laneMask64(nlanes);
    } else {
        L r;
        for (int i = 0; i < L::kWords; ++i)
            r.w[i] = laneMask64(nlanes - 64 * i);
        return r;
    }
}

/** Apply f(lane) to every set lane, in ascending lane order. */
template <typename F>
inline void
forEachSetLane(uint64_t v, F &&f)
{
    while (v) {
        f(__builtin_ctzll(v));
        v &= v - 1;
    }
}
template <int NW, typename F>
inline void
forEachSetLane(const WordVec<NW> &v, F &&f)
{
    for (int i = 0; i < NW; ++i) {
        uint64_t word = v.w[i];
        const int base = 64 * i;
        while (word) {
            f(base + __builtin_ctzll(word));
            word &= word - 1;
        }
    }
}

// -------------------------------------- compile/run-time dispatch

/** Vector backend compiled into this translation unit. */
enum class SimdBackend
{
    Portable,
    Neon,
    Avx2,
    Avx512,
};

constexpr SimdBackend
compiledSimdBackend()
{
#if QEC_SIMD_BACKEND_AVX512
    return SimdBackend::Avx512;
#elif QEC_SIMD_BACKEND_AVX2
    return SimdBackend::Avx2;
#elif QEC_SIMD_BACKEND_NEON
    return SimdBackend::Neon;
#else
    return SimdBackend::Portable;
#endif
}

/** Name of the backend the *engine* library was compiled with (the
 *  batch-simulation TUs; other TUs may differ). */
const char *simdBackendName();

/** Does the running CPU support the given backend? (Portable: always;
 *  used to pick a word-group width at runtime.) */
bool runtimeSimdSupported(SimdBackend backend);

/**
 * Word-group width recommendation for this host: 512 when 512-bit
 * vector ops are native, else 256 with any 128/256-bit vector unit,
 * else 64. When the engine library itself was compiled with the
 * portable fallback (QEC_PORTABLE_SIMD), wide WordVec ops are scalar
 * loops and widths above 64 only add plane-depth overhead, so the
 * recommendation clamps to 64 regardless of the host CPU. Any width
 * up to kMaxBatchLanes is *correct* everywhere — this is purely a
 * throughput default.
 */
int recommendedBatchWidth();

} // namespace qec

#endif // QEC_BASE_SIMD_WORD_H
