#include "decoder/defects.h"

#include "base/logging.h"

namespace qec
{

ShotOutcome
extractDefects(const IrDetectorMap &map, int rounds,
               const std::vector<MeasureRecord> &record)
{
    const int n_s = map.cols;

    // m[round][column] flips of detector-producing stabilizers; final
    // data flips.
    std::vector<uint8_t> mflip((size_t)n_s * rounds, 0);
    std::vector<uint8_t> data_flip(map.numData, 0);

    for (const auto &rec : record) {
        if (rec.finalData) {
            data_flip[rec.qubit] ^= rec.flip ? 1 : 0;
            continue;
        }
        if (rec.stab < 0)
            continue;
        const int col = map.stabColumn[rec.stab];
        if (col < 0)
            continue;
        panicIf(rec.round < 0 || rec.round >= rounds,
                "measurement round out of range");
        mflip[(size_t)rec.round * n_s + col] ^= rec.flip ? 1 : 0;
    }

    ShotOutcome out;
    for (int s = 0; s < n_s; ++s) {
        uint8_t prev = 0;
        for (int r = 0; r < rounds; ++r) {
            const uint8_t cur = mflip[(size_t)r * n_s + s];
            if (cur ^ prev)
                out.defects.push_back(r * n_s + s);
            prev = cur;
        }
        // Final row: reconstruct the column from data measurements.
        uint8_t recon = 0;
        for (int k = map.colSupportOffset[s];
             k < map.colSupportOffset[(size_t)s + 1]; ++k)
            recon ^= data_flip[map.colSupportData[k]];
        if (recon ^ prev)
            out.defects.push_back(rounds * n_s + s);
    }

    for (int q : map.observable)
        out.observableFlip ^= (data_flip[q] != 0);
    return out;
}

} // namespace qec
