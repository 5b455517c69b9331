#include "fa3c/tlu.hh"

#include "sim/logging.hh"
#include "sim/perf_counters.hh"

namespace fa3c::core {

void
TransposeBuffer::writeRow(std::span<const float> row)
{
    FA3C_ASSERT(row.size() == static_cast<std::size_t>(patchWords),
                "TransposeBuffer row width");
    FA3C_ASSERT(rowsWritten_ < patchWords,
                "TransposeBuffer overfilled (", rowsWritten_, " rows)");
    FA3C_ASSERT(colsRead_ == 0,
                "TransposeBuffer written while draining");
    // The hardware shifts the incoming row into a 16x16 register
    // plane; functionally the row lands at index rowsWritten_.
    for (int c = 0; c < patchWords; ++c)
        regs_[static_cast<std::size_t>(rowsWritten_ * patchWords + c)] =
            row[static_cast<std::size_t>(c)];
    ++rowsWritten_;
}

void
TransposeBuffer::readColumn(std::span<float> out)
{
    FA3C_ASSERT(out.size() == static_cast<std::size_t>(patchWords),
                "TransposeBuffer column width");
    FA3C_ASSERT(rowsWritten_ == patchWords,
                "TransposeBuffer drained before full");
    FA3C_ASSERT(colsRead_ < patchWords, "TransposeBuffer over-drained");
    // Draining shifts the plane sideways: column colsRead_ emerges.
    for (int r = 0; r < patchWords; ++r)
        out[static_cast<std::size_t>(r)] =
            regs_[static_cast<std::size_t>(r * patchWords + colsRead_)];
    ++colsRead_;
    if (colsRead_ == patchWords) {
        rowsWritten_ = 0;
        colsRead_ = 0;
    }
}

ParamMatrix
loadBwViaTlu(const nn::ConvSpec &spec, std::span<const float> packed)
{
    const int kk = spec.kernel * spec.kernel;
    const int fw_rows = spec.inChannels * kk;
    const int fw_cols = spec.outChannels;
    const int prow = paddedRows(spec) / patchWords;
    const int pcol = paddedCols(spec) / patchWords;
    FA3C_ASSERT(packed.size() == static_cast<std::size_t>(prow) *
                                     static_cast<std::size_t>(pcol) *
                                     patchWords * patchWords,
                "loadBwViaTlu packed size");

    // Transposed view of the whole FW matrix (cols x rows), assembled
    // patch by patch through the TLU register plane.
    ParamMatrix transposed(paddedCols(spec), paddedRows(spec));
    TransposeBuffer tlu;
    std::array<float, static_cast<std::size_t>(patchWords)> line{};
    for (int pr = 0; pr < prow; ++pr) {
        for (int pc = 0; pc < pcol; ++pc) {
            const std::size_t base =
                (static_cast<std::size_t>(pr) *
                     static_cast<std::size_t>(pcol) +
                 static_cast<std::size_t>(pc)) *
                patchWords * patchWords;
            for (int r = 0; r < patchWords; ++r)
                tlu.writeRow(packed.subspan(
                    base + static_cast<std::size_t>(r) * patchWords,
                    patchWords));
            for (int c = 0; c < patchWords; ++c) {
                tlu.readColumn(line);
                // Patch (pr, pc) of the FW matrix becomes patch
                // (pc, pr) of the transposed matrix.
                for (int r = 0; r < patchWords; ++r)
                    transposed.at(pc * patchWords + c,
                                  pr * patchWords + r) =
                        line[static_cast<std::size_t>(r)];
            }
        }
    }

    // Reindex the transposed matrix (o, i*K*K + k) into the BW layout
    // (o*K*K + k, i) — the in-buffer arrangement the line buffers and
    // BCU present to the PEs.
    ParamMatrix bw(spec.outChannels * kk, spec.inChannels);
    for (int o = 0; o < fw_cols; ++o)
        for (int i = 0; i < spec.inChannels; ++i)
            for (int k = 0; k < kk; ++k)
                bw.at(o * kk + k, i) = transposed.at(o, i * kk + k);
    (void)fw_rows;

    const auto patches = static_cast<std::uint64_t>(prow) *
                         static_cast<std::uint64_t>(pcol);
    const auto words = patches *
                       static_cast<std::uint64_t>(patchWords) *
                       static_cast<std::uint64_t>(patchWords);
    {
        sim::PerfBank &bank = sim::perf().bank("tlu");
        static auto &loads = bank.counter("layer_loads");
        static auto &patchC = bank.counter("patches");
        static auto &wordC = bank.counter("words");
        loads.fetch_add(1, std::memory_order_relaxed);
        patchC.fetch_add(patches, std::memory_order_relaxed);
        wordC.fetch_add(words, std::memory_order_relaxed);
    }
    return bw;
}

std::uint64_t
tluLoadCycles(const nn::ConvSpec &spec, int tlu_count)
{
    FA3C_ASSERT(tlu_count >= 1, "tluLoadCycles tlu_count");
    const std::uint64_t patches =
        static_cast<std::uint64_t>(paddedRows(spec) / patchWords) *
        static_cast<std::uint64_t>(paddedCols(spec) / patchWords);
    if (patches == 0)
        return 0;
    if (tlu_count >= 2) {
        // Fill/drain overlap across the two TLUs: 16 cycles per patch
        // in steady state, one exposed 16-cycle fill up front.
        return patches * patchWords + patchWords;
    }
    return patches * 2 * patchWords;
}

} // namespace fa3c::core
