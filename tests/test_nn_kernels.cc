/**
 * @file
 * Parity tests of the fast kernel library (nn/kernels/) against the
 * golden layer implementations in nn/layers.cc, across the shape zoo —
 * which includes the exact A3C geometries (8x8 stride 4, 4x4 stride 2),
 * 1x1 kernels, stride > kernel, non-square inputs, and single-channel
 * inputs. The tolerances are ULP-bounded with an absolute fallback for
 * near-zero elements; kernels that accumulate in the golden order
 * (forward, fc backward/gradient) are held to a tight bound; the two
 * that reassociate get a looser one (conv backward's col2im scatter
 * regroups the per-tap sums, and conv gradient folds the GEMM terms
 * into the accumulator one at a time where the golden loop buffers a
 * local sum and adds it once).
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels/conv.hh"
#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"
#include "nn/kernels/quant.hh"
#include "nn/layers.hh"
#include "sim/rng.hh"
#include "tensor/tensor.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::nn;
using namespace fa3c::test;

namespace {

/** Same-accumulation-order kernels: tiny slack for FMA contraction
 * differences between the two loop structures. */
constexpr std::uint64_t kTightUlp = 4;
constexpr float kTightAbs = 1e-7f;

/** Reassociating kernels (conv backward sums the same terms in a
 * different grouping). */
constexpr std::uint64_t kLooseUlp = 256;
constexpr float kLooseAbs = 1e-5f;

tensor::Tensor
convInput(const ConvSpec &spec, sim::Rng &rng)
{
    tensor::Tensor in(tensor::Shape(
        {spec.inChannels, spec.inHeight, spec.inWidth}));
    randomize(in, rng);
    return in;
}

tensor::Tensor
convOutput(const ConvSpec &spec)
{
    return tensor::Tensor(tensor::Shape(
        {spec.outChannels, spec.outHeight(), spec.outWidth()}));
}

} // namespace

TEST(NnKernels, TransposeRoundTrips)
{
    sim::Rng rng(11);
    std::vector<float> src(37 * 53), t(src.size()), back(src.size());
    randomize(std::span<float>(src), rng);
    kernels::transpose(src.data(), 37, 53, t.data());
    kernels::transpose(t.data(), 53, 37, back.data());
    EXPECT_EQ(src, back);
    // Spot-check the layout, not just the involution.
    EXPECT_EQ(t[5 * 37 + 3], src[3 * 53 + 5]);
}

TEST(NnKernels, ConvForwardMatchesGolden)
{
    sim::Rng rng(21);
    for (const ConvSpec &spec : convSpecZoo()) {
        tensor::Tensor in = convInput(spec, rng);
        std::vector<float> w(spec.weightCount()), b(spec.biasCount());
        randomize(std::span<float>(w), rng);
        randomize(std::span<float>(b), rng);

        tensor::Tensor golden = convOutput(spec);
        convForward(spec, in, w, b, golden);

        tensor::Tensor fast = convOutput(spec);
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convForwardFast(spec, in.data().data(), w, b,
                                 fast.data().data(), scratch);
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "conv forward");
    }
}

TEST(NnKernels, ConvBackwardMatchesGolden)
{
    sim::Rng rng(22);
    for (const ConvSpec &spec : convSpecZoo()) {
        std::vector<float> w(spec.weightCount());
        randomize(std::span<float>(w), rng);
        tensor::Tensor g_out = convOutput(spec);
        randomize(g_out, rng);

        tensor::Tensor golden(tensor::Shape(
            {spec.inChannels, spec.inHeight, spec.inWidth}));
        convBackward(spec, g_out, w, golden);

        tensor::Tensor fast(golden.shape());
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convBackwardFast(spec, g_out.data().data(), w,
                                  fast.data().data(), scratch);
        expectAllClose(fast.data(), golden.data(), kLooseUlp, kLooseAbs,
                       "conv backward");
    }
}

TEST(NnKernels, ConvGradientMatchesGoldenAndAccumulates)
{
    sim::Rng rng(23);
    for (const ConvSpec &spec : convSpecZoo()) {
        tensor::Tensor in = convInput(spec, rng);
        tensor::Tensor g_out = convOutput(spec);
        randomize(g_out, rng);

        // Both paths accumulate on top of the same nonzero baseline.
        std::vector<float> base_w(spec.weightCount());
        std::vector<float> base_b(spec.biasCount());
        randomize(std::span<float>(base_w), rng);
        randomize(std::span<float>(base_b), rng);

        std::vector<float> gw_golden = base_w, gb_golden = base_b;
        convGradient(spec, in, g_out, gw_golden, gb_golden);

        std::vector<float> gw_fast = base_w, gb_fast = base_b;
        std::vector<float> scratch(kernels::colSize(spec));
        kernels::convGradientFast(spec, in.data().data(),
                                  g_out.data().data(), gw_fast, gb_fast,
                                  scratch);
        expectAllClose(gw_fast, gw_golden, kLooseUlp, kLooseAbs,
                       "conv gradient w");
        expectAllClose(gb_fast, gb_golden, kLooseUlp, kLooseAbs,
                       "conv gradient b");
    }
}

TEST(NnKernels, GemmAccBTMatchesTransposeThenGemmAcc)
{
    // gemmAccBT reads B through the transposing load; it must equal
    // gemmAcc on the explicitly transposed matrix bit for bit, at
    // every M (the few-rows tiles, then the blocked form's tile
    // heights and remainders), on full and tail column strips (n = 7,
    // 45, 70) and with a k tail (k = 33, 69). Strides are padded, and
    // the padding of C must come back untouched. 256 x 2592 is fc3 of
    // the Table 1 net.
    sim::Rng rng(12);
    const struct
    {
        int n, k;
        std::vector<int> ms;
    } cases[] = {
        {7, 33, {}}, {32, 16, {}}, {45, 69, {}}, {70, 33, {}},
        {256, 2592, {1, 2, 5, 16}},
    };
    for (const auto &cs : cases) {
        std::vector<int> ms = cs.ms;
        if (ms.empty())
            for (int m = 1; m <= 17; ++m)
                ms.push_back(m);
        const int lda = cs.k + 3, ldbt = cs.k + 5, ldc = cs.n + 2;
        std::vector<float> bt(static_cast<std::size_t>(cs.n) *
                              static_cast<std::size_t>(ldbt));
        randomize(std::span<float>(bt), rng);
        // B = bt^T over the live k columns of each bt row.
        std::vector<float> b(static_cast<std::size_t>(cs.k) *
                             static_cast<std::size_t>(cs.n));
        for (int j = 0; j < cs.n; ++j)
            for (int p = 0; p < cs.k; ++p)
                b[static_cast<std::size_t>(p) *
                      static_cast<std::size_t>(cs.n) +
                  static_cast<std::size_t>(j)] =
                    bt[static_cast<std::size_t>(j) *
                           static_cast<std::size_t>(ldbt) +
                       static_cast<std::size_t>(p)];
        for (const int m : ms) {
            std::vector<float> a(static_cast<std::size_t>(m) *
                                 static_cast<std::size_t>(lda));
            randomize(std::span<float>(a), rng);
            std::vector<float> want(static_cast<std::size_t>(m) *
                                    static_cast<std::size_t>(ldc));
            randomize(std::span<float>(want), rng);
            std::vector<float> got = want;
            kernels::gemmAcc(m, cs.n, cs.k, a.data(), lda, b.data(), cs.n,
                             want.data(), ldc);
            kernels::gemmAccBT(m, cs.n, cs.k, a.data(), lda, bt.data(),
                               ldbt, got.data(), ldc);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "m " << m << " n " << cs.n << " k " << cs.k;
        }
    }
}

TEST(NnKernels, GemmAccATMatchesGemmAccOnTransposedA)
{
    // gemmAccAT reads A from its transpose at[k][m] (conv backward's
    // canonical weights); it must equal gemmAcc on the explicitly
    // transposed A bit for bit, through the axpy form (m < 4 or
    // n < 32) and the register tiles, with column and k tails.
    sim::Rng rng(14);
    for (const int n : {5, 32, 81})
        for (const int k : {1, 32, 33})
            for (int m = 1; m <= 17; ++m) {
                const int ldat = m + 3, ldc = n + 2;
                std::vector<float> at(static_cast<std::size_t>(k) *
                                      static_cast<std::size_t>(ldat));
                randomize(std::span<float>(at), rng);
                std::vector<float> a(static_cast<std::size_t>(m) *
                                     static_cast<std::size_t>(k));
                for (int r = 0; r < m; ++r)
                    for (int p = 0; p < k; ++p)
                        a[static_cast<std::size_t>(r) *
                              static_cast<std::size_t>(k) +
                          static_cast<std::size_t>(p)] =
                            at[static_cast<std::size_t>(p) *
                                   static_cast<std::size_t>(ldat) +
                               static_cast<std::size_t>(r)];
                std::vector<float> b(static_cast<std::size_t>(k) *
                                     static_cast<std::size_t>(n));
                randomize(std::span<float>(b), rng);
                std::vector<float> want(static_cast<std::size_t>(m) *
                                        static_cast<std::size_t>(ldc));
                randomize(std::span<float>(want), rng);
                std::vector<float> got = want;
                kernels::gemmAcc(m, n, k, a.data(), k, b.data(), n,
                                 want.data(), ldc);
                kernels::gemmAccAT(m, n, k, at.data(), ldat, b.data(), n,
                                   got.data(), ldc);
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "m " << m << " n " << n << " k " << k;
            }
}

TEST(NnKernels, FcForwardMatchesGolden)
{
    sim::Rng rng(24);
    for (const FcSpec &spec : fcSpecZoo()) {
        tensor::Tensor in(tensor::Shape({spec.inFeatures}));
        randomize(in, rng);
        std::vector<float> w(spec.weightCount()), b(spec.biasCount());
        randomize(std::span<float>(w), rng);
        randomize(std::span<float>(b), rng);

        tensor::Tensor golden(tensor::Shape({spec.outFeatures}));
        fcForward(spec, in, w, b, golden);

        tensor::Tensor fast(golden.shape());
        kernels::fcForwardFastBatch(spec, 1, in.data().data(), w, b,
                                    fast.data().data());
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "fc forward");
    }
}

TEST(NnKernels, FcForwardBatchBitExactWithSingle)
{
    // 23 outputs are a lone tail strip; 45 add one full 32-column
    // strip, which runs through the register tile.
    sim::Rng rng(25);
    const int batch = 7;
    for (const FcSpec spec : {FcSpec{67, 23}, FcSpec{67, 45}}) {
        std::vector<float> w(spec.weightCount()), b(spec.biasCount());
        randomize(std::span<float>(w), rng);
        randomize(std::span<float>(b), rng);

        const std::size_t in_f = static_cast<std::size_t>(spec.inFeatures);
        const std::size_t out_f =
            static_cast<std::size_t>(spec.outFeatures);
        std::vector<float> in(static_cast<std::size_t>(batch) * in_f);
        randomize(std::span<float>(in), rng);

        std::vector<float> batched(static_cast<std::size_t>(batch) *
                                   out_f);
        kernels::fcForwardFastBatch(spec, batch, in.data(), w, b,
                                    batched.data());

        // The batched GEMM must accumulate each output element in
        // exactly the per-sample order: results are bit-identical, not
        // just close. The batch = 1 call, which reads W^T through the
        // transposing load, must also equal the GEMV over a stored
        // W^T.
        std::vector<float> wT(spec.weightCount());
        kernels::transpose(w.data(), spec.outFeatures, spec.inFeatures,
                           wT.data());
        std::vector<float> single(out_f), gemv(out_f);
        for (int s = 0; s < batch; ++s) {
            const float *row = in.data() + static_cast<std::size_t>(s) * in_f;
            kernels::fcForwardFastBatch(spec, 1, row, w, b,
                                        single.data());
            std::copy(b.begin(), b.end(), gemv.begin());
            kernels::gemmAcc(1, spec.outFeatures, spec.inFeatures, row,
                             spec.inFeatures, wT.data(),
                             spec.outFeatures, gemv.data(),
                             spec.outFeatures);
            for (std::size_t o = 0; o < out_f; ++o) {
                EXPECT_EQ(single[o],
                          batched[static_cast<std::size_t>(s) * out_f + o])
                    << spec.outFeatures << " outputs, sample " << s
                    << " output " << o;
                EXPECT_EQ(single[o], gemv[o])
                    << spec.outFeatures << " outputs, sample " << s
                    << " output " << o;
            }
        }
    }
}

TEST(NnKernels, FcBackwardMatchesGolden)
{
    sim::Rng rng(26);
    for (const FcSpec &spec : fcSpecZoo()) {
        std::vector<float> w(spec.weightCount());
        randomize(std::span<float>(w), rng);
        tensor::Tensor g_out(tensor::Shape({spec.outFeatures}));
        randomize(g_out, rng);

        tensor::Tensor golden(tensor::Shape({spec.inFeatures}));
        fcBackward(spec, g_out, w, golden);

        tensor::Tensor fast(golden.shape());
        kernels::fcBackwardFast(spec, g_out.data().data(), w,
                                fast.data().data());
        expectAllClose(fast.data(), golden.data(), kTightUlp, kTightAbs,
                       "fc backward");
    }
}

TEST(NnKernels, FcGradientMatchesGoldenAndAccumulates)
{
    sim::Rng rng(27);
    for (const FcSpec &spec : fcSpecZoo()) {
        tensor::Tensor in(tensor::Shape({spec.inFeatures}));
        randomize(in, rng);
        tensor::Tensor g_out(tensor::Shape({spec.outFeatures}));
        randomize(g_out, rng);

        std::vector<float> base_w(spec.weightCount());
        std::vector<float> base_b(spec.biasCount());
        randomize(std::span<float>(base_w), rng);
        randomize(std::span<float>(base_b), rng);

        std::vector<float> gw_golden = base_w, gb_golden = base_b;
        fcGradient(spec, in, g_out, gw_golden, gb_golden);

        std::vector<float> gw_fast = base_w, gb_fast = base_b;
        kernels::fcGradientFast(spec, in.data().data(),
                                g_out.data().data(), gw_fast, gb_fast);
        expectAllClose(gw_fast, gw_golden, kTightUlp, kTightAbs,
                       "fc gradient w");
        expectAllClose(gb_fast, gb_golden, kTightUlp, kTightAbs,
                       "fc gradient b");
    }
}

TEST(NnKernels, Im2colLaysOutPatchesByTap)
{
    // A hand-checkable 1-channel case: 3x3 input, 2x2 kernel, stride 1
    // gives 4 patches of 4 taps.
    const ConvSpec spec{1, 3, 3, 1, 2, 1};
    tensor::Tensor in(tensor::Shape({1, 3, 3}));
    for (int i = 0; i < 9; ++i)
        in.data()[static_cast<std::size_t>(i)] =
            static_cast<float>(i + 1);
    std::vector<float> col(kernels::colSize(spec));
    kernels::im2col(spec, in.data().data(), col.data());
    // Rows are taps (kr, kc), columns are output positions row-major.
    const std::vector<float> expect = {
        1, 2, 4, 5, // tap (0,0)
        2, 3, 5, 6, // tap (0,1)
        4, 5, 7, 8, // tap (1,0)
        5, 6, 8, 9, // tap (1,1)
    };
    EXPECT_EQ(col, expect);

    std::vector<float> rows(kernels::colSize(spec));
    kernels::im2row(spec, in.data().data(), rows.data());
    const std::vector<float> expect_rows = {
        1, 2, 4, 5, // patch at (0,0)
        2, 3, 5, 6, // patch at (0,1)
        4, 5, 7, 8, // patch at (1,0)
        5, 6, 8, 9, // patch at (1,1)
    };
    EXPECT_EQ(rows, expect_rows);
}

TEST(NnKernels, PatchTransformsMatchIndexFormula)
{
    // Every element of the patch layouts (fp32 im2col and im2row, the
    // int8 im2row8) and the col2im scatter, bit for bit against the
    // per-element index formula
    //   patch (r, c), tap (i, kr, kc) <- in[i][r*S + kr][c*S + kc]
    // on the zoo plus the tiny net's conv layers (4/2 on 21x21, 3/1 on
    // 9x9), which covers the compile-time (kernel, stride) bodies and
    // the run-time one. im2col and im2row start from NaN, so a skipped
    // element fails; col2imAcc starts from a random base, so a write
    // to an element no patch covers fails too.
    std::vector<ConvSpec> specs = convSpecZoo();
    specs.push_back({4, 21, 21, 8, 4, 2});
    specs.push_back({8, 9, 9, 16, 3, 1});
    const auto bits = [](float v) {
        return std::bit_cast<std::uint32_t>(v);
    };
    sim::Rng rng(13);
    for (const ConvSpec &spec : specs) {
        SCOPED_TRACE(::testing::Message()
                     << "I" << spec.inChannels << " " << spec.inHeight
                     << "x" << spec.inWidth << " K" << spec.kernel
                     << " S" << spec.stride);
        const int k = spec.kernel;
        const int s = spec.stride;
        const std::size_t ld = kernels::patchCount(spec);
        const std::size_t psize = kernels::patchSize(spec);
        const tensor::Tensor in = convInput(spec, rng);
        const auto at = [&](int i, int y, int x) {
            return (static_cast<std::size_t>(i) *
                        static_cast<std::size_t>(spec.inHeight) +
                    static_cast<std::size_t>(y)) *
                       static_cast<std::size_t>(spec.inWidth) +
                   static_cast<std::size_t>(x);
        };

        const float nan = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> col(kernels::colSize(spec), nan);
        std::vector<float> rows(kernels::colSize(spec), nan);
        kernels::im2col(spec, in.data().data(), col.data());
        kernels::im2row(spec, in.data().data(), rows.data());

        // The int8 twin: neighbouring bytes differ, and every byte
        // starts at -1, which neither a tap nor the zero pad writes.
        std::vector<std::int8_t> in8(in.numel());
        for (std::size_t j = 0; j < in8.size(); ++j)
            in8[j] = static_cast<std::int8_t>(j * 37 % 127);
        const std::size_t ld8 = static_cast<std::size_t>(
            kernels::qrowStride(static_cast<int>(psize)));
        std::vector<std::int8_t> rows8(ld * ld8, -1);
        kernels::im2row8(spec, in8.data(), rows8.data());
        for (std::size_t pos = 0; pos < ld; ++pos)
            for (std::size_t p = psize; p < ld8; ++p)
                ASSERT_EQ(rows8[pos * ld8 + p], 0)
                    << "im2row8 pad of pos " << pos;

        std::vector<float> g_col(kernels::colSize(spec));
        randomize(std::span<float>(g_col), rng);
        std::vector<float> base(in.numel());
        randomize(std::span<float>(base), rng);
        std::vector<float> got_grad = base;
        std::vector<float> want_grad = base;
        kernels::col2imAcc(spec, g_col.data(), got_grad.data());

        // The scatter adds in (i, kr, kc, r, c) order, as col2imAcc
        // does, so the sums round identically.
        for (int i = 0; i < spec.inChannels; ++i)
            for (int kr = 0; kr < k; ++kr)
                for (int kc = 0; kc < k; ++kc) {
                    const std::size_t tap =
                        (static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(k) +
                         static_cast<std::size_t>(kr)) *
                            static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(kc);
                    for (int r = 0; r < spec.outHeight(); ++r)
                        for (int c = 0; c < spec.outWidth(); ++c) {
                            const std::size_t pos =
                                static_cast<std::size_t>(r) *
                                    static_cast<std::size_t>(
                                        spec.outWidth()) +
                                static_cast<std::size_t>(c);
                            const std::size_t src =
                                at(i, r * s + kr, c * s + kc);
                            const float want = in.data()[src];
                            ASSERT_EQ(bits(col[tap * ld + pos]),
                                      bits(want))
                                << "im2col tap " << tap << " pos " << pos;
                            ASSERT_EQ(bits(rows[pos * psize + tap]),
                                      bits(want))
                                << "im2row pos " << pos << " tap " << tap;
                            ASSERT_EQ(rows8[pos * ld8 + tap], in8[src])
                                << "im2row8 pos " << pos << " tap "
                                << tap;
                            want_grad[src] += g_col[tap * ld + pos];
                        }
                }
        for (std::size_t j = 0; j < want_grad.size(); ++j)
            ASSERT_EQ(bits(got_grad[j]), bits(want_grad[j]))
                << "col2imAcc element " << j;
    }
}
