#include "nn/quant_params.hh"

#include "nn/kernels/fc.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/im2col.hh"
#include "nn/kernels/quant.hh"

namespace fa3c::nn {

namespace {

/** Per-row maxabs -> (dequant scale sw, inverse 127/maxabs). */
void
rowScales(const float *w, int rows, int cols, std::vector<float> &sw,
          std::vector<float> &inv)
{
    sw.resize(static_cast<std::size_t>(rows));
    inv.resize(static_cast<std::size_t>(rows));
    for (int o = 0; o < rows; ++o) {
        const float m = kernels::rowMaxAbs(
            w + static_cast<std::size_t>(o) *
                    static_cast<std::size_t>(cols),
            static_cast<std::size_t>(cols));
        // A zero row quantizes to zeros with scale 0 (the inverse is
        // forced to 0 so no inf*0 NaN can reach the rounding).
        sw[static_cast<std::size_t>(o)] = m / 127.0f;
        inv[static_cast<std::size_t>(o)] = m > 0.0f ? 127.0f / m : 0.0f;
    }
}

/**
 * Pack canonical w[rows x cols] for use as the qgemm B operand
 * (wT[cols x rows] panels, one column per output row of w).
 */
QuantizedModel::Int8Panels
packInt8(const float *w, int rows, int cols)
{
    QuantizedModel::Int8Panels out;
    std::vector<float> inv;
    rowScales(w, rows, cols, out.scale, inv);
    std::vector<float> wT(static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(cols));
    kernels::transpose(w, rows, cols, wT.data());
    out.panels.resize(kernels::qgemmPanelBytes(rows, cols));
    kernels::qgemmPackPanels(rows, cols, wT.data(), rows, inv.data(),
                             out.panels.data());
    return out;
}

/** Quantize canonical w rows in place for the small dot path. */
QuantizedModel::Int8Rows
packInt8Rows(const float *w, int rows, int cols)
{
    QuantizedModel::Int8Rows out;
    std::vector<float> inv;
    rowScales(w, rows, cols, out.scale, inv);
    const std::size_t stride =
        static_cast<std::size_t>(kernels::qrowStride(cols));
    out.rows.assign(static_cast<std::size_t>(rows) * stride, 0);
    for (int o = 0; o < rows; ++o)
        kernels::quantizeRow(
            cols,
            w + static_cast<std::size_t>(o) *
                    static_cast<std::size_t>(cols),
            inv[static_cast<std::size_t>(o)],
            out.rows.data() + static_cast<std::size_t>(o) * stride);
    return out;
}

} // namespace

QuantizedModel
quantizeModel(const A3cNetwork &net, const ParamSet &params)
{
    QuantizedModel q;
    const int taps1 = static_cast<int>(kernels::patchSize(net.conv1()));
    const int taps2 = static_cast<int>(kernels::patchSize(net.conv2()));
    const int fc4In = net.fc4().inFeatures;
    const int fc4Out = net.fc4().outFeatures;
    const auto fc4W = params.view("fc4.w");
    q.conv1 = packInt8(params.view("conv1.w").data(),
                       net.conv1().outChannels, taps1);
    q.conv2 = packInt8(params.view("conv2.w").data(),
                       net.conv2().outChannels, taps2);
    q.fc3 = packInt8(params.view("fc3.w").data(), net.fc3().outFeatures,
                     net.fc3().inFeatures);
    q.fc4Small = fc4Out < kernels::kSmallFcMaxOut;
    if (q.fc4Small)
        q.fc4Rows = packInt8Rows(fc4W.data(), fc4Out, fc4In);
    else
        q.fc4 = packInt8(fc4W.data(), fc4Out, fc4In);
    return q;
}

} // namespace fa3c::nn
