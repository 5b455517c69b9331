/**
 * @file
 * Quantized parameter image for the int8 inference backend.
 *
 * quantizeModel() derives, from a fp32 ParamSet, the staged weight
 * image the quantized backend consumes: per-output-channel symmetric
 * int8 weights (scale maxabs/127) for both conv layers and both FC
 * layers, packed into the quad-interleaved qgemm panel layout
 * (kernels/quant.hh); a small-output FC head (fc4) instead keeps
 * canonical int8 rows for the dot-product path.
 *
 * Building an image costs one pass over the weights, so serving
 * stages it once per publish (serve::ModelRegistry quantizes on
 * publish and shares the image across all scheduler workers via
 * shared_ptr); trainer-side backends fall back to quantizing inside
 * onParamSync. Biases are not quantized — dequantization adds them
 * in fp32.
 */

#ifndef FA3C_NN_QUANT_PARAMS_HH
#define FA3C_NN_QUANT_PARAMS_HH

#include <cstdint>
#include <vector>

#include "nn/a3c_network.hh"
#include "nn/params.hh"

namespace fa3c::nn {

/** Staged quantized weights for one network (see file comment). */
struct QuantizedModel
{
    /** Int8 GEMM operand: panels of wT plus per-output dequant. */
    struct Int8Panels
    {
        std::vector<std::int8_t> panels; ///< qgemmPackPanels layout
        std::vector<float> scale;        ///< sw[o] = maxabs(row o)/127
    };

    /** Small-output FC head: canonical int8 rows for the dot path. */
    struct Int8Rows
    {
        std::vector<std::int8_t> rows; ///< [O][qrowStride(I)], zero-pad
        std::vector<float> scale;      ///< sw[o]
    };

    Int8Panels conv1;
    Int8Panels conv2;
    Int8Panels fc3;
    Int8Panels fc4;     ///< only when fc4 is panel-sized
    Int8Rows fc4Rows;   ///< only when fc4 is small (the usual case)
    bool fc4Small = false;
};

/** Build the quantized image of @p params for @p net. */
QuantizedModel quantizeModel(const A3cNetwork &net,
                             const ParamSet &params);

} // namespace fa3c::nn

#endif // FA3C_NN_QUANT_PARAMS_HH
