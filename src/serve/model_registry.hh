/**
 * @file
 * Versioned parameter snapshots for live model hot-swap.
 *
 * A trainer publishes new parameter sets while the server is under
 * load; workers pick up the newest version at each batch boundary via
 * a shared_ptr swap, so an in-flight batch keeps computing against the
 * snapshot it started with and is never torn by a publish. Old
 * versions are freed when the last batch referencing them completes.
 *
 * This is the serving-side counterpart of rl::GlobalParams::snapshot:
 * publishers copy theta out under that lock, and the registry turns
 * the copy into an immutable, reference-counted version.
 */

#ifndef FA3C_SERVE_MODEL_REGISTRY_HH
#define FA3C_SERVE_MODEL_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <mutex>

#include "nn/params.hh"
#include "nn/quant_params.hh"

namespace fa3c::serve {

/** Thread-safe holder of the current parameter version. */
class ModelRegistry
{
  public:
    /** One immutable published version. */
    struct Model
    {
        std::uint64_t version = 0;
        nn::ParamSet params;
        /**
         * Quantized image of params, built once at publish time when
         * quantization is enabled (nullptr otherwise). Workers whose
         * backend wantsQuantized() stage this shared image instead of
         * each re-quantizing the same weights.
         */
        std::shared_ptr<const nn::QuantizedModel> quant;
    };

    /**
     * Quantize every subsequent publish for @p net. Call before the
     * first publish (there is no re-quantization of already-published
     * versions). @p net must outlive the registry.
     */
    void enableQuantization(const nn::A3cNetwork &net);

    /**
     * Publish @p params as the next version (the set is moved in and
     * frozen). Never blocks in-flight batches; with quantization
     * enabled the quantized image is built outside the registry lock.
     *
     * @return The new version number (1-based, monotonic).
     */
    std::uint64_t publish(nn::ParamSet &&params);

    /**
     * The newest version, or nullptr before the first publish. The
     * returned snapshot stays valid (and unchanged) for as long as the
     * caller holds the pointer, regardless of later publishes.
     */
    std::shared_ptr<const Model> current() const;

    /** Newest version number; 0 before the first publish. */
    std::uint64_t version() const;

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const Model> current_;
    std::uint64_t nextVersion_ = 1;
    const nn::A3cNetwork *quantNet_ = nullptr;
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_MODEL_REGISTRY_HH
