#include "serve/model_registry.hh"

namespace fa3c::serve {

void
ModelRegistry::enableQuantization(const nn::A3cNetwork &net)
{
    std::lock_guard<std::mutex> lock(mutex_);
    quantNet_ = &net;
}

std::uint64_t
ModelRegistry::publish(nn::ParamSet &&params)
{
    auto model = std::make_shared<Model>();
    model->params = std::move(params);
    const nn::A3cNetwork *qnet;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        qnet = quantNet_;
    }
    // Quantize outside the lock: one weight pass per publish, hidden
    // from readers (they keep serving the previous version meanwhile).
    if (qnet)
        model->quant = std::make_shared<const nn::QuantizedModel>(
            nn::quantizeModel(*qnet, model->params));
    std::lock_guard<std::mutex> lock(mutex_);
    model->version = nextVersion_++;
    current_ = std::move(model);
    return current_->version;
}

std::shared_ptr<const ModelRegistry::Model>
ModelRegistry::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

std::uint64_t
ModelRegistry::version() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_ ? current_->version : 0;
}

} // namespace fa3c::serve
