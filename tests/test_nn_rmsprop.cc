/** @file Unit tests for the shared RMSProp update rule. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/rmsprop.hh"
#include "sim/rng.hh"

using namespace fa3c::nn;

TEST(Rmsprop, MatchesManualComputation)
{
    std::vector<float> theta = {1.0f, -2.0f};
    std::vector<float> g = {0.5f, 0.0f};
    std::vector<float> grad = {0.2f, -0.4f};
    RmspropConfig cfg;
    cfg.decay = 0.9f;
    cfg.epsilon = 0.01f;
    rmspropApply(theta, g, grad, 0.1f, cfg);

    const float g0 = 0.9f * 0.5f + 0.1f * 0.04f;
    const float g1 = 0.9f * 0.0f + 0.1f * 0.16f;
    EXPECT_NEAR(g[0], g0, 1e-6f);
    EXPECT_NEAR(g[1], g1, 1e-6f);
    EXPECT_NEAR(theta[0], 1.0f - 0.1f * 0.2f / std::sqrt(g0 + 0.01f),
                1e-6f);
    EXPECT_NEAR(theta[1], -2.0f + 0.1f * 0.4f / std::sqrt(g1 + 0.01f),
                1e-6f);
}

TEST(Rmsprop, ZeroGradientLeavesThetaUnchanged)
{
    std::vector<float> theta = {3.0f};
    std::vector<float> g = {0.2f};
    std::vector<float> grad = {0.0f};
    rmspropApply(theta, g, grad, 0.1f, RmspropConfig{});
    EXPECT_FLOAT_EQ(theta[0], 3.0f);
    EXPECT_NEAR(g[0], 0.99f * 0.2f, 1e-6f);
}

TEST(Rmsprop, DescendsAQuadratic)
{
    // Minimize f(x) = (x - 3)^2 from x = 0.
    std::vector<float> theta = {0.0f};
    std::vector<float> g = {0.0f};
    RmspropConfig cfg; // rho 0.99, eps 0.1 (the A3C constants)
    for (int step = 0; step < 500; ++step) {
        std::vector<float> grad = {2.0f * (theta[0] - 3.0f)};
        rmspropApply(theta, g, grad, 0.05f, cfg);
    }
    EXPECT_NEAR(theta[0], 3.0f, 0.05f);
}

TEST(Rmsprop, UpdateMagnitudeIsGradientScaleInvariant)
{
    // RMS normalization: after warmup, steps depend on grad direction
    // more than magnitude.
    RmspropConfig cfg;
    auto run = [&](float scale) {
        std::vector<float> theta = {0.0f};
        std::vector<float> g = {0.0f};
        for (int i = 0; i < 200; ++i) {
            std::vector<float> grad = {scale};
            rmspropApply(theta, g, grad, 0.01f, cfg);
        }
        return theta[0];
    };
    // A 100x larger gradient moves theta far less than 100x further
    // (epsilon = 0.1 damps the small-gradient case).
    const float small = run(0.1f);
    const float large = run(10.0f);
    EXPECT_LT(std::abs(large / small), 8.0f);
}

TEST(Rmsprop, SizeMismatchPanics)
{
    std::vector<float> theta = {1.0f};
    std::vector<float> g = {0.0f, 0.0f};
    std::vector<float> grad = {0.1f};
    EXPECT_THROW(rmspropApply(theta, g, grad, 0.1f, RmspropConfig{}),
                 std::logic_error);
}

TEST(Rmsprop, VectorBodyAndTailsMatchScalarLoopBitForBit)
{
    // rmspropApply vectorizes; IEEE sqrt and division are correctly
    // rounded, so every lane must equal this plain scalar pipeline
    // word for word. Lengths 0..67 cover the empty span, the vector
    // body and every tail length; the odd start offset covers a
    // misaligned first word.
    const RmspropConfig cfg;
    const float lr = 7e-4f;
    const float one_minus_decay = 1.0f - cfg.decay;
    for (std::size_t offset = 0; offset < 2; ++offset) {
        for (std::size_t n = 0; n <= 67; ++n) {
            fa3c::sim::Rng rng(100 + n);
            std::vector<float> theta(offset + n), g(offset + n),
                grad(offset + n);
            for (std::size_t i = 0; i < offset + n; ++i) {
                theta[i] = -1.0f + 2.0f * rng.uniformF();
                g[i] = rng.uniformF(); // second moments are >= 0
                grad[i] = -2.0f + 4.0f * rng.uniformF();
            }
            std::vector<float> want_theta = theta, want_g = g;
            for (std::size_t i = offset; i < offset + n; ++i) {
                const float d = grad[i];
                want_g[i] = cfg.decay * want_g[i] + one_minus_decay * d * d;
                want_theta[i] -=
                    lr * d / std::sqrt(want_g[i] + cfg.epsilon);
            }
            rmspropApply(std::span<float>(theta).subspan(offset),
                         std::span<float>(g).subspan(offset),
                         std::span<const float>(grad).subspan(offset),
                         lr, cfg);
            for (std::size_t i = 0; i < offset + n; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(g[i]),
                          std::bit_cast<std::uint32_t>(want_g[i]))
                    << "g word " << i << " of n=" << n
                    << " offset=" << offset;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(theta[i]),
                          std::bit_cast<std::uint32_t>(want_theta[i]))
                    << "theta word " << i << " of n=" << n
                    << " offset=" << offset;
            }
        }
    }
}
