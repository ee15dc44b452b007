/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * xoshiro256** core generator plus the distribution helpers the trace
 * generators need (uniform, zipf, geometric-ish burst lengths). Every
 * thread of every workload owns an independent Rng seeded from the
 * workload seed and thread id, so runs are reproducible regardless of
 * event interleaving.
 */

#ifndef SKYBYTE_COMMON_RNG_H
#define SKYBYTE_COMMON_RNG_H

#include <cmath>
#include <cstdint>
#include <vector>

namespace skybyte {

/** splitmix64's finalizer: a fixed, platform-independent 64-bit mix. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** pseudo-random generator (public-domain algorithm by
 * Blackman & Vigna), seeded via splitmix64.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedba5eULL) { reseed(seed); }

    /** Re-initialise the state from @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, n). @p n must be nonzero. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Multiply-shift range reduction; bias is negligible for our use.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
};

/**
 * Zipfian sampler over [0, n) using Gray/Jain rejection-inversion-free
 * approximation: cheap per-sample cost, accurate enough for locality
 * shaping (the same approach YCSB's generator takes).
 */
class ZipfSampler
{
  public:
    /**
     * @param n     population size
     * @param theta skew in (0,1); YCSB default is 0.99
     */
    ZipfSampler(std::uint64_t n, double theta)
        : n_(n), theta_(theta)
    {
        zetan_ = zeta(n_, theta_);
        zeta2_ = zeta(2, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_))
               / (1.0 - zeta2_ / zetan_);
    }

    /** Draw one zipf-distributed rank in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const double frac =
            std::pow(eta_ * u - eta_ + 1.0, alpha_);
        auto rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) * frac);
        return rank >= n_ ? n_ - 1 : rank;
    }

    std::uint64_t population() const { return n_; }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        // Direct sum for small n, integral approximation for large n.
        if (n <= 10000) {
            double sum = 0.0;
            for (std::uint64_t i = 1; i <= n; ++i)
                sum += std::pow(1.0 / static_cast<double>(i), theta);
            return sum;
        }
        const double head = zeta(10000, theta);
        // integral of x^-theta from 10000 to n
        const double tail =
            (std::pow(static_cast<double>(n), 1.0 - theta)
             - std::pow(10000.0, 1.0 - theta)) / (1.0 - theta);
        return head + tail;
    }

    std::uint64_t n_;
    double theta_;
    double zetan_;
    double zeta2_;
    double alpha_;
    double eta_;
};

} // namespace skybyte

#endif // SKYBYTE_COMMON_RNG_H
