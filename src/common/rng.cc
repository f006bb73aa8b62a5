#include "common/rng.hh"

namespace rho
{

// mt19937_64 seeding (std::mersenne_twister_engine::seed): word 0 is
// the seed, each later word f * (x ^ (x >> (w - 2))) + i with
// f 6364136223846793005 and w 64, so no mask is needed. The first draw
// twists the whole block.
Rng::Rng(std::uint64_t seed)
{
    constexpr std::uint64_t f = 6364136223846793005ULL;
    state[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
        state[i] = f * (state[i - 1] ^ (state[i - 1] >> 62)) + i;
}

// mt19937_64 block generation (std _M_gen_rand): n 312, m 156, r 31,
// a 0xb5026f5aa96619e9. One deliberate difference from the std code:
// the conditional xor of `a` is a mask (-(y & 1) is all-ones iff y is
// odd), not a branch — the low bit is random, so the std `?:` form
// mispredicts every other word of the 312-word block.
void
Rng::twist()
{
    constexpr std::size_t m = 156;
    constexpr std::uint64_t upper = ~std::uint64_t(0) << 31;
    constexpr std::uint64_t lower = ~upper;
    constexpr std::uint64_t a = 0xb5026f5aa96619e9ULL;

    for (std::size_t k = 0; k < kN - m; ++k) {
        std::uint64_t y = (state[k] & upper) | (state[k + 1] & lower);
        state[k] = state[k + m] ^ (y >> 1) ^ ((0 - (y & 1)) & a);
    }
    for (std::size_t k = kN - m; k < kN - 1; ++k) {
        std::uint64_t y = (state[k] & upper) | (state[k + 1] & lower);
        state[k] = state[k + (m - kN)] ^ (y >> 1) ^ ((0 - (y & 1)) & a);
    }
    std::uint64_t y = (state[kN - 1] & upper) | (state[0] & lower);
    state[kN - 1] = state[m - 1] ^ (y >> 1) ^ ((0 - (y & 1)) & a);

    // Tempering (std operator()'s u 29 / d, s 17 / b, t 37 / c, l 43),
    // done for the whole block here so a draw is a load.
    for (std::size_t k = 0; k < kN; ++k) {
        std::uint64_t z = state[k];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        out[k] = z;
    }
    idx = 0;
}

Rng::Coin::Coin(double p)
{
    if (p <= 0.0 || p >= 1.0) {
        draws = false;
        heads = p >= 1.0;
        return;
    }
    if (std::isnan(p))
        return; // chance(NaN) draws and is false: below stays 0
    // canonical(0) is 0 < p, and canonical(2^64 - 1) is nextafter(1, 0)
    // >= p for every p < 1, so the least x with canonical(x) >= p lies
    // in (lo, hi].
    std::uint64_t lo = 0, hi = ~std::uint64_t(0);
    while (hi - lo > 1) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (canonical(mid) >= p)
            hi = mid;
        else
            lo = mid;
    }
    below = hi;
}

} // namespace rho
