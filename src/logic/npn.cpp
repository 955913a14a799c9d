#include "logic/npn.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace bestagon::logic
{

namespace
{

/// Minterms of a 4-variable table whose variable \p v is 0.
constexpr std::array<std::uint32_t, 4> var_zero_mask{0x5555U, 0x3333U, 0x0F0FU, 0x00FFU};

/// t with variable \p v complemented: result(x) = t(x ^ 2^v).
constexpr std::uint32_t flip_var(std::uint32_t t, unsigned v)
{
    const unsigned shift = 1U << v;
    const auto m = var_zero_mask[v];
    return ((t >> shift) & m) | ((t & m) << shift);
}

/// t with variables \p a < \p b exchanged (a delta swap of the minterms with
/// x_a = 1, x_b = 0 and their partners with x_a = 0, x_b = 1).
constexpr std::uint32_t swap_vars(std::uint32_t t, unsigned a, unsigned b)
{
    const unsigned shift = (1U << b) - (1U << a);
    const auto m = ~var_zero_mask[a] & var_zero_mask[b] & 0xFFFFU;
    return (t & ~(m | (m << shift))) | ((t & m) << shift) | ((t >> shift) & m);
}

}  // namespace

TruthTable apply_npn_transform(const TruthTable& g, const NpnTransform& t)
{
    const unsigned n = g.num_vars();
    assert(t.perm.size() == n);
    TruthTable f{n};
    for (std::uint64_t x = 0; x < f.num_bits(); ++x)
    {
        // y_i = x_{perm[i]} ^ flip_i
        std::uint64_t y = 0;
        for (unsigned i = 0; i < n; ++i)
        {
            const bool xi = ((x >> t.perm[i]) & 1ULL) != 0;
            const bool flip = ((t.input_flips >> i) & 1U) != 0;
            if (xi != flip)
            {
                y |= 1ULL << i;
            }
        }
        f.set_bit(x, g.get_bit(y) != t.output_negated);
    }
    return f;
}

NpnCanonization canonize_npn(const TruthTable& f)
{
    const unsigned n = f.num_vars();
    if (n > 4)
    {
        throw std::invalid_argument{"canonize_npn: supports at most 4 variables"};
    }
    // the whole table fits one word; TruthTable::compare on it is plain <
    const std::uint32_t all = (1U << (1U << n)) - 1U;
    const auto bits = static_cast<std::uint32_t>(f.words()[0]);

    std::array<unsigned, 4> perm{0, 1, 2, 3};
    std::uint32_t best = bits;
    std::array<unsigned, 4> best_perm = perm;
    unsigned best_flips = 0;
    bool best_out = false;

    // candidate = transform(f) over (perm, flips, out) in the order
    // next_permutation x flips x output; the first strict minimum wins
    do
    {
        // permuted(x) = f(y) with y_i = x_{perm[i]}: reach perm from the
        // identity by exchanging variable values, one swap per position
        std::array<unsigned, 4> q{0, 1, 2, 3};
        std::uint32_t permuted = bits;
        for (unsigned i = 0; i < n; ++i)
        {
            if (q[i] != perm[i])
            {
                // exchanging variables a and b exchanges the values a and b in q
                const unsigned a = q[i];
                const unsigned b = perm[i];
                permuted = swap_vars(permuted, std::min(a, b), std::max(a, b));
                *std::find(q.begin() + i + 1, q.begin() + n, b) = a;
                q[i] = b;
            }
        }
        for (unsigned flips = 0; flips < (1U << n); ++flips)
        {
            // y_i = x_{perm[i]} ^ flip_i complements variable perm[i]
            std::uint32_t flipped = permuted;
            for (unsigned i = 0; i < n; ++i)
            {
                if ((flips >> i) & 1U)
                {
                    flipped = flip_var(flipped, perm[i]);
                }
            }
            for (unsigned out = 0; out < 2; ++out)
            {
                const std::uint32_t candidate = out != 0 ? (flipped ^ all) : flipped;
                if (candidate < best)
                {
                    best = candidate;
                    best_perm = perm;
                    best_flips = flips;
                    best_out = out != 0;
                }
            }
        }
    } while (std::next_permutation(perm.begin(), perm.begin() + n));

    TruthTable canonical{n};
    for (std::uint64_t x = 0; x < canonical.num_bits(); ++x)
    {
        canonical.set_bit(x, ((best >> x) & 1U) != 0);
    }

    // We found T with best = T(f); we must return T' with f = T'(best).
    // For candidate(x) = f(y) ^ o with y_i = x_{perm[i]} ^ flip_i, the inverse
    // transform T' has perm'[perm[i]] = i, flip'_{perm[i]} = flip_i, out' = o.
    NpnTransform inverse;
    inverse.perm.resize(n);
    for (unsigned i = 0; i < n; ++i)
    {
        inverse.perm[best_perm[i]] = i;
        if ((best_flips >> i) & 1U)
        {
            inverse.input_flips |= 1U << best_perm[i];
        }
    }
    inverse.output_negated = best_out;
    return NpnCanonization{std::move(canonical), std::move(inverse)};
}

}  // namespace bestagon::logic
