/**
 * @file
 * The one deterministic byte-mutation sweep the decoder tests share:
 * every byte of a clean encoding XORed with each of four masks (the
 * low bit, a middle bit, the ASCII case bit, all bits), and every
 * proper prefix. It needs no fuzzing engine, and every mutant is
 * named, so a failure reproduces from its message alone. The check
 * decides what "survives" means for its decoder; typically nothing
 * may throw out of the decoder except its documented error, and
 * whatever it accepts must re-encode and decode back.
 */

#ifndef NUCA_TESTS_SUPPORT_MUTATION_HH
#define NUCA_TESTS_SUPPORT_MUTATION_HH

#include <cstddef>
#include <string>

namespace nuca {

/**
 * Call @p check(mutant, what) for each of the four flips of byte
 * @p i of @p clean (a std::string or a byte vector).
 */
template <typename Bytes, typename Check>
void
forEachFlipAt(const Bytes &clean, std::size_t i, Check &&check)
{
    for (const unsigned char mask : {0x01, 0x04, 0x20, 0xff}) {
        Bytes mutant = clean;
        mutant[i] = static_cast<typename Bytes::value_type>(
            static_cast<unsigned char>(mutant[i]) ^ mask);
        check(mutant, "byte " + std::to_string(i) + " ^ " +
                          std::to_string(mask));
    }
}

/**
 * Call @p check(mutant, what) for every single-byte flip and every
 * truncation of @p clean; @p what names the mutation ("byte 17 ^ 32",
 * "truncated at 40").
 */
template <typename Check>
void
forEachMutation(const std::string &clean, Check &&check)
{
    for (std::size_t i = 0; i < clean.size(); ++i) {
        forEachFlipAt(clean, i, check);
        check(clean.substr(0, i), "truncated at " + std::to_string(i));
    }
}

} // namespace nuca

#endif // NUCA_TESTS_SUPPORT_MUTATION_HH
