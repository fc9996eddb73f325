/**
 * @file
 * The reference loop behind the benchmark's "ref" unit
 * (referenceSeconds in bench.hh). CMakeLists.txt builds this file on
 * its own, without link-time optimization and with every function
 * aligned to 64 bytes: the loop's code and its alignment must not
 * change when the simulator it is linked with does, or the unit would.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hh"

namespace nbench {

namespace {

/**
 * Passes over each table. The branch part takes about two thirds of
 * the loop's time and the memory part a third: with that mix the
 * loop slowed down with the simulator on every workload on the
 * defining host, where either part alone tracked some workloads
 * worse.
 */
constexpr int kBranchPasses = 70;
constexpr int kMemoryPasses = 20;

/** Filled with its own xorshift, not the simulator's Rng, so the
 *  tables never change with the simulator. */
struct Tables
{
    /** Stays in the L1 data cache; its bytes decide branches. */
    alignas(64) std::array<std::uint8_t, 16384> branch;
    /** Larger than a core's own caches: one load per line, in an
     *  order that defeats the prefetchers. */
    alignas(64) std::array<std::uint8_t, 4u << 20> memory;

    Tables()
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        const auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return static_cast<std::uint8_t>(x);
        };
        for (auto &byte : branch)
            byte = next();
        for (auto &byte : memory)
            byte = next();
    }
};

const Tables &
tables()
{
    static const Tables tables;
    return tables;
}

std::atomic<std::uint64_t> referenceSink;

double
referenceLoop(const Tables &t)
{
    const auto t0 = Clock::now();
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    for (int pass = 0; pass < kBranchPasses; ++pass) {
        for (std::size_t i = 0; i < t.branch.size(); ++i) {
            const std::uint8_t v = t.branch[i];
            if (v < 128)
                a += v;
            else
                b ^= v;
            if (v & 4)
                c += i;
            else
                d += a;
        }
    }
    // Multiplying by an odd constant permutes the line numbers.
    constexpr std::size_t lines = std::tuple_size_v<decltype(t.memory)> / 64;
    for (int pass = 0; pass < kMemoryPasses; ++pass) {
        for (std::size_t i = 0; i < lines; ++i)
            a += t.memory[((i * 2654435761u) & (lines - 1)) * 64];
    }
    referenceSink.store(a + b + c + d, std::memory_order_relaxed);
    return secondsSince(t0);
}

} // namespace

double
referenceSeconds(unsigned threads)
{
    const Tables &t = tables();
    std::vector<double> seconds(std::max(1u, threads));
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < seconds.size(); ++i)
        others.emplace_back([&, i] { seconds[i] = referenceLoop(t); });
    seconds[0] = referenceLoop(t);
    for (auto &thread : others)
        thread.join();
    return mean(seconds);
}

} // namespace nbench
