/**
 * @file
 * Flow-conservation oracle for the profile weights on BasicBlock
 * (a block weight plus one weight per successor edge). The profiler
 * fills them and tail duplication splits them; both must conserve
 * flow. No library code needs the check, so it lives with the tests.
 */

#ifndef TREEGION_TESTS_PROFILE_ORACLE_H
#define TREEGION_TESTS_PROFILE_ORACLE_H

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ir/function.h"
#include "support/string_utils.h"

namespace tg_test {

/**
 * Check flow conservation: each block's edge weights sum to its
 * weight, and (except for the entry) incoming edge weight equals the
 * block weight, within @p tolerance.
 *
 * @return problems found (empty when consistent)
 */
inline std::vector<std::string>
checkProfileConsistency(const treegion::ir::Function &fn,
                        double tolerance = 1e-6)
{
    using treegion::ir::BasicBlock;
    using treegion::support::strprintf;
    std::vector<std::string> problems;

    // Outgoing flow: edge weights sum to the block weight (RET blocks
    // have no outgoing edges).
    fn.forEachBlock([&](const BasicBlock &b) {
        if (b.edgeWeights().empty())
            return;
        double out = 0.0;
        for (double w : b.edgeWeights())
            out += w;
        if (std::abs(out - b.weight()) >
            tolerance * std::max(1.0, b.weight())) {
            problems.push_back(strprintf(
                "bb%u: outgoing edge weight %.6g != block weight %.6g",
                b.id(), out, b.weight()));
        }
    });

    // Incoming flow: sum of incoming edge weights equals the block
    // weight (entry gets one free unit of inflow per program run, so
    // it is exempt).
    std::vector<double> inflow(fn.numBlockIds(), 0.0);
    fn.forEachBlock([&](const BasicBlock &b) {
        const auto &succs = b.successors();
        for (size_t i = 0; i < succs.size() &&
                           i < b.edgeWeights().size(); ++i) {
            if (succs[i] != treegion::ir::kNoBlock)
                inflow[succs[i]] += b.edgeWeights()[i];
        }
    });
    fn.forEachBlock([&](const BasicBlock &b) {
        if (b.id() == fn.entry())
            return;
        const double in = inflow[b.id()];
        if (std::abs(in - b.weight()) >
            tolerance * std::max(1.0, b.weight())) {
            problems.push_back(strprintf(
                "bb%u: incoming edge weight %.6g != block weight %.6g",
                b.id(), in, b.weight()));
        }
    });
    return problems;
}

/** @return the profile-weighted op count of @p fn. */
inline double
weightedOpCount(const treegion::ir::Function &fn)
{
    double total = 0.0;
    fn.forEachBlock([&](const treegion::ir::BasicBlock &b) {
        total += b.weight() * static_cast<double>(b.ops().size());
    });
    return total;
}

} // namespace tg_test

#endif // TREEGION_TESTS_PROFILE_ORACLE_H
