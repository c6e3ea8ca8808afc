/**
 * @file
 * IR well-formedness checking.
 *
 * Two levels: structural (CFG and op-shape invariants that must hold
 * for any function) and schedulable (the stricter preconditions the
 * region schedulers assume about sequential input IR, e.g. predicates
 * defined by a single CMPP feeding only the block's own terminator).
 */

#ifndef TREEGION_IR_VERIFIER_H
#define TREEGION_IR_VERIFIER_H

#include <string>
#include <vector>

#include "ir/function.h"

namespace treegion::ir {

/** Verification strictness. */
enum class VerifyLevel {
    Structural,   ///< CFG + op-shape invariants only
    Schedulable,  ///< also the region schedulers' input preconditions
};

/**
 * Verify @p fn.
 *
 * @param fn the function (preds may be rebuilt)
 * @param level strictness
 * @return list of human-readable problems; empty when valid
 */
std::vector<std::string> verifyFunction(Function &fn, VerifyLevel level);

} // namespace treegion::ir

#endif // TREEGION_IR_VERIFIER_H
