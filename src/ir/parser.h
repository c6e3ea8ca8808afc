/**
 * @file
 * Parser for the textual IR format produced by printer.h.
 */

#ifndef TREEGION_IR_PARSER_H
#define TREEGION_IR_PARSER_H

#include <memory>
#include <string>
#include <string_view>

#include "ir/module.h"

namespace treegion::ir {

/**
 * Every block id in the text (headers, branch targets, entry=) must
 * be below this, and so must the sum over a module's functions of
 * (largest id + 1). Ids index dense per-function tables, so the
 * parser creates a block for every id below the largest one it
 * meets; the bound keeps one request from asking for gigabytes. It
 * is 16x the workload generator's 4,000-block soft cap.
 */
inline constexpr BlockId kMaxBlockIds = 1u << 16;

/**
 * Parse a textual module.
 *
 * @param text module source
 * @param error set to a line-numbered message on failure
 * @return the parsed module, or nullptr on error
 */
std::unique_ptr<Module> parseModule(std::string_view text,
                                    std::string *error);

} // namespace treegion::ir

#endif // TREEGION_IR_PARSER_H
