/**
 * @file
 * Scheduling regions: single-entry trees of basic blocks.
 *
 * A Region is a tree-shaped subgraph of the CFG rooted at a single
 * entry block. Treegions are general trees; simple linear regions,
 * superblocks and single basic blocks are degenerate (unary) trees,
 * which lets one scheduler handle every region type the paper
 * compares.
 *
 * Within a region every non-root block has exactly one predecessor
 * (its tree parent), so a terminator target edge is internal exactly
 * when the target's tree parent is the branching block; every other
 * target edge (including branches back to the region's own root) is a
 * region exit.
 */

#ifndef TREEGION_REGION_REGION_H
#define TREEGION_REGION_REGION_H

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace treegion::region {

/** The kinds of regions the paper evaluates (plus its future work). */
enum class RegionKind {
    BasicBlock,  ///< one block per region
    Slr,         ///< simple linear region (no tail duplication)
    Superblock,  ///< profile-guided trace with tail duplication
    Treegion,    ///< decision-tree region
    Hyperblock,  ///< single-entry acyclic DAG with internal merges,
                 ///< if-converted via predication (the paper's planned
                 ///< comparison point)
};

/** @return human-readable name of @p kind. */
std::string regionKindName(RegionKind kind);

/** An exit edge of a region. */
struct RegionExit
{
    ir::BlockId from;      ///< region block the edge leaves
    size_t target_slot;    ///< index into the terminator's targets
    ir::BlockId target;    ///< destination block (kNoBlock for RET)
    bool is_ret;           ///< true when the "exit" is a RET
    double weight;         ///< profile weight of this exit edge
};

/** A single-entry tree-shaped scheduling region. */
class Region
{
  public:
    /** Construct a region of @p kind rooted at @p root. */
    Region(RegionKind kind, ir::BlockId root);

    /** @return the region kind. */
    RegionKind kind() const { return kind_; }

    /** @return the root block id. */
    ir::BlockId root() const { return root_; }

    /** @return member blocks in tree preorder (root first). */
    const std::vector<ir::BlockId> &blocks() const { return blocks_; }

    /** @return true when @p id is a member. */
    bool contains(ir::BlockId id) const;

    /** @return the tree parent of member @p id (kNoBlock for root). */
    ir::BlockId parentOf(ir::BlockId id) const;

    /** @return the tree children of member @p id, in preorder. */
    const std::vector<ir::BlockId> &childrenOf(ir::BlockId id) const;

    /**
     * Add @p id to the region as a child of @p parent (kNoBlock for
     * the root itself). Asserts tree shape.
     */
    void addBlock(ir::BlockId id, ir::BlockId parent);

    /**
     * Add @p id with several in-region predecessors (Hyperblock kind
     * only). @p parents must all be members; children lists gain
     * @p id under each parent, and parentOf reports the first.
     */
    void addBlockDag(ir::BlockId id,
                     const std::vector<ir::BlockId> &parents);

    /** @return number of member blocks. */
    size_t size() const { return blocks_.size(); }

    /** @return number of root-to-leaf paths (leaf count). */
    size_t pathCount() const;

    /**
     * Is the terminator target edge (@p from, @p slot) internal to
     * the region tree?
     */
    bool isInternalEdge(ir::Function &fn, ir::BlockId from,
                        size_t slot) const;

    /**
     * Enumerate every exit edge of the region, in block-preorder and
     * target-slot order. RET terminators produce a RegionExit with
     * is_ret = true.
     */
    std::vector<RegionExit> exits(ir::Function &fn) const;

    /**
     * External successor blocks ("saplings"): distinct targets of
     * exit edges, in discovery order, excluding RET pseudo-exits.
     */
    std::vector<ir::BlockId> saplings(ir::Function &fn) const;

    /** Total op count over member blocks. */
    size_t totalOps(const ir::Function &fn) const;

  private:
    RegionKind kind_;
    ir::BlockId root_;
    std::vector<ir::BlockId> blocks_;
    size_t leaves_ = 0;  ///< childless members (tree kinds)
    std::unordered_map<ir::BlockId, ir::BlockId> parent_;
    std::unordered_map<ir::BlockId, std::vector<ir::BlockId>> children_;
};

/** A partition of a function into regions. */
class RegionSet
{
  public:
    /** @return all regions, in formation order. */
    std::vector<Region> &regions() { return regions_; }
    const std::vector<Region> &regions() const { return regions_; }

    /** Append @p r and index its blocks. */
    void add(Region r);

    /** @return index of the region containing @p id, or npos. */
    size_t regionIndexOf(ir::BlockId id) const;

    /** @return true when @p id is in some region. */
    bool covered(ir::BlockId id) const;

    /** No-region sentinel for regionIndexOf. */
    static constexpr size_t npos = static_cast<size_t>(-1);

    /**
     * Check the partition invariant: every live block of @p fn is in
     * exactly one region, and each region is a well-formed tree
     * (non-root members have their tree parent as their only CFG
     * predecessor).
     *
     * @return problems found (empty when valid)
     */
    std::vector<std::string> validate(ir::Function &fn) const;

  private:
    std::vector<Region> regions_;
    std::unordered_map<ir::BlockId, size_t> block_to_region_;
};

} // namespace treegion::region

#endif // TREEGION_REGION_REGION_H
