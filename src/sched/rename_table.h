/**
 * @file
 * Dense per-class register rename table with an undo journal.
 *
 * Semantically a map<Reg, Reg> copied by value at every point where
 * lowering paths diverge (sibling subtrees of a treegion, the
 * internal edges of a hyperblock DAG). Copying a hash map per
 * divergence is O(accumulated renames) of allocation and hashing per
 * copy; this table instead keeps ONE dense array per register class,
 * shared by the whole walk, plus an undo journal: take mark() before
 * entering a diverging path, rollback() after, and the table is
 * exactly what a by-value copy would have given the sibling
 * (DESIGN.md §11; ROADMAP item 3's follow-on ported the hyperblock
 * lowering here too).
 *
 * Storage is per thread and outlives the table: the slot arrays grow
 * to the largest original register index ever renamed on the thread
 * and are reused by every later region, so a region's cost follows
 * its own renames, not the function's register count. The destructor
 * rolls the journal back to empty, which leaves every slot absent for
 * the next table. One table may be live per thread at a time (it is
 * not re-entrant; the constructor asserts). trimThreadStorage()
 * returns the memory, next to the scheduling arena's trim.
 *
 * Iteration (forEachPresent) is in key insertion order — a property
 * the hyperblock merge relies on for deterministic, platform-
 * independent output where the old unordered containers were not.
 */

#ifndef TREEGION_SCHED_RENAME_TABLE_H
#define TREEGION_SCHED_RENAME_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/operand.h"
#include "support/logging.h"

namespace treegion::sched {

/** Journaled dense Reg -> Reg map; see the file header. */
class RenameTable
{
  public:
    RenameTable() : s_(threadStorage())
    {
        TG_ASSERT(!s_.in_use && "RenameTable is not re-entrant");
        s_.in_use = true;
    }

    ~RenameTable()
    {
        rollback(0);
        s_.in_use = false;
    }

    RenameTable(const RenameTable &) = delete;
    RenameTable &operator=(const RenameTable &) = delete;

    /** @return the current renaming of @p orig, or nullptr. */
    const ir::Reg *
    find(ir::Reg orig) const
    {
        const auto &slots = s_.slots[slotClass(orig.cls)];
        if (orig.idx >= slots.size() || !slots[orig.idx].present)
            return nullptr;
        return &slots[orig.idx].val;
    }

    /** Map @p orig to @p renamed (journaled). */
    void
    set(ir::Reg orig, ir::Reg renamed)
    {
        auto &slots = s_.slots[slotClass(orig.cls)];
        if (orig.idx >= slots.size())
            slots.resize(orig.idx + 1);
        Entry &entry = slots[orig.idx];
        s_.journal.push_back({orig, entry.val, entry.present != 0});
        if (!entry.present)
            s_.keys.push_back(orig);
        entry.val = renamed;
        entry.present = 1;
    }

    /** Undo point for rollback(). */
    size_t mark() const { return s_.journal.size(); }

    /** Restore the table to the state at @p mark. */
    void
    rollback(size_t mark)
    {
        while (s_.journal.size() > mark) {
            const Undo &undo = s_.journal.back();
            Entry &entry =
                s_.slots[slotClass(undo.orig.cls)][undo.orig.idx];
            if (undo.was_present) {
                entry.val = undo.prev;
            } else {
                entry.present = 0;
                TG_ASSERT(!s_.keys.empty() && s_.keys.back() == undo.orig);
                s_.keys.pop_back();
            }
            s_.journal.pop_back();
        }
    }

    /** Visit every present (orig, renamed) pair, insertion order. */
    template <typename F>
    void
    forEachPresent(F &&f) const
    {
        for (const ir::Reg orig : s_.keys) {
            const auto &slots = s_.slots[slotClass(orig.cls)];
            f(orig, slots[orig.idx].val);
        }
    }

    /**
     * Return this thread's slot storage to the heap. No table may be
     * live on the thread.
     */
    static void
    trimThreadStorage()
    {
        Storage &s = threadStorage();
        TG_ASSERT(!s.in_use);
        s = Storage{};
    }

  private:
    struct Entry
    {
        ir::Reg val{};
        uint8_t present = 0;
    };
    struct Undo
    {
        ir::Reg orig;
        ir::Reg prev;
        bool was_present;
    };
    /** Per-thread backing store; empty whenever no table is live. */
    struct Storage
    {
        std::vector<Entry> slots[3];
        std::vector<ir::Reg> keys;  ///< present keys, oldest first
        std::vector<Undo> journal;
        bool in_use = false;
    };

    static Storage &
    threadStorage()
    {
        static thread_local Storage storage;
        return storage;
    }

    static size_t
    slotClass(ir::RegClass cls)
    {
        return static_cast<size_t>(cls);
    }

    Storage &s_;
};

} // namespace treegion::sched

#endif // TREEGION_SCHED_RENAME_TABLE_H
