#include "sched/mem_estimate.h"

#include <cctype>
#include <cstring>

#include "ir/function.h"
#include "support/logging.h"

namespace treegion::sched {

namespace {

/**
 * Linear model coefficients, fit over the SPEC proxy sweep's
 * (shape, measured peak) pairs printed by
 * bench/throughput_memsched.cc --calibrate, then rounded UP so the
 * projection sits ~1.09-1.36x above the measured whole-job peak for
 * every tree and tree-td calibration point (the golden corpus's
 * schemes; CI's memsched job checks that none falls below 1x) —
 * comfortably inside the 2x bound tests/mem_estimate_test.cc pins,
 * while never under-projecting. Bytes.
 */
constexpr double kBaseBytes = 32.0 * 1024.0;
constexpr double kPerOpBytes = 245.0;
constexpr double kPerOpWidthBytes = 20.0;
constexpr double kPerBlockBytes = 800.0;
constexpr double kPerEdgeBytes = 400.0;

/**
 * Hyperblock if-conversion is not a scaled copy of treegion
 * formation, so it gets its own fitted per-op coefficients instead
 * of a flat multiplier on the shared model (which over-projected up
 * to 1.75x). The --calibrate sweep shows hyper's peak tracking ops
 * nearly linearly at ~500-560 bytes/op at 4U; these round that up
 * so every calibration point lands at 1.1-1.32x, the band the tree
 * schemes sit in. One known exception stays out of the fit:
 * li's single huge if-convertible DAG takes its scheduling arena to
 * ~880 KiB, ~54x its shape twin's (ijpeg, at near-identical
 * op/block/edge counts), which no shape-count model can see. Its
 * --calibrate row does not show it: the warm thread's retained 1 MiB
 * arena block absorbs it. It remains documented rather than chased
 * with a factor that would over-reserve everything else.
 */
constexpr double kHyperPerOpBytes = 320.0;
constexpr double kHyperPerOpWidthBytes = 25.0;

/**
 * Peak-footprint multiplier per formation scheme, relative to plain
 * treegion formation. Tail-duplicating schemes clone blocks before
 * scheduling, so their transient CFG and DDG scale with the allowed
 * expansion; hyperblocks if-convert whole DAGs into one region, which
 * concentrates the DDG.
 */
double
schemeFactor(const PipelineOptions &options)
{
    switch (options.scheme) {
      case RegionScheme::BasicBlock: return 0.75;
      case RegionScheme::Slr: return 0.8;
      case RegionScheme::Superblock: return 1.3;
      case RegionScheme::Treegion: return 1.0;
      case RegionScheme::TreegionTailDup: {
          // Transient footprint tracks the allowed code expansion,
          // floored at the factor calibration measured for the
          // default limits.
          const double factor = 0.9 * options.tail_dup.expansion_limit;
          return factor > 1.8 ? factor : 1.8;
      }
      case RegionScheme::Hyperblock:
          // Hyper's slope lives in kHyperPerOpBytes (see above);
          // no extra multiplier on top of it.
          return 1.0;
    }
    TG_PANIC("bad RegionScheme");
}

} // namespace

MemShape
measureShape(const ir::Function &fn)
{
    MemShape shape;
    fn.forEachBlock([&](const ir::BasicBlock &block) {
        ++shape.blocks;
        shape.ops += block.ops().size();
        if (block.hasTerminator())
            shape.edges += block.successors().size();
    });
    return shape;
}

MemShape
estimateShapeFromText(const std::string &module_text)
{
    // One linear scan, no parsing: op lines are the indented lines
    // that are not block headers; "block" headers count blocks; each
    // entry of an "edges=[a,b,...]" list is one CFG edge.
    MemShape shape;
    const char *p = module_text.data();
    const char *end = p + module_text.size();
    while (p < end) {
        const char *eol = p;
        while (eol < end && *eol != '\n')
            ++eol;
        const char *s = p;
        while (s < eol && (*s == ' ' || *s == '\t'))
            ++s;
        const size_t len = static_cast<size_t>(eol - s);
        auto starts = [&](const char *kw, size_t n) {
            return len >= n && std::memcmp(s, kw, n) == 0;
        };
        if (starts("block", 5)) {
            ++shape.blocks;
            // edges=[10,1] -> one edge per element.
            for (const char *q = s; q + 7 < eol; ++q) {
                if (std::memcmp(q, "edges=[", 7) == 0) {
                    ++shape.edges;  // first element
                    for (const char *c = q + 7; c < eol && *c != ']';
                         ++c) {
                        if (*c == ',')
                            ++shape.edges;
                    }
                    break;
                }
            }
        } else if (len > 0 && !starts("module", 6) &&
                   !starts("func", 4) && *s != '}') {
            ++shape.ops;
            // Branch targets ("BRU bb4", every "N:bbM" arm of a
            // MWBR) are the CFG edges of terminator-style text. A
            // header edge list and a PBR operand both double-count
            // the same edge — over-approximation is the direction
            // admission wants.
            for (const char *q = s; q + 2 < eol; ++q) {
                if (q[0] == 'b' && q[1] == 'b' && q[2] >= '0' &&
                    q[2] <= '9' &&
                    (q == s ||
                     !std::isalnum(static_cast<unsigned char>(q[-1]))))
                    ++shape.edges;
            }
        }
        p = eol + 1;
    }
    return shape;
}

uint64_t
estimatePeakBytes(const MemShape &shape,
                  const PipelineOptions &options)
{
    const double width =
        static_cast<double>(options.model.issue_width);
    const bool hyper = options.scheme == RegionScheme::Hyperblock;
    const double per_op =
        hyper ? kHyperPerOpBytes + kHyperPerOpWidthBytes * width
              : kPerOpBytes + kPerOpWidthBytes * width;
    const double bytes =
        kBaseBytes + per_op * static_cast<double>(shape.ops) +
        kPerBlockBytes * static_cast<double>(shape.blocks) +
        kPerEdgeBytes * static_cast<double>(shape.edges);
    return static_cast<uint64_t>(bytes * schemeFactor(options));
}

uint64_t
estimateJobPeakBytes(const PipelineJob &job)
{
    TG_ASSERT(job.fn != nullptr);
    return estimatePeakBytes(measureShape(*job.fn), job.options);
}

} // namespace treegion::sched
