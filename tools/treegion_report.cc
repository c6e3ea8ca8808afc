/**
 * @file
 * treegion-report — render and compare the compiler's decisions.
 *
 * Three modes:
 *
 *  1. Timeline (default): compile a module (a .tir file, or the
 *     eight SPECint95 proxies with --proxies), print per-region
 *     cycle x slot schedule grids — home-block colored, speculated
 *     ops marked '*' — and optionally write the same view as a
 *     standalone HTML page (--html FILE) plus the collected decision
 *     remarks as JSON lines (--remarks FILE). A module that does not
 *     parse, is too small to profile or does not verify gets
 *     treegionc's message and exit 2.
 *
 *  2. --check FILE: validate a remarks JSONL file against the schema
 *     (support/remarks.h); exit 1 with "line N: why" on the first
 *     violation. This is the CI schema gate.
 *
 *  3. --diff A B: compare two remark streams decision by decision
 *     (per-function multiset difference of canonical lines) and
 *     print what diverged — e.g. heuristic gw vs h, or -j1 vs -j8.
 *
 *  4. --trace-merge F1 F2 ...: merge treegion-span/v1 JSONL files
 *     from clients and replicas (each party's --trace-spans output)
 *     into per-request trace trees. Replica clocks are aligned with
 *     the "clock-sync" spans the clients record (one NTP-style ping
 *     offset per member); the merged view prints each trace as an
 *     indented tree plus a per-request critical-path breakdown
 *     (network, queue-wait, mem-gate-park, cache-lookup, compile,
 *     response-write, other). `--chrome FILE` additionally writes
 *     one cross-replica Chrome trace (one pid per service);
 *     `--check` turns schema violations, unresolvable parents and
 *     compile calls without a server-side "request" child into a
 *     nonzero exit — the CI gate for end-to-end trace propagation.
 *
 * Usage:
 *   treegion-report [--scheme S] [--heuristic H] [--width N]
 *                   [--html FILE] [--remarks FILE] [--color]
 *                   <input.tir | --proxies>
 *   treegion-report --check remarks.jsonl
 *   treegion-report --diff a.jsonl b.jsonl [--limit N]
 *   treegion-report --trace-merge f1.jsonl f2.jsonl ...
 *                   [--check] [--chrome FILE] [--limit N]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "ir/parser.h"
#include "ir/verifier.h"
#include "sched/pipeline.h"
#include "support/remarks.h"
#include "support/spans.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"
#include "workloads/synthetic.h"

using namespace treegion;

namespace {

struct CliOptions
{
    std::string input;
    bool proxies = false;
    sched::PipelineOptions pipeline;
    std::string html_path;
    std::string remarks_path;
    bool force_color = false;
    std::string check_path;
    std::string diff_a, diff_b;
    size_t diff_limit = 50;
    bool trace_merge = false;
    std::vector<std::string> merge_paths;
    bool merge_check = false;      ///< --check in trace-merge mode
    std::string chrome_path;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] <input.tir | --proxies>\n"
                 "       %s --check remarks.jsonl\n"
                 "       %s --diff a.jsonl b.jsonl [--limit N]\n"
                 "       %s --trace-merge f1.jsonl f2.jsonl ...\n"
                 "          [--check] [--chrome FILE] [--limit N]\n"
                 "see the file header or README for options\n",
                 argv0, argv0, argv0, argv0);
    return 2;
}

bool
readLines(const std::string &path, std::vector<std::string> &out,
          std::string *error)
{
    std::ifstream file(path);
    if (!file) {
        *error = "cannot open " + path;
        return false;
    }
    std::string line;
    while (std::getline(file, line)) {
        if (!line.empty())
            out.push_back(line);
    }
    return true;
}

// ---- --check -------------------------------------------------------

int
runCheck(const std::string &path)
{
    std::vector<std::string> lines;
    std::string error;
    if (!readLines(path, lines, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    for (size_t i = 0; i < lines.size(); ++i) {
        support::Remark remark;
        if (!support::parseRemarkJson(lines[i], remark, &error)) {
            std::fprintf(stderr, "%s: line %zu: %s\n", path.c_str(),
                         i + 1, error.c_str());
            return 1;
        }
    }
    std::printf("%s: %zu remarks, all schema-valid\n", path.c_str(),
                lines.size());
    return 0;
}

// ---- --diff --------------------------------------------------------

/** Canonical (re-serialized) lines per function, in input order. */
std::map<std::string, std::vector<std::string>>
groupByFunction(const std::vector<std::string> &lines,
                const std::string &path, bool *ok)
{
    std::map<std::string, std::vector<std::string>> grouped;
    std::string error;
    for (size_t i = 0; i < lines.size(); ++i) {
        support::Remark remark;
        if (!support::parseRemarkJson(lines[i], remark, &error)) {
            std::fprintf(stderr, "%s: line %zu: %s\n", path.c_str(),
                         i + 1, error.c_str());
            *ok = false;
            return grouped;
        }
        grouped[remark.function].push_back(remark.toJson());
    }
    return grouped;
}

/** Multiset difference a - b, preserving a's order. */
std::vector<std::string>
multisetMinus(const std::vector<std::string> &a,
              const std::vector<std::string> &b)
{
    std::map<std::string, size_t> counts;
    for (const std::string &line : b)
        ++counts[line];
    std::vector<std::string> out;
    for (const std::string &line : a) {
        auto it = counts.find(line);
        if (it != counts.end() && it->second > 0)
            --it->second;
        else
            out.push_back(line);
    }
    return out;
}

int
runDiff(const CliOptions &cli)
{
    std::vector<std::string> lines_a, lines_b;
    std::string error;
    if (!readLines(cli.diff_a, lines_a, &error) ||
        !readLines(cli.diff_b, lines_b, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    bool ok = true;
    const auto by_fn_a = groupByFunction(lines_a, cli.diff_a, &ok);
    const auto by_fn_b = groupByFunction(lines_b, cli.diff_b, &ok);
    if (!ok)
        return 2;

    std::vector<std::string> functions;
    for (const auto &[fn, _] : by_fn_a)
        functions.push_back(fn);
    for (const auto &[fn, _] : by_fn_b) {
        if (!by_fn_a.count(fn))
            functions.push_back(fn);
    }

    static const std::vector<std::string> kEmpty;
    size_t diverging = 0, printed = 0;
    for (const std::string &fn : functions) {
        const auto it_a = by_fn_a.find(fn);
        const auto it_b = by_fn_b.find(fn);
        const auto &a = it_a == by_fn_a.end() ? kEmpty : it_a->second;
        const auto &b = it_b == by_fn_b.end() ? kEmpty : it_b->second;
        const auto only_a = multisetMinus(a, b);
        const auto only_b = multisetMinus(b, a);
        if (only_a.empty() && only_b.empty())
            continue;
        diverging += only_a.size() + only_b.size();
        std::printf("== %s (-%zu +%zu)\n", fn.c_str(), only_a.size(),
                    only_b.size());
        for (const auto &line : only_a) {
            if (printed++ < cli.diff_limit)
                std::printf("- %s\n", line.c_str());
        }
        for (const auto &line : only_b) {
            if (printed++ < cli.diff_limit)
                std::printf("+ %s\n", line.c_str());
        }
    }
    if (printed > cli.diff_limit) {
        std::printf("... %zu more (raise with --limit)\n",
                    printed - cli.diff_limit);
    }
    std::printf("%zu diverging decisions (%s: %zu remarks, %s: %zu "
                "remarks)\n",
                diverging, cli.diff_a.c_str(), lines_a.size(),
                cli.diff_b.c_str(), lines_b.size());
    return 0;
}

// ---- --trace-merge -------------------------------------------------

const support::SpanArg *
findArg(const support::TraceSpan &s, const char *key)
{
    for (const support::SpanArg &a : s.args) {
        if (a.key == key)
            return &a;
    }
    return nullptr;
}

std::string
argText(const support::SpanArg &a)
{
    switch (a.type) {
      case support::SpanArg::Type::Int:
        return support::strprintf("%lld",
                                  static_cast<long long>(a.i));
      case support::SpanArg::Type::Float:
        return support::strprintf("%g", a.f);
      case support::SpanArg::Type::Str:
        return a.s;
    }
    return "";
}

/** One trace's spans, indexed for tree walking. */
struct TraceTree
{
    std::vector<size_t> members;             ///< indices into spans
    std::map<uint64_t, size_t> by_id;        ///< span id -> index
    std::map<uint64_t, std::vector<size_t>> children;
    std::vector<size_t> roots;               ///< parent unresolvable
};

/** Sum of dur_us over every descendant of @p node named @p name. */
int64_t
subtreeDuration(const std::vector<support::TraceSpan> &spans,
                const TraceTree &tree, size_t node,
                const std::string &name)
{
    int64_t total = 0;
    const auto it = tree.children.find(spans[node].span);
    if (it == tree.children.end())
        return 0;
    for (const size_t child : it->second) {
        if (spans[child].name == name)
            total += spans[child].dur_us;
        total += subtreeDuration(spans, tree, child, name);
    }
    return total;
}

void
printSpanLine(const support::TraceSpan &s, int depth, int64_t origin_us)
{
    std::string args;
    for (const support::SpanArg &a : s.args)
        args += " " + a.key + "=" + argText(a);
    std::printf("  %*s%-16s %+9.3fms %9.3fms  svc=%s%s\n", depth * 2,
                "", s.name.c_str(),
                static_cast<double>(s.start_us - origin_us) / 1000.0,
                static_cast<double>(s.dur_us) / 1000.0,
                s.service.c_str(), args.c_str());
}

void
printTraceTree(const std::vector<support::TraceSpan> &spans,
               const TraceTree &tree, size_t node, int depth,
               int64_t origin_us)
{
    printSpanLine(spans[node], depth, origin_us);
    const auto it = tree.children.find(spans[node].span);
    if (it == tree.children.end())
        return;
    for (const size_t child : it->second)
        printTraceTree(spans, tree, child, depth + 1, origin_us);
}

/**
 * Where a compile request's wall time went, from the client's seat:
 * everything the server accounted for, itemized, plus "network" (the
 * client-observed call minus the server-side request and write
 * spans, i.e. transport + protocol framing on both ends) and
 * "other" (the server-side request minus its itemized children).
 * cache-lookup is shown but not subtracted — it already happens
 * inside "compile". "response-write" is a sibling interval after the
 * request span (worker hand-off to the event loop), so it is part of
 * what the client would otherwise blame on the network.
 */
void
printBreakdown(const std::vector<support::TraceSpan> &spans,
               const TraceTree &tree, size_t call, size_t request)
{
    const int64_t queue =
        subtreeDuration(spans, tree, request, "queue-wait");
    const int64_t park =
        subtreeDuration(spans, tree, request, "mem-gate-park");
    const int64_t lookup =
        subtreeDuration(spans, tree, request, "cache-lookup");
    const int64_t compile =
        subtreeDuration(spans, tree, request, "compile");
    const int64_t write =
        subtreeDuration(spans, tree, request, "response-write");
    // Both remainders are clamped at zero: response-write covers a
    // little server-side bookkeeping after the client already has the
    // bytes, so the subtraction can land a few microseconds negative
    // on a loopback socket. That is interval overlap, not time.
    const int64_t network = std::max<int64_t>(
        0, spans[call].dur_us - spans[request].dur_us - write);
    const int64_t other = std::max<int64_t>(
        0, spans[request].dur_us - queue - park - compile);
    std::printf("  critical path: network %.3fms | queue-wait %.3fms"
                " | mem-gate-park %.3fms | cache-lookup %.3fms"
                " | compile %.3fms | response-write %.3fms"
                " | other %.3fms\n",
                network / 1000.0, queue / 1000.0, park / 1000.0,
                lookup / 1000.0, compile / 1000.0, write / 1000.0,
                other / 1000.0);
}

int
runTraceMerge(const CliOptions &cli)
{
    if (cli.merge_paths.empty()) {
        std::fprintf(stderr, "--trace-merge needs span files\n");
        return 2;
    }
    std::vector<support::TraceSpan> spans;
    std::string error;
    for (const std::string &path : cli.merge_paths) {
        std::vector<std::string> lines;
        if (!readLines(path, lines, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        for (size_t i = 0; i < lines.size(); ++i) {
            support::TraceSpan s;
            if (!support::parseSpanJson(lines[i], s, &error)) {
                std::fprintf(stderr, "%s: line %zu: %s\n",
                             path.c_str(), i + 1, error.c_str());
                return 1;
            }
            spans.push_back(std::move(s));
        }
    }

    // Clock alignment: each client-recorded "clock-sync" span holds
    // one NTP-style estimate of (member clock - client clock) over a
    // ping round trip. Keep the tightest (smallest rtt) estimate per
    // member and shift that member's spans onto the client timeline.
    // The member address is the replica's --self-address, which is
    // also its span svc stamp, so the join key is the svc string.
    std::map<std::string, std::pair<int64_t, int64_t>> offsets;
    for (const support::TraceSpan &s : spans) {
        if (s.name != "clock-sync")
            continue;
        const support::SpanArg *member = findArg(s, "member");
        const support::SpanArg *offset = findArg(s, "offset_us");
        const support::SpanArg *rtt = findArg(s, "rtt_us");
        if (!member || !offset || !rtt)
            continue;
        const auto it = offsets.find(member->s);
        if (it == offsets.end() || rtt->i < it->second.second)
            offsets[member->s] = {offset->i, rtt->i};
    }
    for (support::TraceSpan &s : spans) {
        const auto it = offsets.find(s.service);
        if (it != offsets.end())
            s.start_us -= it->second.first;
    }

    // Group into traces and index each as a tree. Spans within one
    // parent are ordered by adjusted start time.
    std::map<std::string, TraceTree> traces;
    std::map<std::string, size_t> services;
    for (size_t i = 0; i < spans.size(); ++i) {
        traces[support::traceIdHex(spans[i].trace_hi,
                                   spans[i].trace_lo)]
            .members.push_back(i);
        ++services[spans[i].service];
    }
    size_t problems = 0;
    for (auto &[trace_id, tree] : traces) {
        for (const size_t i : tree.members) {
            if (!tree.by_id.emplace(spans[i].span, i).second) {
                std::fprintf(stderr,
                             "trace %s: duplicate span id %s\n",
                             trace_id.c_str(),
                             support::spanIdHex(spans[i].span)
                                 .c_str());
                ++problems;
            }
        }
        for (const size_t i : tree.members) {
            const uint64_t parent = spans[i].parent;
            if (parent == 0) {
                tree.roots.push_back(i);
            } else if (!tree.by_id.count(parent)) {
                std::fprintf(
                    stderr,
                    "trace %s: span %s (%s) has unresolved parent "
                    "%s\n",
                    trace_id.c_str(),
                    support::spanIdHex(spans[i].span).c_str(),
                    spans[i].name.c_str(),
                    support::spanIdHex(parent).c_str());
                ++problems;
                tree.roots.push_back(i);  // render it anyway
            } else {
                tree.children[parent].push_back(i);
            }
        }
        const auto by_start = [&](size_t a, size_t b) {
            return spans[a].start_us != spans[b].start_us
                       ? spans[a].start_us < spans[b].start_us
                       : spans[a].span < spans[b].span;
        };
        std::sort(tree.roots.begin(), tree.roots.end(), by_start);
        for (auto &[_, kids] : tree.children)
            std::sort(kids.begin(), kids.end(), by_start);
    }

    // Every ok compile call the client saw must have produced a
    // server-side "request" span in the merged set; a missing child
    // means a replica's spans were lost (or propagation broke).
    size_t compile_calls = 0;
    for (const auto &[trace_id, tree] : traces) {
        for (const size_t i : tree.members) {
            if (spans[i].name != "call")
                continue;
            const support::SpanArg *verb = findArg(spans[i], "verb");
            const support::SpanArg *status =
                findArg(spans[i], "status");
            if (!verb || verb->s != "compile" || !status ||
                status->s != "ok")
                continue;
            ++compile_calls;
            bool has_request = false;
            const auto it = tree.children.find(spans[i].span);
            if (it != tree.children.end()) {
                for (const size_t child : it->second)
                    has_request |= spans[child].name == "request";
            }
            if (!has_request) {
                std::fprintf(stderr,
                             "trace %s: compile call %s has no "
                             "server-side request span\n",
                             trace_id.c_str(),
                             support::spanIdHex(spans[i].span)
                                 .c_str());
                ++problems;
            }
        }
    }

    // Render: one tree per trace, client-initiated traces only
    // (pure clock-sync traces are calibration, not requests).
    size_t shown = 0, skipped = 0;
    for (const auto &[trace_id, tree] : traces) {
        const bool calibration =
            tree.members.size() == 1 &&
            spans[tree.members.front()].name == "clock-sync";
        if (calibration)
            continue;
        if (shown >= cli.diff_limit) {
            ++skipped;
            continue;
        }
        ++shown;
        int64_t origin_us = spans[tree.members.front()].start_us;
        for (const size_t i : tree.members)
            origin_us = std::min(origin_us, spans[i].start_us);
        std::printf("trace %s (%zu spans)\n", trace_id.c_str(),
                    tree.members.size());
        for (const size_t root : tree.roots)
            printTraceTree(spans, tree, root, 0, origin_us);
        for (const size_t i : tree.members) {
            if (spans[i].name != "call")
                continue;
            const auto it = tree.children.find(spans[i].span);
            if (it == tree.children.end())
                continue;
            for (const size_t child : it->second) {
                if (spans[child].name == "request")
                    printBreakdown(spans, tree, i, child);
            }
        }
    }
    if (skipped > 0)
        std::printf("... %zu more traces (raise with --limit)\n",
                    skipped);

    std::string svc_note;
    for (const auto &[svc, count] : services)
        svc_note += support::strprintf(" %s=%zu", svc.c_str(), count);
    std::printf("%zu spans, %zu traces, %zu compile calls, %zu clock "
                "offsets; spans per service:%s\n",
                spans.size(), traces.size(), compile_calls,
                offsets.size(), svc_note.c_str());

    if (!cli.chrome_path.empty()) {
        if (!support::writeChromeTraceFile(cli.chrome_path, spans)) {
            std::fprintf(stderr, "cannot write %s\n",
                         cli.chrome_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "Chrome trace written to %s\n",
                     cli.chrome_path.c_str());
    }
    if (cli.merge_check && problems > 0) {
        std::fprintf(stderr, "--check: %zu problems\n", problems);
        return 1;
    }
    if (cli.merge_check)
        std::printf("--check: all span trees complete\n");
    return 0;
}

// ---- timeline ------------------------------------------------------

/** One compiled function plus its decision remarks. */
struct ReportUnit
{
    std::string name;  ///< display name, e.g. "gcc/main"
    sched::ClonedPipelineRun run;
    support::RemarkStream remarks;  ///< stamped with the name
};

/** Qualitative palette shared by the ANSI and HTML renderings. */
const char *kHtmlColors[] = {"#cfe8ff", "#ffe3c2", "#d8f2d0",
                             "#f3d1f0", "#fff3b0", "#d9d7f1",
                             "#ffd4d4", "#ccf2f0"};
const int kAnsiColors[] = {36, 33, 32, 35, 93, 34, 31, 96};
constexpr size_t kNumColors =
    sizeof(kAnsiColors) / sizeof(kAnsiColors[0]);

std::string
cellText(const sched::ScheduledOp &sop)
{
    std::string text = (sop.speculative ? "*" : "") + sop.op.str();
    if (text.size() > 22)
        text = text.substr(0, 21) + "…";
    return text;
}

/** Region roots in deterministic (ascending id) order. */
std::vector<ir::BlockId>
sortedRoots(const sched::FunctionSchedule &schedule)
{
    std::vector<ir::BlockId> roots;
    for (const auto &[root, _] : schedule.regions)
        roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    return roots;
}

void
printAsciiTimeline(const ReportUnit &unit, int issue_width, bool color)
{
    const auto &schedule = unit.run.result.schedule;
    std::printf("=== %s: %zu regions, estimate %.0f cycles\n",
                unit.name.c_str(), schedule.regions.size(),
                unit.run.result.estimated_time);
    for (const ir::BlockId root : sortedRoots(schedule)) {
        const sched::RegionSchedule &rs = schedule.regions.at(root);
        std::printf("-- region bb%u (%d cycles, %zu ops, %zu exits)\n",
                    root, rs.length, rs.ops.size(), rs.exits.size());
        // Grid of cells, indexed [cycle][slot].
        std::vector<std::vector<const sched::ScheduledOp *>> grid(
            static_cast<size_t>(rs.length),
            std::vector<const sched::ScheduledOp *>(
                static_cast<size_t>(issue_width), nullptr));
        for (const sched::ScheduledOp &sop : rs.ops) {
            if (sop.cycle >= 0 && sop.cycle < rs.length &&
                sop.slot >= 0 && sop.slot < issue_width)
                grid[sop.cycle][sop.slot] = &sop;
        }
        for (int cyc = 0; cyc < rs.length; ++cyc) {
            std::printf("%4d: ", cyc);
            for (int slot = 0; slot < issue_width; ++slot) {
                const sched::ScheduledOp *sop = grid[cyc][slot];
                if (!sop) {
                    std::printf("| %-24s", "");
                    continue;
                }
                const std::string text = cellText(*sop);
                if (color) {
                    std::printf(
                        "| \x1b[%dm%-24s\x1b[0m",
                        kAnsiColors[sop->home % kNumColors],
                        text.c_str());
                } else {
                    std::printf("| %-24s", text.c_str());
                }
            }
            std::printf("|\n");
        }
    }
    if (unit.remarks.size() > 0) {
        std::map<std::string, size_t> by_kind;
        for (const support::Remark &r : unit.remarks.remarks())
            ++by_kind[support::remarkKindName(r.kind)];
        std::printf("remarks:");
        for (const auto &[kind, count] : by_kind)
            std::printf(" %s=%zu", kind.c_str(), count);
        std::printf("\n");
    }
}

std::string
htmlEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        switch (c) {
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '&': out += "&amp;"; break;
          default: out += c;
        }
    }
    return out;
}

void
writeHtmlTimeline(std::ostream &os,
                  const std::vector<ReportUnit> &units, int issue_width)
{
    os << "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
          "<title>treegion schedule report</title>\n<style>\n"
          "body { font-family: monospace; margin: 1.5em; }\n"
          "table { border-collapse: collapse; margin: 0.5em 0 1.5em; }\n"
          "td, th { border: 1px solid #999; padding: 2px 6px;"
          " white-space: nowrap; }\n"
          "td.spec { font-style: italic; border: 2px solid #c00; }\n"
          "td.empty { background: #f4f4f4; }\n"
          ".legend span { padding: 1px 8px; margin-right: 6px;"
          " border: 1px solid #999; }\n"
          "</style></head><body>\n"
          "<h1>treegion schedule report</h1>\n"
          "<p>Cells are colored by <b>home block</b>; a red-bordered "
          "italic cell is an op <b>speculated</b> above a branch of "
          "its home path.</p>\n";
    for (const ReportUnit &unit : units) {
        const auto &schedule = unit.run.result.schedule;
        os << "<h2>" << htmlEscape(unit.name) << "</h2>\n"
           << "<p>" << schedule.regions.size()
           << " regions, estimated "
           << support::strprintf(
                  "%.0f", unit.run.result.estimated_time)
           << " cycles</p>\n";
        for (const ir::BlockId root : sortedRoots(schedule)) {
            const sched::RegionSchedule &rs =
                schedule.regions.at(root);
            // Legend: home blocks in first-use order.
            std::vector<ir::BlockId> homes;
            for (const sched::ScheduledOp &sop : rs.ops) {
                if (std::find(homes.begin(), homes.end(), sop.home) ==
                    homes.end())
                    homes.push_back(sop.home);
            }
            os << "<h3>region bb" << root << " (" << rs.length
               << " cycles)</h3>\n<p class=\"legend\">";
            for (const ir::BlockId home : homes) {
                os << "<span style=\"background:"
                   << kHtmlColors[home % kNumColors] << "\">bb"
                   << home << "</span>";
            }
            os << "</p>\n<table>\n<tr><th>cycle</th>";
            for (int slot = 0; slot < issue_width; ++slot)
                os << "<th>slot " << slot << "</th>";
            os << "</tr>\n";
            std::vector<std::vector<const sched::ScheduledOp *>> grid(
                static_cast<size_t>(rs.length),
                std::vector<const sched::ScheduledOp *>(
                    static_cast<size_t>(issue_width), nullptr));
            for (const sched::ScheduledOp &sop : rs.ops) {
                if (sop.cycle >= 0 && sop.cycle < rs.length &&
                    sop.slot >= 0 && sop.slot < issue_width)
                    grid[sop.cycle][sop.slot] = &sop;
            }
            for (int cyc = 0; cyc < rs.length; ++cyc) {
                os << "<tr><th>" << cyc << "</th>";
                for (int slot = 0; slot < issue_width; ++slot) {
                    const sched::ScheduledOp *sop = grid[cyc][slot];
                    if (!sop) {
                        os << "<td class=\"empty\"></td>";
                        continue;
                    }
                    os << "<td"
                       << (sop->speculative ? " class=\"spec\"" : "")
                       << " style=\"background:"
                       << kHtmlColors[sop->home % kNumColors]
                       << "\" title=\"home bb" << sop->home << "\">"
                       << htmlEscape(sop->op.str()) << "</td>";
                }
                os << "</tr>\n";
            }
            os << "</table>\n";
        }
        if (unit.remarks.size() > 0) {
            std::map<std::string, size_t> by_kind;
            for (const support::Remark &r : unit.remarks.remarks())
                ++by_kind[support::remarkKindName(r.kind)];
            os << "<p>remarks:";
            for (const auto &[kind, count] : by_kind)
                os << " " << kind << "=" << count;
            os << "</p>\n";
        }
    }
    os << "</body></html>\n";
}

/**
 * The checks treegionc makes before it profiles and compiles @p mod,
 * with its messages: @return false when the module is too small to
 * profile or a function does not verify.
 */
bool
checkCompilable(ir::Module &mod)
{
    if (mod.memWords() < workloads::kMinInputMemWords) {
        std::fprintf(stderr,
                     "mem=%zu is too small to profile: it needs mem=%zu "
                     "or more\n",
                     mod.memWords(), workloads::kMinInputMemWords);
        return false;
    }
    for (const auto &fn : mod.functions()) {
        const auto problems =
            ir::verifyFunction(*fn, ir::VerifyLevel::Schedulable);
        for (const auto &p : problems)
            std::fprintf(stderr, "verifier: %s: %s\n",
                         fn->name().c_str(), p.c_str());
        if (!problems.empty())
            return false;
    }
    return true;
}

int
runTimeline(const CliOptions &cli)
{
    // Assemble the modules to compile: one parsed file, or the eight
    // SPEC proxies.
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
        modules;
    if (cli.proxies) {
        for (const auto &spec : workloads::specint95Proxies())
            modules.emplace_back(spec.name,
                                 workloads::buildProxy(spec));
    } else {
        std::ifstream file(cli.input);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         cli.input.c_str());
            return 2;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        std::string error;
        auto mod = ir::parseModule(buffer.str(), &error);
        if (!mod) {
            std::fprintf(stderr, "parse error: %s\n", error.c_str());
            return 2;
        }
        if (!checkCompilable(*mod))
            return 2;
        modules.emplace_back(mod->name(), std::move(mod));
    }

    std::vector<ReportUnit> units;
    std::string remarks_jsonl;
    for (auto &[mod_name, mod] : modules) {
        for (const auto &fn_ptr : mod->functions()) {
            ir::Function &fn = *fn_ptr;
            workloads::profileFunction(fn, mod->memWords());
            support::RemarkStream remarks;
            auto run = [&] {
                support::RemarkScope scope(&remarks);
                return sched::runPipelineOnClone(fn, cli.pipeline);
            }();
            ReportUnit unit{mod_name + "/" + fn.name(), std::move(run),
                            {}};
            // Proxy functions are all called "main": qualify the
            // remark function stamp with the module name so streams
            // from different proxies stay distinguishable in a diff.
            unit.remarks.setFunction(unit.name);
            for (support::Remark r : remarks.remarks()) {
                r.function = unit.name;
                unit.remarks.emit(std::move(r));
            }
            remarks_jsonl += unit.remarks.toJsonLines();
            units.push_back(std::move(unit));
        }
    }

    const int width = cli.pipeline.model.issue_width;
    const bool color = cli.force_color || isatty(STDOUT_FILENO);
    for (const ReportUnit &unit : units)
        printAsciiTimeline(unit, width, color);

    if (!cli.html_path.empty()) {
        std::ofstream out(cli.html_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         cli.html_path.c_str());
            return 1;
        }
        writeHtmlTimeline(out, units, width);
        std::fprintf(stderr, "HTML report written to %s\n",
                     cli.html_path.c_str());
    }
    if (!cli.remarks_path.empty()) {
        if (cli.remarks_path == "-") {
            std::fputs(remarks_jsonl.c_str(), stdout);
        } else {
            std::ofstream out(cli.remarks_path);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             cli.remarks_path.c_str());
                return 1;
            }
            out << remarks_jsonl;
            std::fprintf(stderr, "remarks written to %s\n",
                         cli.remarks_path.c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.pipeline.scheme = sched::RegionScheme::TreegionTailDup;
    cli.pipeline.model = sched::MachineModel::wide4U();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scheme") {
            if (!sched::parseRegionScheme(next(),
                                          cli.pipeline.scheme))
                return usage(argv[0]);
        } else if (arg == "--heuristic") {
            if (!sched::parseHeuristicName(
                    next(), cli.pipeline.sched.heuristic))
                return usage(argv[0]);
        } else if (arg == "--width") {
            cli.pipeline.model =
                sched::MachineModel::custom(std::atoi(next()));
        } else if (arg == "--proxies") {
            cli.proxies = true;
        } else if (arg == "--html") {
            cli.html_path = next();
        } else if (arg == "--remarks") {
            cli.remarks_path = next();
        } else if (arg == "--color") {
            cli.force_color = true;
        } else if (arg == "--check") {
            // In trace-merge mode --check is a flag (strictness
            // gate); elsewhere it takes the remarks file to check.
            if (cli.trace_merge)
                cli.merge_check = true;
            else
                cli.check_path = next();
        } else if (arg == "--trace-merge") {
            cli.trace_merge = true;
        } else if (arg == "--chrome") {
            cli.chrome_path = next();
        } else if (arg == "--diff") {
            cli.diff_a = next();
            cli.diff_b = next();
        } else if (arg == "--limit") {
            cli.diff_limit =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else if (cli.trace_merge) {
            cli.merge_paths.push_back(arg);
        } else if (cli.input.empty()) {
            cli.input = arg;
        } else {
            return usage(argv[0]);
        }
    }

    if (cli.trace_merge)
        return runTraceMerge(cli);
    if (!cli.check_path.empty())
        return runCheck(cli.check_path);
    if (!cli.diff_a.empty())
        return runDiff(cli);
    if (cli.input.empty() && !cli.proxies)
        return usage(argv[0]);
    return runTimeline(cli);
}
