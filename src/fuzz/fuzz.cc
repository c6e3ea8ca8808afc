#include "fuzz/fuzz.h"

#include <cmath>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "ooo/ooo_sim.h"
#include "sched/schedule_verifier.h"
#include "support/string_utils.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::fuzz {

using support::splitString;
using support::startsWith;
using support::strprintf;

namespace {

bool
parseField(const std::string &field, const char *key, std::string &value)
{
    const std::string prefix = std::string(key) + "=";
    if (!startsWith(field, prefix))
        return false;
    value = field.substr(prefix.size());
    return true;
}

/** First line of @p text, truncated for report readability. */
std::string
firstLine(const std::string &text, size_t max_len = 200)
{
    std::string line = text.substr(0, text.find('\n'));
    if (line.size() > max_len)
        line = line.substr(0, max_len) + "...";
    return line;
}

/** Relative-tolerance comparison for profile-weight arithmetic. */
bool
closeEnough(double a, double b)
{
    return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a),
                                                std::fabs(b)});
}

OracleFailure
checkCostModel(const sched::PipelineResult &res,
               const ir::Function &transformed)
{
    OracleFailure fail;
    auto err = [&](std::string detail) {
        if (!fail) {
            fail.oracle = "cost-model";
            fail.detail = std::move(detail);
        }
    };
    double total_estimate = 0.0;
    for (const auto &[root, rs] : res.schedule.regions) {
        double exit_weight = 0.0;
        for (const sched::ScheduledExit &exit : rs.exits) {
            if (exit.weight < 0.0)
                err(strprintf("region bb%u: negative exit weight %g",
                              root, exit.weight));
            exit_weight += exit.weight;
        }
        const double root_weight = transformed.block(root).weight();
        if (!closeEnough(exit_weight, root_weight)) {
            err(strprintf("region bb%u: exit weights sum to %g but "
                          "the root block's weight is %g",
                          root, exit_weight, root_weight));
        }
        const double estimate = sched::estimateRegionTime(rs);
        total_estimate += estimate;
        if (exit_weight <= 0.0) {
            if (estimate != 0.0)
                err(strprintf("region bb%u: never executed but "
                              "estimate is %g", root, estimate));
            continue;
        }
        if (estimate + 1e-9 < exit_weight ||
            estimate > exit_weight * rs.length + 1e-9) {
            err(strprintf("region bb%u: estimate %g outside "
                          "[W, W*length] = [%g, %g]",
                          root, estimate, exit_weight,
                          exit_weight * rs.length));
        }
    }
    if (!closeEnough(total_estimate, res.estimated_time)) {
        err(strprintf("pipeline estimated_time %g != sum of region "
                      "estimates %g", res.estimated_time,
                      total_estimate));
    }
    if (res.code_expansion < 1.0 - 1e-9) {
        err(strprintf("code expansion %g < 1", res.code_expansion));
    }
    return fail;
}

/**
 * Fifth oracle: the out-of-order backend must produce the in-order
 * VLIW simulator's architectural outcome @p v for every named OoO
 * configuration (vliw::backendMismatch).
 */
OracleFailure
checkBackendAgreement(ir::Function &transformed,
                      const sched::FunctionSchedule &schedule,
                      const std::vector<int64_t> &memory,
                      const vliw::VliwResult &v, int input)
{
    for (const ooo::OooConfig &config : ooo::oooConfigs()) {
        const ooo::OooResult o =
            ooo::runOutOfOrder(transformed, schedule, memory, config);
        const std::string mismatch = vliw::backendMismatch(o.arch, v);
        if (!mismatch.empty()) {
            return {"ooo-equivalence",
                    strprintf("input %d, %s: %s", input,
                              config.name.c_str(), mismatch.c_str())};
        }
    }
    return {};
}

} // namespace

OracleFailure
checkCell(const ir::Function &fn, size_t mem_words,
          const sched::PipelineOptions &options, const OracleOptions &opts,
          double *estimated_time)
{
    // Profile a private clone; the profile drives region formation
    // and is what the cost-model oracle checks conservation against.
    ir::Function profiled = fn.clone();
    workloads::ProfileOptions prof;
    prof.input_seed = opts.input_seed;
    prof.runs = opts.profile_runs;
    prof.data_max = opts.data_max;
    workloads::profileFunction(profiled, mem_words, prof);

    // Compile on a second, private clone (tail-duplicating schemes
    // mutate the function they compile).
    sched::ClonedPipelineRun run =
        sched::runPipelineOnClone(profiled, options);
    ir::Function &transformed = run.fn;
    sched::PipelineResult &res = run.result;
    if (estimated_time)
        *estimated_time = res.estimated_time;

    if (opts.tamper == 1) {
        // Fault injection: corrupt one exit record's cycle. The
        // legality oracle must catch this on any program whose
        // schedule has at least one exit.
        for (auto &[root, rs] : res.schedule.regions) {
            if (!rs.exits.empty()) {
                rs.exits.back().cycle += 1;
                break;
            }
        }
    }

    // Oracle: IR verifier on the transformed sequential function.
    {
        const auto problems =
            ir::verifyFunction(transformed, ir::VerifyLevel::Structural);
        if (!problems.empty())
            return {"ir-verify", firstLine(problems.front())};
    }

    // Oracle: schedule legality.
    {
        const auto problems = sched::verifyFunctionSchedule(
            res.schedule, options.model.issue_width);
        if (!problems.empty())
            return {"legality", firstLine(problems.front())};
    }

    // Oracle: cost-model sanity.
    if (OracleFailure fail = checkCostModel(res, transformed))
        return fail;

    // Oracle: simulator equivalence on a family of input images.
    for (int i = 0; i < opts.equivalence_inputs; ++i) {
        const std::vector<int64_t> memory = workloads::makeInputMemory(
            mem_words, opts.input_seed + static_cast<uint64_t>(i),
            opts.data_max);
        vliw::EquivalenceReport report = vliw::checkEquivalence(
            profiled, transformed, res.schedule, memory);
        if (report.incomplete)
            continue;  // an execution limit was hit; nothing compared
        if (!report.ok) {
            return {"equivalence",
                    strprintf("input %d: %s", i,
                              firstLine(report.detail).c_str())};
        }
        // Oracle: dual-backend agreement (in-order VLIW vs the
        // out-of-order model, every named OoO configuration).
        if (OracleFailure fail = checkBackendAgreement(
                transformed, res.schedule, memory, report.vliw, i))
            return fail;
    }
    return {};
}

OracleFailure
checkRoundTrip(const ir::Module &mod)
{
    const std::string once = ir::moduleToString(mod);
    std::string error;
    std::unique_ptr<ir::Module> reparsed = ir::parseModule(once, &error);
    if (!reparsed)
        return {"round-trip", "print output failed to reparse: " +
                                  firstLine(error)};
    const std::string twice = ir::moduleToString(*reparsed);
    if (once != twice) {
        // Report the first differing line for the reducer and the
        // human reading the repro.
        const auto a = splitString(once, '\n');
        const auto b = splitString(twice, '\n');
        for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
            if (a[i] != b[i]) {
                return {"round-trip",
                        strprintf("line %zu: '%s' reprints as '%s'",
                                  i + 1, a[i].c_str(), b[i].c_str())};
            }
        }
        return {"round-trip",
                strprintf("reprint has %zu lines, original %zu",
                          b.size(), a.size())};
    }
    return {};
}

std::string
makeReproHeader(const sched::PipelineOptions &options,
                const OracleOptions &opts, const std::string &oracle,
                const std::string &detail)
{
    std::ostringstream os;
    os << "# treegion-fuzz repro\n";
    os << "# oracle=" << oracle << "\n";
    os << "# config: " << sched::encodePipelineOptions(options) << "\n";
    os << strprintf("# oracle-options: input-seed=%llu inputs=%d "
                    "profile-runs=%d data-max=%d tamper=%d\n",
                    static_cast<unsigned long long>(opts.input_seed),
                    opts.equivalence_inputs, opts.profile_runs,
                    opts.data_max, opts.tamper);
    if (!detail.empty())
        os << "# detail: " << firstLine(detail) << "\n";
    return os.str();
}

bool
parseReproHeader(const std::string &text,
                 sched::PipelineOptions &options, OracleOptions &opts,
                 std::string *oracle, std::string *error)
{
    auto bad = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    bool saw_oracle = false;
    bool saw_config = false;
    for (const std::string &raw : splitString(text, '\n')) {
        const std::string line{support::trim(raw)};
        if (!startsWith(line, "#"))
            continue;
        const std::string body{support::trim(line.substr(1))};
        std::string value;
        if (parseField(body, "oracle", value)) {
            if (oracle)
                *oracle = value;
            saw_oracle = true;
        } else if (startsWith(body, "config: ")) {
            std::string cfg_error;
            if (!sched::parsePipelineOptions(body.substr(8), options,
                                             &cfg_error))
                return bad(cfg_error);
            saw_config = true;
        } else if (startsWith(body, "oracle-options: ")) {
            for (const std::string &field :
                 splitString(body.substr(16), ' ')) {
                if (parseField(field, "input-seed", value))
                    opts.input_seed = std::strtoull(value.c_str(),
                                                    nullptr, 10);
                else if (parseField(field, "inputs", value))
                    opts.equivalence_inputs = std::atoi(value.c_str());
                else if (parseField(field, "profile-runs", value))
                    opts.profile_runs = std::atoi(value.c_str());
                else if (parseField(field, "data-max", value))
                    opts.data_max = std::atoi(value.c_str());
                else if (parseField(field, "tamper", value))
                    opts.tamper = std::atoi(value.c_str());
            }
        }
    }
    if (!saw_oracle || !saw_config)
        return bad("missing '# oracle=' or '# config:' header line");
    return true;
}

} // namespace treegion::fuzz
