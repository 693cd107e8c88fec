/**
 * @file
 * qla_perfbench: one benchmark run.
 *
 *     qla_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--workers <n>] [--out-dir <dir>]
 *     qla_perfbench --selftest [--out-dir <dir>]
 *     qla_perfbench --serve-metrics
 *
 * --serve-metrics prints the serve layer's per-layer metrics (one
 * "name unit" line each), which only serve-queue's traced run emits.
 *
 * Workloads: fig7-window, fig7-tail, cosim-mesh, serve-queue. The last
 * line of standard output is the result as one JSON object with the
 * keys correct, attempted, failed and metrics; the environment stamp
 * and a human-readable table (metric, value, unit, samples) go to
 * standard error. Exit status: 0 when every check passed, 1 when a
 * check failed, 2 on a usage error or a refused environment (a
 * non-Release build, more workers than usable hardware threads).
 */

#include <sched.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

int
usableThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        if (!__get_cpuid(0x80000002u + leaf, &regs[leaf * 4],
                         &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                         &regs[leaf * 4 + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
}

bool
releaseBuild()
{
#ifdef NDEBUG
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

const char *
vectorIsa()
{
#if defined(__AVX512F__)
    return "avx512f";
#elif defined(__AVX2__)
    return "avx2";
#else
    return "baseline";
#endif
}

void
printEnvironment(const Options &options)
{
    std::fprintf(stderr,
                 "perfbench env: build_type=%s ndebug=%d native_arch=%d "
                 "isa=%s compiler=\"%s\" cpu=\"%s\" nproc=%d workers=%d\n",
                 PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                 1,
#else
                 0,
#endif
                 PERFBENCH_NATIVE_ARCH, vectorIsa(), PERFBENCH_CXX_COMPILER,
                 cpuModel().c_str(), options.nproc, options.workers);
}

void
printResult(Result &result)
{
    for (auto &[name, metric] : result.metrics)
        if (!std::isfinite(metric.value)) {
            result.failures.push_back("metric " + name + " is not finite");
            metric.value = 0.0;
        }

    std::fprintf(stderr, "%-32s %18s  %-10s %8s\n", "metric", "value",
                 "unit", "samples");
    for (const auto *table : {&result.metrics, &result.extra})
        for (const auto &[name, metric] : *table)
            std::fprintf(stderr, "%-32s %18.6g  %-10s %8zu\n", name.c_str(),
                         metric.value, metric.unit.c_str(), metric.samples);
    std::fprintf(stderr, "%-32s %18.6g  %-10s %8llu\n", "failed_frac",
                 result.attempted
                     ? static_cast<double>(result.failed)
                         / static_cast<double>(result.attempted)
                     : 0.0,
                 "fraction", static_cast<unsigned long long>(result.attempted));
    for (const std::string &failure : result.failures)
        std::fprintf(stderr, "FAILED CHECK: %s\n", failure.c_str());

    std::string json = "{\"correct\": ";
    json += result.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    char value[64];
    for (const auto &[name, metric] : result.metrics) {
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \""
            + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "qla_perfbench: %s\nusage: qla_perfbench --workload "
                 "<fig7-window|fig7-tail|cosim-mesh|serve-queue> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workers <n>] "
                 "[--out-dir <dir>]\n       qla_perfbench --selftest "
                 "[--out-dir <dir>]\n       qla_perfbench --serve-metrics\n",
                 message);
    return 2;
}

bool
parseNumber(const char *text, double &value)
{
    char *end = nullptr;
    value = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(value);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    options.nproc = usableThreads();
    bool selftest = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            selftest = true;
            continue;
        }
        if (arg == "--serve-metrics") {
            printServeMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--out-dir") {
            options.outDir = value;
        } else if (!parseNumber(value, number)) {
            return usage(("bad number for " + arg).c_str());
        } else if (arg == "--seed" && number >= 0) {
            options.seed = static_cast<std::uint64_t>(number);
            have_seed = true;
        } else if (arg == "--seconds" && number > 0) {
            options.seconds = number;
            have_seconds = true;
        } else if (arg == "--trace" && (number == 0 || number == 1)) {
            options.trace = number == 1;
            have_trace = true;
        } else if (arg == "--workers" && number >= 1) {
            options.workers = static_cast<int>(number);
        } else {
            return usage(("bad argument " + arg).c_str());
        }
    }
    if (options.workers == 0)
        options.workers = options.nproc;
    printEnvironment(options);

    if (!releaseBuild()) {
        std::fprintf(stderr, "qla_perfbench: refusing to run a non-Release "
                             "build (timings would not describe the "
                             "library as shipped)\n");
        return 2;
    }
    if (options.workers > options.nproc) {
        std::fprintf(stderr,
                     "qla_perfbench: refusing %d workers on %d usable "
                     "hardware threads\n",
                     options.workers, options.nproc);
        return 2;
    }
    if (selftest)
        return runSelfTest(options) == 0 ? 0 : 1;
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Result result;
    if (options.workload == "fig7-window")
        runFig7(options, false, result);
    else if (options.workload == "fig7-tail")
        runFig7(options, true, result);
    else if (options.workload == "cosim-mesh")
        runCoSimMesh(options, result);
    else if (options.workload == "serve-queue")
        runServeQueue(options, result);
    else
        return usage(("unknown workload '" + options.workload + "'").c_str());
    printResult(result);
    return result.correct() ? 0 : 1;
}
