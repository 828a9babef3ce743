/**
 * @file
 * perfbench: measure one workload of the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * All four flags are required; perfbench/run.py passes the values
 * BENCHMARK.json and the caller give it, so a run by hand measures
 * what the benchmark measures. Sweeps run on min(3, CPUs - 1) workers.
 * With --trace 1 the kept spans go to trace-NAME-seedN.json next to
 * the binary.
 *
 * Prints detail lines and, as its last line, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ...,
 *    "metrics": {"NAME": VALUE, ...}}
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones of the traced run. perfbench/run.py attaches the
 * units BENCHMARK.json declares. Exit status 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return n;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::set<std::string> given;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[i + 1];
        if (!given.insert(flag).second)
            usage(flag + " given twice");
        if (flag == "--workload") {
            opt.workload = v;
        } else if (flag == "--seed") {
            opt.seed = parseU64(flag, v);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseU64(flag, v));
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (given.size() != 4)
        usage("--workload, --seed, --seconds and --trace are all required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        usage("unknown workload '" + opt.workload + "'");
    if (opt.seconds <= 0)
        usage("--seconds must be positive");

    Report rep = runWorkload(opt);

    for (const std::string &line : rep.lines)
        std::cout << line << "\n";
    std::string json;
    for (const Metric &m : rep.metrics) {
        if (!std::isfinite(m.value)) {
            rep.correct = false;
            std::cout << "FAILED: metric " << m.name << " is not finite\n";
        }
        json += (json.empty() ? "\"" : ", \"") + m.name + "\": " +
                (std::isfinite(m.value) ? number(m.value) : "0");
    }
    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {" << json
              << "}}" << std::endl;
    return 0;
}
