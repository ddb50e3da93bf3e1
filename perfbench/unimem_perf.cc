/**
 * @file
 * One measured run of one benchmark workload, in a fresh process.
 *
 *   unimem_perf --workload=sweep|chip|replay --seed=N --digests=FILE
 *               [--trace] [--record]
 *
 * The process sets its workload up, runs the timed phase once through
 * the public unimem API, checks every simulated result against the
 * reference digests in FILE and prints, as its last stdout line, one
 * JSON object with its host times, simulated counts and mismatches.
 * perfbench/run.py starts one such process per measurement and
 * aggregates them; NOTES.md explains the workloads and metrics.
 *
 * --trace adds the per-layer numbers: spans around the timed phase's
 * calls into each src/ module, plus a replay of the workload's
 * generated instructions through the kernels, core, mem and regfile
 * layers' public functions after the timed phase. --record writes the
 * digest file instead of checking it (replay records the generator's
 * results, so the round trip is checked against the generator).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/pass.hh"
#include "arch/trace_io.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "core/conflict_model.hh"
#include "kernels/registry.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "regfile/rf_hierarchy.hh"
#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sm/chip.hh"

extern char** environ;

using namespace unimem;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Simulated statistics one point is checked on. */
struct Digest
{
    u64 cycles = 0;
    u64 warpInstrs = 0;
    u64 dramSectors = 0;
    u64 conflictPenalty = 0;
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
    u64 mrfReads = 0;
    u64 mrfWrites = 0;
    u64 orfReads = 0;
    u64 lrfReads = 0;

    bool operator==(const Digest&) const = default;

    std::string
    str() const
    {
        std::ostringstream os;
        os << cycles << ' ' << warpInstrs << ' ' << dramSectors << ' '
           << conflictPenalty << ' ' << cacheHits << ' ' << cacheMisses
           << ' ' << mrfReads << ' ' << mrfWrites << ' ' << orfReads
           << ' ' << lrfReads;
        return os.str();
    }
};

constexpr const char* kDigestColumns =
    "label cycles warp_instrs dram_sectors conflict_penalty cache_hits "
    "cache_misses mrf_reads mrf_writes orf_reads lrf_reads";

/** Adds one SM's statistics into @p d (chips sum their SMs). */
void
accumulate(Digest& d, const SmStats& s)
{
    d.warpInstrs += s.warpInstrs;
    d.conflictPenalty += s.conflictPenaltyCycles;
    d.cacheHits += s.cache.readHits + s.cache.writeHits;
    d.cacheMisses += s.cache.readMisses + s.cache.writeMisses;
    d.mrfReads += s.rf.mrfReads;
    d.mrfWrites += s.rf.mrfWrites;
    d.orfReads += s.rf.orfReads;
    d.lrfReads += s.rf.lrfReads;
}

Digest
digestOf(const SimResult& r)
{
    Digest d;
    accumulate(d, r.sm);
    d.cycles = r.cycles();
    d.dramSectors = r.dramSectors();
    return d;
}

Digest
digestOf(const ChipStats& c)
{
    Digest d;
    for (const SmStats& s : c.sms)
        accumulate(d, s);
    d.cycles = c.cycles;
    d.dramSectors = c.dram.sectors() + c.texDram.sectors();
    return d;
}

/**
 * Reference digests of one workload and seed. In check mode every
 * produced point is compared, and a missing or different reference
 * counts as a mismatch; in record mode the points are collected and
 * written back.
 */
class DigestBook
{
  public:
    DigestBook(std::string path, bool record)
        : path_(std::move(path)), record_(record)
    {
        if (record_)
            return;
        std::ifstream in(path_);
        if (!in) {
            std::cerr << "unimem_perf: cannot read reference digests "
                      << path_ << "\n";
            std::exit(2);
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ls(line);
            std::string label;
            Digest d;
            if (!(ls >> label >> d.cycles >> d.warpInstrs >>
                  d.dramSectors >> d.conflictPenalty >> d.cacheHits >>
                  d.cacheMisses >> d.mrfReads >> d.mrfWrites >>
                  d.orfReads >> d.lrfReads)) {
                std::cerr << "unimem_perf: malformed digest line in "
                          << path_ << ": " << line << "\n";
                std::exit(2);
            }
            ref_[label] = d;
        }
    }

    void
    check(const std::string& label, const Digest& got)
    {
        ++attempted_;
        if (record_) {
            recorded_.emplace_back(label, got);
            return;
        }
        auto it = ref_.find(label);
        if (it == ref_.end()) {
            ++mismatches_;
            std::cout << "mismatch " << label << ": no reference digest\n";
        } else if (!(it->second == got)) {
            ++mismatches_;
            std::cout << "mismatch " << label << ": expected "
                      << it->second.str() << " got " << got.str() << "\n";
        }
    }

    void
    write(const std::string& header) const
    {
        std::map<std::string, Digest> sorted(recorded_.begin(),
                                             recorded_.end());
        std::ofstream out(path_);
        out << "# " << header << "\n# " << kDigestColumns << "\n";
        for (const auto& [label, d] : sorted)
            out << label << ' ' << d.str() << "\n";
        if (!out) {
            std::cerr << "unimem_perf: cannot write " << path_ << "\n";
            std::exit(2);
        }
    }

    u64 attempted() const { return attempted_; }
    u64 mismatches() const { return mismatches_; }

  private:
    std::string path_;
    bool record_;
    std::map<std::string, Digest> ref_;
    std::vector<std::pair<std::string, Digest>> recorded_;
    u64 attempted_ = 0;
    u64 mismatches_ = 0;
};

/** Named per-layer values, emitted in insertion order. */
using Layers = std::vector<std::pair<std::string, double>>;

/** Everything one workload run reports. */
struct Outcome
{
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    u64 warpInstrs = 0;
    std::vector<double> pointSeconds;
    double peakRssMb = 0.0;
    Layers layers;
};

/** Simulated-statistic sums the sched/sm/core/mem/regfile layers report. */
struct SimTotals
{
    u64 cycles = 0;
    u64 warpInstrs = 0;
    u64 conflictPenalty = 0;
    u64 tagSerialization = 0;
    u64 cacheHits = 0;
    u64 cacheAccesses = 0;
    u64 dramSectors = 0;
    u64 activations = 0;
    u64 deschedules = 0;
    RfAccessCounts rf;

    void
    add(const SmStats& s)
    {
        cycles += s.cycles;
        warpInstrs += s.warpInstrs;
        conflictPenalty += s.conflictPenaltyCycles;
        tagSerialization += s.tagSerializationCycles;
        cacheHits += s.cache.readHits + s.cache.writeHits;
        cacheAccesses += s.cache.accesses();
        dramSectors += s.dramSectors();
        activations += s.sched.activations;
        deschedules += s.sched.deschedules;
        rf.merge(s.rf);
    }

    void
    report(Layers& out) const
    {
        auto ratio = [](u64 a, u64 b) {
            return b == 0 ? 0.0
                          : static_cast<double>(a) / static_cast<double>(b);
        };
        out.emplace_back("core.conflict_penalty_cycles", conflictPenalty);
        out.emplace_back("core.tag_serialization_cycles", tagSerialization);
        out.emplace_back("mem.cache_hit_ratio",
                         ratio(cacheHits, cacheAccesses));
        out.emplace_back("mem.dram_sectors", dramSectors);
        out.emplace_back("regfile.mrf_reduction", rf.reduction());
        out.emplace_back("sched.issue_per_cycle", ratio(warpInstrs, cycles));
        out.emplace_back("sched.activations", activations);
        out.emplace_back("sched.deschedules", deschedules);
        out.emplace_back("sm.sim_cycles", cycles);
        out.emplace_back("sm.warp_instrs", warpInstrs);
    }
};

/**
 * Drains every warp of @p kernels and feeds the generated instructions
 * through the per-instruction functions of the core, mem and regfile
 * layers, timing each layer's calls separately. Outside the timed
 * phase, traced runs only.
 */
void
probeLayers(const std::vector<std::unique_ptr<KernelModel>>& kernels,
            u64 seed, Layers& out)
{
    double gen_s = 0, conflict_s = 0, coalesce_s = 0, cache_s = 0,
           operand_s = 0;
    u64 instrs = 0, evals = 0;
    std::vector<WarpInstr> buf;
    std::vector<CoalescedAccess> lines;
    std::vector<std::pair<Addr, bool>> bufLines; // (line, is load)
    std::vector<std::array<u8, 3>> banks;
    std::vector<u32> numMrf;
    const ConflictModel partitioned(DesignKind::Partitioned);
    const ConflictModel unified(DesignKind::Unified);
    u64 sink = 0; // keeps the probed results observable

    for (const auto& kernel : kernels) {
        const KernelParams& kp = kernel->params();
        DataCache cache(64_KB);
        WarpRegFile rf;
        for (u32 cta = 0; cta < kp.gridCtas; ++cta) {
            for (u32 w = 0; w < kp.warpsPerCta(); ++w) {
                WarpCtx ctx;
                ctx.ctaId = cta;
                ctx.warpInCta = w;
                ctx.warpsPerCta = kp.warpsPerCta();
                ctx.threadsPerCta = kp.ctaThreads;
                ctx.seed = seed;
                std::unique_ptr<WarpProgram> prog =
                    kernel->warpProgram(ctx);
                rf.reset(RfHierarchyConfig{}, w);
                for (;;) {
                    buf.clear();
                    Clock::time_point t0 = Clock::now();
                    bool more = prog->fill(buf);
                    Clock::time_point t1 = Clock::now();
                    gen_s += seconds(t0, t1);
                    instrs += buf.size();

                    banks.resize(buf.size());
                    numMrf.resize(buf.size());
                    t0 = Clock::now();
                    for (size_t i = 0; i < buf.size(); ++i) {
                        const WarpInstr& in = buf[i];
                        numMrf[i] = rf.accessOperands(
                            in, isLoad(in.op) && isLongLatency(in.op),
                            banks[i].data());
                    }
                    t1 = Clock::now();
                    operand_s += seconds(t0, t1);

                    t0 = Clock::now();
                    for (size_t i = 0; i < buf.size(); ++i) {
                        const WarpInstr& in = buf[i];
                        if (!isMemOp(in.op) || in.op == Opcode::Tex)
                            continue;
                        sink += partitioned
                                    .evaluate(in, banks[i].data(), numMrf[i])
                                    .penalty;
                        sink += unified
                                    .evaluate(in, banks[i].data(), numMrf[i])
                                    .penalty;
                        evals += 2;
                    }
                    t1 = Clock::now();
                    conflict_s += seconds(t0, t1);

                    bufLines.clear();
                    t0 = Clock::now();
                    for (const WarpInstr& in : buf) {
                        if (!isGlobalSpace(in.op))
                            continue;
                        coalesce(in, lines);
                        for (const CoalescedAccess& acc : lines)
                            bufLines.emplace_back(acc.lineAddr,
                                                  isLoad(in.op));
                    }
                    t1 = Clock::now();
                    coalesce_s += seconds(t0, t1);

                    for (const auto& [line, load] : bufLines) {
                        if (load) {
                            if (!cache.read(line))
                                sink += cache.fill(line);
                        } else {
                            sink += cache.write(line);
                        }
                    }
                    cache_s += secondsSince(t1);
                    if (!more)
                        break;
                }
            }
        }
        sink += rf.counts().mrfAccesses() + cache.stats().accesses();
    }
    if (sink == 0)
        std::cout << "# probe produced no work\n";

    out.emplace_back("kernels.gen_s", gen_s);
    out.emplace_back("kernels.gen_warp_instrs", static_cast<double>(instrs));
    out.emplace_back("kernels.gen_ns_per_instr",
                     instrs == 0 ? 0.0 : 1e9 * gen_s / instrs);
    out.emplace_back("core.conflict_eval_s", conflict_s);
    out.emplace_back("core.conflict_evals", static_cast<double>(evals));
    out.emplace_back("mem.coalesce_s", coalesce_s);
    out.emplace_back("mem.cache_probe_s", cache_s);
    out.emplace_back("regfile.operand_s", operand_s);
}

/** The design points of sweep phase A, in the paper's figure order. */
std::vector<std::pair<std::string, RunSpec>>
phaseADesigns()
{
    std::vector<std::pair<std::string, RunSpec>> designs;
    RunSpec base;
    base.design = DesignKind::Partitioned;
    base.partition = baselinePartition();
    designs.emplace_back("partitioned", base);
    for (u64 kb : {128, 256, 384}) {
        RunSpec u;
        u.design = DesignKind::Unified;
        u.unifiedCapacity = kb * 1024;
        designs.emplace_back("unified" + std::to_string(kb), u);
    }
    for (const MemoryPartition& part : fermiLikeOptions(384_KB)) {
        RunSpec f;
        f.design = DesignKind::FermiLike;
        f.partition = part;
        designs.emplace_back(
            "fermi-shared" + std::to_string(part.sharedBytes / 1024) + "k",
            f);
    }
    return designs;
}

/** Deterministic Fisher-Yates shuffle driven by the workload seed. */
template <typename T>
void
shuffle(std::vector<T>& v, u64 seed)
{
    Rng rng(seed);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.range(i)]);
}

/**
 * Sweep: the figure pipeline on one thread. Phase A is every feasible
 * (kernel, design) point; phase B is the autotuning and Fermi-best
 * searches of the benefit kernels, submitted as jobs of the same
 * one-worker runner so their nested sweeps run serially on it. Scale
 * 0.5 keeps a process to a few seconds, so that a run's median spans
 * many processes and with them the host's speed drift.
 */
Outcome
runSweepWorkload(u64 seed, bool trace, DigestBook& book,
                 Clock::time_point& timedStart)
{
    constexpr double kScale = 0.5;
    const auto designs = phaseADesigns();
    std::vector<SweepJob> jobsA;
    std::vector<std::unique_ptr<KernelModel>> kernels;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        kernels.push_back(createBenchmark(info.name, kScale));
        for (const auto& [design, spec] : designs) {
            if (!resolveAllocation(kernels.back()->params(), spec)
                     .launch.feasible)
                continue;
            jobsA.push_back(makeSweepJob(
                std::string(info.name) + "/" + design, info.name, kScale,
                spec));
        }
    }
    std::vector<SweepJob> jobsB;
    for (const std::string& name : benefitBenchmarkNames()) {
        SweepJob tuned;
        tuned.label = name + "/autotune384";
        tuned.run = [name] {
            return runUnifiedAutotuned(name, kScale, 384_KB);
        };
        jobsB.push_back(tuned);
        SweepJob fermi;
        fermi.label = name + "/fermibest384";
        fermi.run = [name] { return runFermiBest(name, kScale, 384_KB); };
        jobsB.push_back(fermi);
    }
    shuffle(jobsA, seed);
    shuffle(jobsB, seed + 1);

    SweepRunner runner(1);
    Outcome o;
    timedStart = Clock::now();
    double cpu0 = cpuSeconds();
    std::vector<SimResult> resA = runner.run(jobsA);
    const SweepStats statsA = runner.stats();
    std::vector<SimResult> resB = runner.run(jobsB);
    const SweepStats statsB = runner.stats();
    o.wallSeconds = secondsSince(timedStart);
    o.cpuSeconds = cpuSeconds() - cpu0;
    o.peakRssMb = peakRssMb();

    SimTotals totals;
    for (size_t i = 0; i < resA.size(); ++i) {
        book.check(jobsA[i].label, digestOf(resA[i]));
        totals.add(resA[i].sm);
    }
    o.warpInstrs = totals.warpInstrs;
    for (size_t i = 0; i < resB.size(); ++i) {
        book.check(jobsB[i].label, digestOf(resB[i]));
        o.warpInstrs += resB[i].sm.warpInstrs;
    }
    o.pointSeconds = statsA.jobSeconds;

    std::cout << "# sweep phase A: " << statsA.summary() << "\n"
              << "# sweep phase B: " << statsB.summary() << "\n";
    if (trace) {
        o.layers.emplace_back("sim.sweep_s", statsA.wallSeconds);
        o.layers.emplace_back("sim.search_s", statsB.wallSeconds);
        o.layers.emplace_back("sim.worker_util", statsA.utilization());
        o.layers.emplace_back("sm.host_ns_per_warp_instr",
                              1e9 * statsA.wallSeconds /
                                  static_cast<double>(totals.warpInstrs));
        totals.report(o.layers);
        probeLayers(kernels, 1, o.layers);
    }
    return o;
}

/** Chip: the bound-weave engine on three kernels of different shape. */
Outcome
runChipWorkload(u64 seed, bool trace, DigestBook& book,
                Clock::time_point& timedStart)
{
    constexpr u32 kSms = 8;
    const std::vector<std::string> names = {"sgemv", "dgemm", "bfs"};
    std::vector<std::unique_ptr<KernelModel>> kernels;
    std::vector<ChipConfig> configs;
    for (const std::string& name : names) {
        kernels.push_back(createBenchmark(name, 1.0));
        RunSpec spec; // partitioned 256/64/64
        AllocationDecision d =
            resolveAllocation(kernels.back()->params(), spec);
        ChipConfig cc;
        cc.numSms = kSms;
        cc.chipDramBytesPerCycle = kSms * 8; // the per-SM paper share
        cc.workers = 2;
        cc.sm.design = DesignKind::Partitioned;
        cc.sm.partition = d.partition;
        cc.sm.launch = d.launch;
        cc.sm.seed = seed;
        configs.push_back(cc);
    }

    Outcome o;
    std::vector<ChipStats> stats;
    timedStart = Clock::now();
    double cpu0 = cpuSeconds();
    for (size_t i = 0; i < names.size(); ++i) {
        Clock::time_point t0 = Clock::now();
        ChipModel chip(configs[i], *kernels[i]);
        stats.push_back(chip.run());
        o.pointSeconds.push_back(secondsSince(t0));
    }
    o.wallSeconds = secondsSince(timedStart);
    o.cpuSeconds = cpuSeconds() - cpu0;
    o.peakRssMb = peakRssMb();

    SimTotals totals;
    u64 windows = 0, passes = 0, weaves = 0, workers = 0;
    double util = 0, imbalance = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const ChipStats& cs = stats[i];
        book.check(names[i] + "/chip8", digestOf(cs));
        for (const SmStats& s : cs.sms)
            totals.add(s);
        // A chip's DRAM traffic is chip-level; its SMs' dram fields
        // stay empty.
        totals.dramSectors += cs.dram.sectors() + cs.texDram.sectors();
        o.warpInstrs += cs.warpInstrs();
        windows += cs.windows;
        passes += cs.boundPasses;
        weaves += cs.weaveRequests;
        workers = std::max<u64>(workers, cs.workersUsed);
        util += cs.quantumUtilization() / names.size();
        imbalance += cs.loadImbalance() / names.size();
        std::cout << "# chip " << names[i] << ": " << cs.cycles
                  << " cycles, " << cs.windows << " windows, "
                  << o.pointSeconds[i] << " s\n";
    }
    if (trace) {
        for (size_t i = 0; i < names.size(); ++i)
            o.layers.emplace_back("sm.chip_run_s." + names[i],
                                  o.pointSeconds[i]);
        o.layers.emplace_back("sm.chip_windows", windows);
        o.layers.emplace_back("sm.chip_bound_passes", passes);
        o.layers.emplace_back("sm.chip_weave_requests", weaves);
        o.layers.emplace_back("sm.chip_quantum_util", util);
        o.layers.emplace_back("sm.chip_load_imbalance", imbalance);
        o.layers.emplace_back("sm.chip_workers_used", workers);
        o.layers.emplace_back("sm.chip_us_per_window",
                              1e6 * o.wallSeconds / windows);
        o.layers.emplace_back("sm.chip_cpu_per_wall",
                              o.cpuSeconds / o.wallSeconds);
        o.layers.emplace_back("sm.host_ns_per_warp_instr",
                              1e9 * o.wallSeconds /
                                  static_cast<double>(o.warpInstrs));
        totals.report(o.layers);
        probeLayers(kernels, seed, o.layers);
    }
    return o;
}

/** Read-only istream over an in-memory trace (no copy). */
class MemoryBuf : public std::streambuf
{
  public:
    explicit MemoryBuf(const std::string& s)
    {
        char* p = const_cast<char*>(s.data());
        setg(p, p, p + s.size());
    }
};

/**
 * Replay: trace ingestion. Setup serializes every kernel with
 * writeTrace; each timed point parses one trace, lints it and
 * simulates it on the partitioned baseline.
 */
Outcome
runReplayWorkload(u64 seed, bool trace, bool record, DigestBook& book,
                  Clock::time_point& timedStart)
{
    constexpr double kScale = 0.5;
    RunSpec spec; // partitioned 256/64/64
    spec.seed = seed;
    std::vector<std::unique_ptr<KernelModel>> kernels;
    std::vector<std::string> names;
    std::vector<std::string> traces;
    double write_s = 0;
    u64 bytes = 0;
    for (const BenchmarkInfo& info : allBenchmarks()) {
        names.push_back(info.name);
        kernels.push_back(createBenchmark(info.name, kScale));
        Clock::time_point t0 = Clock::now();
        std::ostringstream os;
        writeTrace(*kernels.back(), os, seed);
        traces.push_back(std::move(os).str());
        write_s += secondsSince(t0);
        bytes += traces.back().size();
    }
    std::vector<std::string> passes = defaultPassNames();
    for (const char* extra : {"barrier-sync", "register-hazard"})
        if (std::find(passes.begin(), passes.end(), extra) == passes.end())
            passes.push_back(extra);

    Outcome o;
    if (record) {
        // The round trip must reproduce the generator exactly, so the
        // reference is the generator's own result.
        for (size_t i = 0; i < kernels.size(); ++i)
            book.check(names[i] + "/replay",
                       digestOf(simulate(*kernels[i], spec)));
        return o;
    }

    SimTotals totals;
    double parse_s = 0, lint_s = 0, sim_s = 0;
    u64 lintErrors = 0, lintWarnings = 0;
    std::vector<Digest> digests;
    timedStart = Clock::now();
    double cpu0 = cpuSeconds();
    for (size_t i = 0; i < traces.size(); ++i) {
        Clock::time_point t0 = Clock::now();
        MemoryBuf mb(traces[i]);
        std::istream is(&mb);
        TraceFileKernel loaded(is);
        Clock::time_point t1 = Clock::now();
        LintReport report = lintKernel(loaded, LintOptions{}, passes);
        Clock::time_point t2 = Clock::now();
        SimResult r = simulate(loaded, spec);
        Clock::time_point t3 = Clock::now();
        parse_s += seconds(t0, t1);
        lint_s += seconds(t1, t2);
        sim_s += seconds(t2, t3);
        o.pointSeconds.push_back(seconds(t0, t3));
        lintErrors += report.errors();
        lintWarnings += report.warnings();
        digests.push_back(digestOf(r));
        totals.add(r.sm);
    }
    o.wallSeconds = secondsSince(timedStart);
    o.cpuSeconds = cpuSeconds() - cpu0;
    o.peakRssMb = peakRssMb();
    o.warpInstrs = totals.warpInstrs;
    for (size_t i = 0; i < digests.size(); ++i)
        book.check(names[i] + "/replay", digests[i]);

    std::cout << "# replay: " << bytes / 1e6 << " MB of traces, parse "
              << parse_s << " s, lint " << lint_s << " s, simulate "
              << sim_s << " s\n";
    if (trace) {
        double mb = static_cast<double>(bytes) / 1e6;
        o.layers.emplace_back("arch.write_s", write_s);
        o.layers.emplace_back("arch.write_mb", mb);
        o.layers.emplace_back("arch.parse_s", parse_s);
        o.layers.emplace_back("arch.parse_mb_per_s", mb / parse_s);
        o.layers.emplace_back("analysis.lint_s", lint_s);
        o.layers.emplace_back("analysis.lint_errors", lintErrors);
        o.layers.emplace_back("analysis.lint_warnings", lintWarnings);
        o.layers.emplace_back("sm.host_ns_per_warp_instr",
                              1e9 * sim_s /
                                  static_cast<double>(totals.warpInstrs));
        totals.report(o.layers);
        probeLayers(kernels, seed, o.layers);
    }
    return o;
}

/**
 * Untimed warm-up: one point simulated without the result cache, so
 * the timed phase starts with lazy initialization done and no sweep
 * point memoized.
 */
void
warmUp()
{
    std::unique_ptr<KernelModel> k = createBenchmark("dgemm", 1.0);
    simulate(*k, RunSpec{});
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    // Every UNIMEM_* knob changes what is measured (worker counts,
    // caches, audits), so a run under any of them is not comparable.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::string(*e).rfind("UNIMEM_", 0) == 0) {
            std::cerr << "unimem_perf: refusing to run with "
                      << std::string(*e).substr(0, std::string(*e).find('='))
                      << " set; unset every UNIMEM_* variable\n";
            return 2;
        }
    }

    CliArgs args(argc, argv);
    const std::string workload = args.getString("workload", "");
    const u64 seed = static_cast<u64>(args.getInt("seed", 1));
    const std::string digests = args.getString("digests", "");
    const bool trace = args.getBool("trace", false);
    const bool record = args.getBool("record", false);
    if (digests.empty() ||
        (workload != "sweep" && workload != "chip" && workload != "replay")) {
        std::cerr << "usage: unimem_perf --workload=sweep|chip|replay "
                     "--seed=N --digests=FILE [--trace] [--record]\n";
        return 2;
    }

    DigestBook book(digests, record);
    warmUp();
    Clock::time_point timedStart = Clock::now();
    Outcome o;
    if (workload == "sweep")
        o = runSweepWorkload(seed, trace, book, timedStart);
    else if (workload == "chip")
        o = runChipWorkload(seed, trace, book, timedStart);
    else
        o = runReplayWorkload(seed, trace, record, book, timedStart);

    if (record) {
        book.write(workload + " seed " + std::to_string(seed));
        std::cout << "recorded " << book.attempted() << " digests to "
                  << digests << "\n";
        return 0;
    }

    std::ostringstream js;
    js << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"timed_start_ns\": "
       << std::chrono::duration_cast<std::chrono::nanoseconds>(
              timedStart.time_since_epoch())
              .count()
       << ", \"wall_s\": " << jsonNumber(o.wallSeconds)
       << ", \"cpu_s\": " << jsonNumber(o.cpuSeconds)
       << ", \"warp_instrs\": " << o.warpInstrs
       << ", \"peak_rss_mb\": " << jsonNumber(o.peakRssMb)
       << ", \"attempted\": " << book.attempted()
       << ", \"mismatches\": " << book.mismatches() << ", \"point_s\": [";
    for (size_t i = 0; i < o.pointSeconds.size(); ++i)
        js << (i ? ", " : "") << jsonNumber(o.pointSeconds[i]);
    js << "], \"layers\": {";
    for (size_t i = 0; i < o.layers.size(); ++i)
        js << (i ? ", " : "") << '"' << o.layers[i].first
           << "\": " << jsonNumber(o.layers[i].second);
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
