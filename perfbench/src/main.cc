/**
 * @file
 * darco_perfbench: runs one named workload through the public
 * entry points users call (sim::Controller, campaign::runJob) for a
 * fixed wall-clock budget and prints its metrics.
 *
 *   darco_perfbench --workload NAME [--seed N] [--seconds S]
 *                   [--trace 0|1] [--work-dir DIR]
 *
 * --seed is added to every suite program's WorkloadParams::seed
 * (0 reproduces workloads::paperSuite exactly). --trace 0 prints the
 * end-to-end metrics; --trace 1 alternates untraced and traced passes
 * and prints the per-layer metrics, timed from this file around calls
 * into each layer (see layers.hh) — nothing is traced inside DARCO.
 *
 * Every simulation call is checked (see Gate); the last stdout line is
 * one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Workload choices and measurement notes: perfbench/README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/schema.hh"
#include "layers.hh"
#include "power/power.hh"
#include "sim/controller.hh"
#include "timing/core.hh"
#include "workloads/suite.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using perfbench::Clock;
using perfbench::since;

namespace
{

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> programs; //!< paperSuite benchmark names
    std::string preset;                //!< campaign::presetConfigs name
    std::vector<std::string> extra;    //!< extra key=value settings
    bool timing;  //!< InOrderCore + power attached (full mode)
    bool sampled; //!< SimPoint runJob, cold then warm checkpoints
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"timed-suite", {"401.bzip2", "435.gromacs"}, "fullopt", {},
         true, false},
        {"translate-churn", {"483.xalancbmk", "403.gcc"}, "tinycc", {},
         false, false},
        {"async-churn", {"483.xalancbmk"}, "tinycc",
         {"tol.async.threads=2", "tol.async.vthreads=2"}, false, false},
        {"sampled-ckpt", {"401.bzip2"}, "fullopt", {}, true, true},
    };
    return defs;
}

/** One suite program with its reference outcome. */
struct Input
{
    std::string name;
    guest::Program program;
    Config cfg;
    u32 refExit = 0;
    u64 refInsts = 0;
    double refSeconds = 0; //!< standalone reference run wall time
};

Config
workloadConfig(const WorkloadDef &w)
{
    return campaign::presetConfigs({w.preset}, w.extra).front().second;
}

workloads::WorkloadParams
suiteParams(const std::string &name, u64 seed)
{
    static const std::vector<workloads::Benchmark> suite =
        workloads::paperSuite();
    const workloads::Benchmark *b = workloads::findBenchmark(suite, name);
    if (!b)
        throw std::runtime_error("unknown suite program " + name);
    workloads::WorkloadParams p = b->params;
    p.seed += seed;
    return p;
}

/** Standalone reference-component run: exit code and inst count. */
void
runReference(Input &in)
{
    xemu::RefComponent ref(conf::getUint(in.cfg, "seed"));
    ref.load(in.program);
    auto t0 = Clock::now();
    ref.runToCompletion();
    in.refSeconds = since(t0);
    in.refExit = ref.exitCode();
    in.refInsts = ref.instCount();
}

/**
 * The set-up a user pays before the first guest instruction:
 * synthesize every program, construct its Controller and load() it.
 */
double
setupOnce(const WorkloadDef &w, u64 seed)
{
    Config cfg = workloadConfig(w);
    std::vector<std::unique_ptr<sim::Controller>> ctls;
    auto t0 = Clock::now();
    for (const std::string &name : w.programs) {
        guest::Program prog = workloads::synthesize(suiteParams(name, seed));
        ctls.push_back(std::make_unique<sim::Controller>(cfg));
        ctls.back()->load(prog);
    }
    return since(t0); // controllers are torn down outside the clock
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

/** Exact results of one simulation; they must repeat bit-for-bit. */
using Counts = std::map<std::string, double>;

/**
 * Counts simulation calls and failures. A call fails when it throws
 * (including the Controller's end-of-run validation), when its exit
 * code or retired-instruction count differs from the standalone
 * reference run, or when its exact counts differ from the first call
 * with the same key (traced vs untraced, cold vs warm, pass vs pass).
 */
class Gate
{
  public:
    void
    check(const std::string &key, std::string error,
          const Counts &counts)
    {
        ++attempted_;
        if (error.empty()) {
            auto [it, fresh] = expected_.emplace(key, counts);
            if (!fresh && it->second != counts)
                error = "exact counts differ from the first run: " +
                        diff(it->second, counts);
        }
        if (!error.empty()) {
            ++failed_;
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                         key.c_str(), error.c_str());
        }
    }

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

  private:
    static std::string
    diff(const Counts &a, const Counts &b)
    {
        std::ostringstream os;
        for (const auto &[k, v] : a) {
            auto it = b.find(k);
            if (it == b.end() || it->second != v)
                os << k << ' ' << v << " vs "
                   << (it == b.end() ? -1.0 : it->second) << "; ";
        }
        return os.str();
    }

    std::map<std::string, Counts> expected_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

std::string
checkOutcome(const Input &in, bool finished, u32 exit_code, u64 insts)
{
    std::ostringstream os;
    if (!finished)
        os << "did not finish; ";
    if (exit_code != in.refExit)
        os << "exit code " << exit_code << " != reference "
           << in.refExit << "; ";
    if (insts != in.refInsts)
        os << "retired " << insts << " != reference " << in.refInsts
           << "; ";
    return os.str();
}

/** The TOL / host counts DARCO already exports as stats. */
void
addTolCounts(Counts &c, const std::map<std::string, u64> &stats)
{
    auto get = [&](const std::string &k) {
        auto it = stats.find(k);
        return it == stats.end() ? 0.0 : double(it->second);
    };
    double ov = 0;
    for (const auto &[k, v] : stats)
        if (k.rfind("tol.ov_", 0) == 0)
            ov += double(v);
    c["tol.translations"] =
        get("tol.translations_bb") + get("tol.translations_sb");
    c["tol.im_insts"] = get("tol.guest_im");
    c["tol.evictions"] = get("cc.evictions");
    c["tol.overhead_units"] = ov;
    c["sim.sync_calls"] =
        get("sync.pages_transferred") + get("sync.syscalls");
}

std::map<std::string, u64>
statMap(const StatGroup &g)
{
    std::map<std::string, u64> m;
    for (const auto &[name, c] : g.counters())
        m[name] = c.value();
    return m;
}

// ---------------------------------------------------------------------
// One Controller simulation
// ---------------------------------------------------------------------

struct Sim
{
    u64 insts = 0;
    double runS = 0;    //!< Controller::run wall (incl. final flush)
    double syncS = 0;   //!< inside Controller::dataRequest/syscall
    double timingS = 0; //!< inside InOrderCore::record*
    double powerS = 0;  //!< inside PowerModel::analyze
    Counts counts;
};

/**
 * Run one program to completion through a Controller, the way
 * campaign::runJob's full mode does (timing + power attached when the
 * workload asks for them). `traced` installs the interposers.
 */
Sim
simulate(const Input &in, bool timing, bool traced, Gate &gate,
         const std::string &key)
{
    Sim s;
    std::string error;
    try {
        sim::Controller ctl(in.cfg);
        ctl.load(in.program);
        std::optional<perfbench::TimedEnv> env;
        if (traced) {
            env.emplace(ctl);
            ctl.tol().setEnv(&*env);
        }
        StatGroup tstats("timing");
        std::unique_ptr<timing::InOrderCore> core;
        std::unique_ptr<perfbench::BufferedTimingSink> buffered;
        if (timing) {
            core = std::make_unique<timing::InOrderCore>(in.cfg, tstats);
            if (traced) {
                buffered =
                    std::make_unique<perfbench::BufferedTimingSink>(*core);
                ctl.tol().setTraceSink(buffered.get());
            } else {
                ctl.tol().setTraceSink(core.get());
            }
        }

        auto t0 = Clock::now();
        ctl.run();
        if (buffered)
            buffered->flush();
        s.runS = since(t0);

        tol::Tol &t = ctl.tol();
        s.insts = t.completedInsts();
        if (env)
            s.syncS = env->seconds();
        error = checkOutcome(in, ctl.finished(), ctl.exitCode(), s.insts);

        Counts &c = s.counts;
        c["insts"] = double(s.insts);
        c["bbs"] = double(t.completedBBs());
        c["exit"] = double(ctl.exitCode());
        c["host.insts"] = double(t.hostEmu().instsExecuted());
        c["host.rollbacks"] = double(t.hostEmu().rollbacks());
        addTolCounts(c, statMap(ctl.stats()));
        if (env && env->calls() != u64(c["sim.sync_calls"]))
            error += "interposed sync calls != sync stats; ";
        if (core) {
            if (buffered)
                s.timingS = buffered->seconds();
            auto tp = Clock::now();
            power::PowerReport pr =
                power::PowerModel(in.cfg).analyze(tstats);
            s.powerS = since(tp);
            c["timing.cycles"] = double(core->cycles());
            c["timing.records"] = double(core->instructions());
            c["timing.l1d.misses"] = double(tstats.value("l1d.misses"));
            c["timing.l2.misses"] = double(tstats.value("l2.misses"));
            c["timing.bpred.mispredicts"] =
                double(tstats.value("bpred.mispredicts"));
            c["timing.fetch_stall_cycles"] =
                double(tstats.value("core.fetch_stall_cycles"));
            c["power.energy_j"] = pr.totalEnergyJ;
        }
    } catch (const std::exception &e) {
        error = std::string("threw: ") + e.what();
    }
    gate.check(key, error, s.counts);
    return s;
}

// ---------------------------------------------------------------------
// Passes: one run of every program of a workload
// ---------------------------------------------------------------------

struct Pass
{
    u64 insts = 0;
    double simS = 0; //!< wall spent inside the simulation calls
    /** Controller::run wall the layer split below divides up. */
    double runS = 0;
    double syncS = 0, timingS = 0, powerS = 0;
    double coldS = 0, warmS = 0; //!< sampled runJob calls
    Counts counts;               //!< summed over the programs
};

void
accumulate(Counts &into, const Counts &c)
{
    for (const auto &[k, v] : c)
        into[k] += v;
}

Pass
controllerPass(const WorkloadDef &w, const std::vector<Input> &inputs,
               bool traced, Gate &gate)
{
    Pass p;
    for (const Input &in : inputs) {
        Sim s = simulate(in, w.timing, traced, gate, in.name);
        p.insts += s.insts;
        p.simS += s.runS;
        p.runS += s.runS;
        p.syncS += s.syncS;
        p.timingS += s.timingS;
        p.powerS += s.powerS;
        accumulate(p.counts, s.counts);
    }
    return p;
}

/**
 * The sampled workload: the same SimPoint job twice against one fresh
 * checkpoint directory — cold (profiles, clusters, writes the
 * per-simpoint checkpoints) then warm (restores them).
 */
Pass
sampledPass(const WorkloadDef &w, const Input &in,
            const std::string &ckpt_dir, Gate &gate)
{
    campaign::Job job;
    job.workload = in.name;
    job.configName = w.preset;
    job.program = in.program;
    job.config = in.cfg;
    campaign::RunOptions opts;
    opts.sampleMode = campaign::SampleMode::SimPoint;
    opts.checkpointDir = ckpt_dir;
    std::filesystem::remove_all(opts.checkpointDir);

    Pass p;
    auto t0 = Clock::now();
    campaign::JobResult cold = campaign::runJob(job, opts);
    p.coldS = since(t0);
    t0 = Clock::now();
    campaign::JobResult warm = campaign::runJob(job, opts);
    p.warmS = since(t0);
    std::filesystem::remove_all(opts.checkpointDir);
    p.simS = p.coldS + p.warmS;

    auto result = [&](const campaign::JobResult &r, bool is_warm) {
        std::string error =
            r.ok ? checkOutcome(in, r.finished, r.exitCode, r.insts)
                 : "job failed: " + r.error;
        if (is_warm && !r.checkpointHit)
            error += "warm job did not restore a checkpoint; ";
        if (!is_warm && !r.checkpointStored)
            error += "cold job stored no checkpoint; ";
        Counts c;
        c["insts"] = double(r.insts);
        c["exit"] = double(r.exitCode);
        c["timing.cycles"] = r.cycles;
        c["timing.ipc"] = r.ipc;
        c["power.energy_j"] = r.energyJ;
        c["sampling.simpoints"] = double(r.simpoints);
        c["sampling.sampled_insts"] = double(r.sampledInsts);
        addTolCounts(c, r.stats);
        // Cold and warm share one key: the warm job's cycles, IPC and
        // energy must equal the cold job's exactly.
        gate.check(in.name + "/sampled", error, c);
        p.insts += r.insts;
        return c;
    };
    p.counts = result(cold, false);
    result(warm, true);
    return p;
}

// ---------------------------------------------------------------------
// Probes (traced runs only)
// ---------------------------------------------------------------------

struct SnapshotProbe
{
    std::vector<double> saveS, restoreS;
    u64 bytes = 0;
};

/**
 * Controller::saveCheckpoint / restoreCheckpoint called directly
 * halfway through the workload's first program; the last restored
 * Controller then runs to the end and is checked like any other run.
 */
SnapshotProbe
snapshotProbe(const Input &in, Gate &gate)
{
    constexpr int reps = 3;
    SnapshotProbe probe;
    std::string error;
    try {
        sim::Controller ctl(in.cfg);
        ctl.load(in.program);
        ctl.run(in.refInsts / 2);
        std::string image;
        for (int i = 0; i < reps; ++i) {
            std::ostringstream os;
            auto t0 = Clock::now();
            ctl.saveCheckpoint(os);
            probe.saveS.push_back(since(t0));
            image = os.str();
        }
        probe.bytes = image.size();
        std::unique_ptr<sim::Controller> restored;
        for (int i = 0; i < reps; ++i) {
            restored = std::make_unique<sim::Controller>(in.cfg);
            std::istringstream is(image);
            auto t0 = Clock::now();
            restored->restoreCheckpoint(is);
            probe.restoreS.push_back(since(t0));
        }
        restored->run();
        error = checkOutcome(in, restored->finished(),
                             restored->exitCode(),
                             restored->tol().completedInsts());
    } catch (const std::exception &e) {
        error = std::string("threw: ") + e.what();
    }
    gate.check(in.name + "/snapshot", error, {});
    return probe;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string basis; //!< "exact", "median of N", "N passes pooled"
};

std::string
medianOf(std::size_t n)
{
    return "median of " + std::to_string(n);
}

const char *const exact = "exact";

/** Retired guest instructions per host second over all passes. */
double
pooledMips(const std::vector<Pass> &ps)
{
    double insts = 0, secs = 0;
    for (const Pass &p : ps) {
        insts += double(p.insts);
        secs += p.simS;
    }
    return secs > 0 ? insts / secs / 1e6 : 0;
}

/**
 * Print the `#` summary (metrics, then `info` lines that stay out of
 * the JSON, then fail_rate) and the JSON result line.
 */
void
report(const std::vector<Metric> &metrics, const std::vector<Metric> &info,
       const Gate &gate)
{
    for (const std::vector<Metric> *list : {&metrics, &info})
        for (const Metric &m : *list)
            std::printf("# %-28s %14.6g %-12s %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.basis.c_str());
    u64 att = gate.attempted(), bad = gate.failed();
    std::printf("# %-28s %14.6g %-12s %" PRIu64 " failed of %" PRIu64
                " simulation calls\n",
                "fail_rate", att ? double(bad) / double(att) : 0.0,
                "ratio", bad, att);

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                bad == 0 ? "true" : "false", att, bad);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "darco_perfbench: %s\n"
                 "usage: darco_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR]\n"
                 "workloads:",
                 msg);
    for (const WorkloadDef &w : workloadDefs())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--work-dir") {
            a.workDir = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end && *end)
            usage(("bad number for " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

int
run(const Args &args)
{
    const WorkloadDef *w = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (d.name == args.workload)
            w = &d;
    if (!w)
        usage(("unknown workload " + args.workload).c_str());

    // Set-up, repeated (at least 9 times and 0.25 s) so its median is
    // steady even where one set-up takes well under a millisecond.
    std::vector<double> setupS;
    for (double spent = 0; setupS.size() < 9 ||
                           (spent < 0.25 && setupS.size() < 1000);) {
        setupS.push_back(setupOnce(*w, args.seed));
        spent += setupS.back();
    }

    std::vector<Input> inputs;
    for (const std::string &name : w->programs) {
        Input in;
        in.name = name;
        in.cfg = workloadConfig(*w);
        in.program = workloads::synthesize(suiteParams(name, args.seed));
        runReference(in);
        inputs.push_back(std::move(in));
    }

    Gate gate;
    std::string ckptDir =
        args.workDir + "/ckpt-" + std::to_string(::getpid());
    auto onePass = [&](bool traced) {
        Pass p = w->sampled
                     ? sampledPass(*w, inputs.front(), ckptDir, gate)
                     : controllerPass(*w, inputs, traced, gate);
        if (traced && w->sampled) {
            // runJob owns its Controllers, so the Controller-level
            // split is taken on its first phase: the functional
            // BBV-profiling run, replayed here with the interposers.
            // Its TOL counts must equal the job's own profiling pass.
            Input prof = inputs.front();
            prof.cfg.set("tol.bbv_interval",
                         s64(campaign::RunOptions().sampleInterval));
            Sim s = simulate(prof, false, true, gate,
                             prof.name + "/profile");
            std::string error;
            for (const char *k : {"tol.translations", "tol.im_insts",
                                  "tol.evictions", "tol.overhead_units",
                                  "sim.sync_calls"})
                if (s.counts[k] != p.counts[k])
                    error += std::string(k) + " differs from the job; ";
            gate.check(prof.name + "/profile-vs-job", error, {});
            p.counts["host.insts"] = s.counts["host.insts"];
            p.counts["host.rollbacks"] = s.counts["host.rollbacks"];
            p.runS = s.runS;
            p.syncS = s.syncS;
        }
        return p;
    };

    // Whole passes until the next one would overrun the budget (at
    // least one); traced runs alternate which side goes first.
    std::vector<Pass> plain, traced;
    auto t0 = Clock::now();
    for (int i = 0;; ++i) {
        auto ti = Clock::now();
        if (args.trace && i % 2)
            traced.push_back(onePass(true));
        plain.push_back(onePass(false));
        if (args.trace && i % 2 == 0)
            traced.push_back(onePass(true));
        if (since(t0) + since(ti) > args.seconds)
            break;
    }

    auto med = [](const std::vector<Pass> &ps, auto field) {
        std::vector<double> v;
        for (const Pass &p : ps)
            v.push_back(field(p));
        return median(v);
    };
    double plainMips = pooledMips(plain);
    std::string plainBasis = std::to_string(plain.size()) + " passes pooled";

    std::vector<Metric> out;
    if (!args.trace) {
        out.push_back({"guest_mips", plainMips, "MIPS", plainBasis});
        out.push_back(
            {"setup_s", median(setupS), "s", medianOf(setupS.size())});
        // Printed beside the JSON metrics, not in them: see README.md.
        std::vector<Metric> info = {
            {"peak_rss_mb", peakRssMb(), "MB", "end of run"}};
        if (w->timing) {
            const Counts &c = plain.front().counts;
            info.push_back({"sim_cpi", c.at("timing.cycles") / c.at("insts"),
                            "cycles/inst", exact});
        }
        report(out, info, gate);
        return 0;
    }

    // --- traced run: per-layer metrics --------------------------------
    std::vector<double> refMips;
    for (Input &in : inputs)
        for (int i = 0; i < 3; ++i) {
            runReference(in);
            refMips.push_back(double(in.refInsts) / in.refSeconds / 1e6);
        }
    SnapshotProbe snap = snapshotProbe(inputs.front(), gate);
    // The campaign and sampling layers: the sampled workload's own
    // passes; elsewhere one cold + warm SimPoint job on the first
    // program under the workload's config.
    std::vector<Pass> jobs =
        w->sampled ? traced
                   : std::vector<Pass>{
                         sampledPass(*w, inputs.front(), ckptDir, gate)};
    const Counts &jc = jobs.front().counts;

    const Counts &c = traced.front().counts;
    auto count = [&](const std::string &k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    std::string per = medianOf(traced.size());
    std::string tracedBasis =
        std::to_string(traced.size()) + " passes pooled";
    double insts = count("insts");
    double runS = med(traced, [](const Pass &p) { return p.runS; });
    double syncS = med(traced, [](const Pass &p) { return p.syncS; });
    double timingS = med(traced, [](const Pass &p) { return p.timingS; });
    double tolS = med(traced, [](const Pass &p) {
        return p.runS - p.syncS - p.timingS;
    });
    double records = count("timing.records");
    double tracedMips = pooledMips(traced);

    out = {
        {"sim.run_s", runS, "s", per},
        {"sim.sync_s", syncS, "s", per},
        {"sim.sync_calls", count("sim.sync_calls"), "count", exact},
        {"sim.sync_share", med(traced,
                               [](const Pass &p) {
                                   return p.runS > 0 ? p.syncS / p.runS
                                                     : 0;
                               }),
         "ratio", per},
        {"xemu.ref_mips", median(refMips), "MIPS", medianOf(refMips.size())},
        {"timing.self_s", timingS, "s", per},
        {"timing.ns_per_record",
         records > 0 ? med(traced,
                           [&](const Pass &p) {
                               return p.timingS / records * 1e9;
                           })
                     : 0,
         "ns", per},
        {"timing.records_per_guest", insts > 0 ? records / insts : 0,
         "ratio", exact},
        {"timing.cycles", count("timing.cycles"), "count", exact},
        {"timing.cpi", insts > 0 ? count("timing.cycles") / insts : 0,
         "cycles/inst", exact},
        {"timing.l1d.misses", count("timing.l1d.misses"), "count", exact},
        {"timing.l2.misses", count("timing.l2.misses"), "count", exact},
        {"timing.bpred.mispredicts", count("timing.bpred.mispredicts"),
         "count", exact},
        {"timing.fetch_stall_cycles", count("timing.fetch_stall_cycles"),
         "count", exact},
        {"power.analyze_s", med(traced, [](const Pass &p) {
             return p.powerS;
         }),
         "s", per},
        {"tol.self_s", tolS, "s", per},
        {"tol.translations", count("tol.translations"), "count", exact},
        {"tol.im_insts", count("tol.im_insts"), "count", exact},
        {"tol.evictions", count("tol.evictions"), "count", exact},
        {"tol.overhead_units", count("tol.overhead_units"), "count", exact},
        {"tol.host_per_guest", insts > 0 ? count("host.insts") / insts : 0,
         "ratio", exact},
        {"host.insts", count("host.insts"), "count", exact},
        {"host.rollbacks", count("host.rollbacks"), "count", exact},
        {"campaign.cold_job_s", med(jobs, [](const Pass &p) {
             return p.coldS;
         }),
         "s", medianOf(jobs.size())},
        {"campaign.warm_job_s", med(jobs, [](const Pass &p) {
             return p.warmS;
         }),
         "s", medianOf(jobs.size())},
        {"snapshot.save_s", median(snap.saveS), "s", medianOf(snap.saveS.size())},
        {"snapshot.restore_s", median(snap.restoreS), "s",
         medianOf(snap.restoreS.size())},
        {"snapshot.bytes", double(snap.bytes), "bytes", exact},
        {"sampling.simpoints", jc.at("sampling.simpoints"), "count", exact},
        {"sampling.sampled_insts", jc.at("sampling.sampled_insts"), "count",
         exact},
        {"trace.overhead_pct",
         tracedMips > 0 ? (plainMips / tracedMips - 1) * 100 : 0, "%",
         tracedBasis},
        {"trace.guest_mips", tracedMips, "MIPS", tracedBasis},
        {"trace.untraced_guest_mips", plainMips, "MIPS", plainBasis},
        {"process.peak_rss_mb", peakRssMb(), "MB", "end of run"},
    };
    report(out, {}, gate);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "darco_perfbench: %s\n", e.what());
        return 1;
    }
}
