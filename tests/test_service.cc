/**
 * @file
 * Distributed campaign-service tests, all over loopback TCP:
 *
 *  - end-to-end equivalence: a coordinator + two worker processes
 *    (in-process threads here) produce results byte-identical to a
 *    local runCampaign — every field, the full stats map, and the CSV
 *    report with the provenance columns stripped;
 *  - fault tolerance: a worker that dies holding a job, and a worker
 *    that stays alive (pinging) but never finishes, both get their job
 *    reassigned and the campaign still completes correctly;
 *  - manifest resume: a restarted coordinator re-emits journaled rows
 *    without re-running them, drops a torn tail from a crashed
 *    predecessor, and refuses a manifest from a different campaign;
 *  - the content-addressed checkpoint store deduplicates the
 *    fast-forward prefix across jobs over the wire;
 *  - the bounded dispatch window applies backpressure but never
 *    deadlocks.
 *
 * Fault injection speaks the raw wire protocol through net::Socket
 * directly, so the tests cover exactly what a hostile or crashing
 * peer can do to the coordinator.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/service.hh"
#include "campaign/wire.hh"
#include "common/logging.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "workloads/synth.hh"

using namespace darco;
using namespace darco::campaign;

namespace
{

guest::Program
smallWorkload(const std::string &name, u64 seed)
{
    workloads::WorkloadParams p;
    p.name = name;
    p.seed = seed;
    p.numBlocks = 32;
    p.outerIters = 140;
    p.fpFrac = seed % 2 ? 0.2 : 0.0;
    p.loopFrac = 0.10;
    return workloads::synthesize(p);
}

/** 2 workloads x 3 configs, fast promotion thresholds. */
std::vector<Job>
matrix6(u64 maxInsts = ~0ull, u64 skip = 0)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", smallWorkload("wl-a", 11)},
        {"wl-b", smallWorkload("wl-b", 12)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    return expandMatrix(
        wls, presetConfigs({"interp", "noopt", "fullopt"}, extra),
        maxInsts, skip);
}

std::string
scratchDir()
{
    const ::testing::TestInfo *ti =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = std::string(::testing::TempDir()) + "darco-" +
                      ti->test_suite_name() + "-" + ti->name();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Start an in-process worker against a loopback coordinator. */
std::thread
spawnWorker(u16 port, const std::string &id, int *rc)
{
    return std::thread([port, id, rc]() {
        WorkerOptions w;
        w.port = port;
        w.workerId = id;
        *rc = runWorker(w);
    });
}

/**
 * Everything that must be byte-identical between a local and a
 * distributed run: every result field except the provenance pair
 * (workerId, wallMs), including the full stats map.
 */
void
expectIdenticalResults(const CampaignResult &local,
                       const CampaignResult &dist)
{
    ASSERT_EQ(local.results.size(), dist.results.size());
    for (std::size_t i = 0; i < local.results.size(); ++i) {
        const JobResult &x = local.results[i];
        const JobResult &y = dist.results[i];
        SCOPED_TRACE(x.workload + "/" + x.configName);
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.configName, y.configName);
        EXPECT_EQ(x.ok, y.ok);
        EXPECT_EQ(x.error, y.error);
        EXPECT_EQ(x.exitCode, y.exitCode);
        EXPECT_EQ(x.insts, y.insts);
        EXPECT_EQ(x.bbs, y.bbs);
        EXPECT_EQ(x.finished, y.finished);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.ipc, y.ipc);
        EXPECT_EQ(x.energyJ, y.energyJ);
        EXPECT_EQ(x.avgPowerW, y.avgPowerW);
        EXPECT_EQ(x.sampleMode, y.sampleMode);
        EXPECT_EQ(x.simpoints, y.simpoints);
        EXPECT_EQ(x.sampledInsts, y.sampledInsts);
        EXPECT_EQ(x.stats, y.stats);
        EXPECT_EQ(x.statsJson, y.statsJson);
        EXPECT_EQ(x.effectiveConfig, y.effectiveConfig);
    }
}

/** Drop the two trailing provenance cells from every CSV line. */
std::string
stripProvenance(const std::string &csv)
{
    std::istringstream is(csv);
    std::ostringstream os;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t c2 = line.rfind(',');
        std::size_t c1 = line.rfind(',', c2 - 1);
        os << line.substr(0, c1) << '\n';
    }
    return os.str();
}

/** Raw wire-protocol client for fault injection. */
struct RawClient
{
    net::Socket sock;

    void
    connect(u16 port, const std::string &id)
    {
        sock = net::connectTo("127.0.0.1", port, 2000);
        net::sendFrame(sock,
                       wire::encode(wire::msg::hello,
                                    [&](snapshot::Serializer &s) {
                                        s.w32(wire::protoVersion);
                                        s.wstr(id);
                                    }));
        std::string payload;
        ASSERT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        wire::Decoder welcome(payload);
        ASSERT_EQ(welcome.type, wire::msg::welcome);
    }

    /** Ask for work; returns the granted job index (asserts a grant). */
    u64
    takeJob()
    {
        net::sendFrame(sock, wire::encode(wire::msg::next));
        std::string payload;
        EXPECT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        wire::Decoder m(payload);
        EXPECT_EQ(m.type, wire::msg::job);
        return m.d.r64();
    }

    void
    ping()
    {
        net::sendFrame(sock, wire::encode(wire::msg::ping));
    }

    /** Deliver a result; returns the type of the coordinator's reply. */
    std::string
    deliver(u64 idx, const JobResult &r)
    {
        net::sendFrame(sock, wire::encode(wire::msg::result,
                                          [&](snapshot::Serializer &s) {
                                              s.w64(idx);
                                              wire::writeResult(s, r);
                                          }));
        std::string payload;
        EXPECT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        return wire::Decoder(payload).type;
    }
};

} // namespace

TEST(ServiceLoopback, TwoWorkersMatchLocalBitForBit)
{
    std::vector<Job> jobs = matrix6();

    RunOptions local;
    local.jobs = 2;
    CampaignResult base = runCampaign(jobs, local);

    std::vector<std::size_t> rowOrder;
    ServiceOptions svc;
    svc.onRow = [&rowOrder](std::size_t i, const JobResult &) {
        rowOrder.push_back(i);
    };
    Coordinator coord(jobs, svc);
    int rc1 = -1, rc2 = -1;
    std::thread w1 = spawnWorker(coord.port(), "alpha", &rc1);
    std::thread w2 = spawnWorker(coord.port(), "beta", &rc2);
    CampaignResult dist = coord.wait();
    w1.join();
    w2.join();

    EXPECT_EQ(rc1, 0);
    EXPECT_EQ(rc2, 0);
    EXPECT_EQ(coord.workersSeen(), 2u);
    EXPECT_EQ(coord.completedJobs(), jobs.size());
    EXPECT_EQ(coord.reassignments(), 0u);

    expectIdenticalResults(base, dist);
    EXPECT_EQ(stripProvenance(base.csv()), stripProvenance(dist.csv()));

    // Rows streamed strictly in submission order, and every row names
    // the worker that ran it.
    std::vector<std::size_t> expected(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expected[i] = i;
    EXPECT_EQ(rowOrder, expected);
    for (const JobResult &r : dist.results) {
        EXPECT_TRUE(r.workerId == "alpha" || r.workerId == "beta")
            << "'" << r.workerId << "'";
        EXPECT_GE(r.wallMs, 0.0);
    }
}

TEST(ServiceFault, DeadWorkerJobIsReassigned)
{
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    Coordinator coord(jobs, svc);

    // A worker takes a job and dies (EOF) without finishing it.
    RawClient victim;
    victim.connect(coord.port(), "victim");
    if (::testing::Test::HasFatalFailure())
        return;
    victim.takeJob();
    victim.sock.close();

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "survivor", &rc);
    CampaignResult res = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    EXPECT_GE(coord.reassignments(), 1u);
    ASSERT_EQ(res.results.size(), jobs.size());
    for (const JobResult &r : res.results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.workerId, "survivor");
    }

    RunOptions local;
    local.jobs = 1;
    expectIdenticalResults(runCampaign(jobs, local), res);
}

TEST(ServiceFault, ExpiredLeaseIsReassignedWhileWorkerStillPings)
{
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.leaseMs = 300;          // expire quickly
    svc.deadAfterMs = 60'000;   // pings must NOT save the lease
    Coordinator coord(jobs, svc);

    // This worker is alive (heartbeats flowing) but never delivers:
    // only the lease, not the liveness check, can free its job.
    RawClient stuck;
    stuck.connect(coord.port(), "stuck");
    if (::testing::Test::HasFatalFailure())
        return;
    u64 stuckJob = stuck.takeJob();
    std::atomic<bool> stop{false};
    std::thread pinger([&stuck, &stop]() {
        while (!stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            try {
                stuck.ping();
            } catch (const net::NetError &) {
                return; // coordinator hung up after completion
            }
        }
    });

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "runner", &rc);
    CampaignResult res = coord.wait();
    stop.store(true);
    pinger.join();
    w.join();

    EXPECT_GE(coord.reassignments(), 1u);
    ASSERT_EQ(res.results.size(), jobs.size());
    for (const JobResult &r : res.results)
        EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(res.results[stuckJob].workerId, "runner");
}

TEST(ServiceManifest, RestartResumesWithoutRerunning)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.manifestPath = manifest;

    CampaignResult first;
    {
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        first = coord.wait();
        w.join();
        EXPECT_EQ(rc, 0);
        EXPECT_EQ(coord.resumedFromManifest(), 0u);
    }

    // A crashed coordinator can die mid-append: simulate with garbage
    // after the last complete record. The resume must drop it.
    {
        std::ofstream f(manifest,
                        std::ios::binary | std::ios::app);
        f << "\x07torn";
    }

    // Restart: every row comes from the journal, no worker needed,
    // and the report (provenance included — it is replayed verbatim)
    // matches the first run.
    std::vector<std::size_t> rowOrder;
    svc.onRow = [&rowOrder](std::size_t i, const JobResult &) {
        rowOrder.push_back(i);
    };
    Coordinator coord(jobs, svc);
    EXPECT_EQ(coord.resumedFromManifest(), jobs.size());
    CampaignResult resumed = coord.wait();
    EXPECT_EQ(rowOrder.size(), jobs.size());
    EXPECT_EQ(first.csv(), resumed.csv());
    EXPECT_EQ(first.json(), resumed.json());

    std::filesystem::remove_all(dir);
}

TEST(ServiceManifest, TornFinalRecordIsReRun)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.manifestPath = manifest;

    CampaignResult first;
    {
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        first = coord.wait();
        w.join();
    }

    // Chop into the last record — the crash landed mid-write.
    auto size = std::filesystem::file_size(manifest);
    std::filesystem::resize_file(manifest, size - 5);

    Coordinator coord(jobs, svc);
    EXPECT_EQ(coord.resumedFromManifest(), jobs.size() - 1);
    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "rerun", &rc);
    CampaignResult resumed = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    expectIdenticalResults(first, resumed);

    std::filesystem::remove_all(dir);
}

TEST(ServiceManifest, DifferentCampaignIsRefused)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";

    ServiceOptions svc;
    svc.manifestPath = manifest;
    {
        Coordinator coord(matrix6(), svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        coord.wait();
        w.join();
    }

    // Same manifest, different campaign (budget changed): refuse
    // rather than mixing incompatible rows into one report.
    EXPECT_THROW(Coordinator(matrix6(120'000), svc), FatalError);

    std::filesystem::remove_all(dir);
}

TEST(ServiceStore, PrefixCheckpointSharedAcrossJobs)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-ck", smallWorkload("wl-ck", 21)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    // Two cells with *identical* execution identity (same config
    // content under different display names) and a skip prefix: the
    // content-addressed store must compute the prefix once and serve
    // the second job from cache.
    std::vector<std::pair<std::string, Config>> cells =
        presetConfigs({"fullopt"}, extra);
    cells.emplace_back("fullopt-again", cells[0].second);
    std::vector<Job> jobs = expandMatrix(wls, cells, ~0ull, 40'000);
    ASSERT_EQ(jobKeyString(jobs[0]), jobKeyString(jobs[1]));

    ServiceOptions svc;
    svc.storeDir = dir + "/store";
    Coordinator coord(jobs, svc);
    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "solo", &rc);
    CampaignResult res = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    ASSERT_EQ(res.results.size(), 2u);
    for (const JobResult &r : res.results)
        EXPECT_TRUE(r.ok) << r.error;
    // One worker runs the jobs in order: first computes + publishes,
    // second hits.
    EXPECT_TRUE(res.results[0].checkpointStored);
    EXPECT_FALSE(res.results[0].checkpointHit);
    EXPECT_TRUE(res.results[1].checkpointHit);
    EXPECT_FALSE(res.results[1].checkpointStored);
    EXPECT_TRUE(std::filesystem::exists(
        svc.storeDir + "/" + jobKeyString(jobs[0]) + ".ckpt"));

    // And the results agree with a local run through an in-memory
    // store (like-for-like: a restored prefix re-translates lazily,
    // so its translation-side stats legitimately differ from a
    // never-checkpointed run — locally and distributed alike).
    class MemStore : public CheckpointStore
    {
      public:
        bool
        fetch(const std::string &key, std::string *image) override
        {
            auto it = map_.find(key);
            if (it == map_.end())
                return false;
            *image = it->second;
            return true;
        }
        void
        store(const std::string &key, const std::string &image) override
        {
            map_[key] = image;
        }

      private:
        std::map<std::string, std::string> map_;
    } mem;
    RunOptions local;
    local.jobs = 1;
    local.store = &mem;
    CampaignResult localRes = runCampaign(jobs, local);
    EXPECT_TRUE(localRes.results[0].checkpointStored);
    EXPECT_TRUE(localRes.results[1].checkpointHit);
    expectIdenticalResults(localRes, res);

    std::filesystem::remove_all(dir);
}

TEST(ServiceBackpressure, WindowOfOneStillCompletes)
{
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.window = 1;      // fully serial dispatch
    svc.waitDelayMs = 20;
    Coordinator coord(jobs, svc);
    int rc1 = -1, rc2 = -1;
    std::thread w1 = spawnWorker(coord.port(), "a", &rc1);
    std::thread w2 = spawnWorker(coord.port(), "b", &rc2);
    CampaignResult res = coord.wait();
    w1.join();
    w2.join();

    EXPECT_EQ(rc1, 0);
    EXPECT_EQ(rc2, 0);
    for (const JobResult &r : res.results)
        EXPECT_TRUE(r.ok) << r.error;
    // With two workers racing one dispatch slot, the loser was told
    // to wait at least once.
    EXPECT_GE(coord.waitsIssued(), 1u);
}

// A worker told to `wait` while the last job is still out sleeps
// through the end of the campaign and pings meanwhile; its connection
// thread sends `shutdown` as soon as the last result lands. When the
// worker wakes and asks for work again, it must read that shutdown and
// end with rc=0, not die on a connection the coordinator has closed.
TEST(ServiceShutdown, WorkerWaitingWhenLastResultLandsExitsCleanly)
{
    std::vector<Job> jobs = matrix6();
    jobs.resize(1);

    ServiceOptions svc;
    svc.waitDelayMs = 1500; // asleep well past the campaign's end
    svc.heartbeatMs = 400;  // pinging while asleep
    Coordinator coord(jobs, svc);

    RawClient holder;
    holder.connect(coord.port(), "holder");
    if (::testing::Test::HasFatalFailure())
        return;
    u64 idx = holder.takeJob();

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "sleeper", &rc);
    while (coord.waitsIssued() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    JobResult r;
    r.workload = jobs[idx].workload;
    r.configName = jobs[idx].configName;
    r.ok = true;
    EXPECT_EQ(holder.deliver(idx, r), wire::msg::shutdown);
    CampaignResult res = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    EXPECT_EQ(coord.completedJobs(), 1u);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_EQ(res.results[0].workerId, "holder");
}

// The worker half of the same race, against a coordinator that does
// not drain: it queues `wait` and `shutdown`, then resets the
// connection while the worker sleeps. The worker's `next` then hits a
// dead socket, but the shutdown already sits in its receive queue, so
// this is still a clean end.
TEST(ServiceShutdown, WorkerReadsQueuedShutdownBehindReset)
{
    net::Listener listener("127.0.0.1", 0);
    int rc = -1;
    std::thread w = spawnWorker(listener.port(), "sleeper", &rc);

    std::optional<net::Socket> conn = listener.accept(5000);
    ASSERT_TRUE(conn.has_value());
    std::string payload;
    ASSERT_EQ(net::recvFrame(*conn, payload, 5000), net::RecvStatus::Ok);
    EXPECT_EQ(wire::Decoder(payload).type, wire::msg::hello);
    net::sendFrame(*conn, wire::encode(wire::msg::welcome,
                                       [](snapshot::Serializer &s) {
                                           s.w32(wire::protoVersion);
                                           s.wstr("sleeper");
                                           wire::writeRunOptions(
                                               s, RunOptions{});
                                           s.w64(60'000); // heartbeat
                                           s.wbool(false);
                                       }));
    ASSERT_EQ(net::recvFrame(*conn, payload, 5000), net::RecvStatus::Ok);
    EXPECT_EQ(wire::Decoder(payload).type, wire::msg::next);
    net::sendFrame(*conn, wire::encode(wire::msg::wait,
                                       [](snapshot::Serializer &s) {
                                           s.w64(300);
                                       }));
    net::sendFrame(*conn, wire::encode(wire::msg::shutdown));
    linger hard{1, 0}; // close with a reset, not a FIN
    ::setsockopt(conn->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    conn->close();
    w.join();
    EXPECT_EQ(rc, 0);
}

TEST(Wire, JobAndResultRoundTrip)
{
    std::vector<Job> jobs = matrix6(500'000, 1000);
    const Job &job = jobs[3];
    {
        std::string payload = wire::encode(
            wire::msg::job, [&](snapshot::Serializer &s) {
                s.w64(3);
                wire::writeJob(s, job);
            });
        wire::Decoder m(payload);
        ASSERT_EQ(m.type, wire::msg::job);
        EXPECT_EQ(m.d.r64(), 3u);
        Job back = wire::readJob(m.d);
        EXPECT_EQ(back.workload, job.workload);
        EXPECT_EQ(back.configName, job.configName);
        EXPECT_EQ(back.program.code, job.program.code);
        EXPECT_EQ(back.program.data, job.program.data);
        EXPECT_EQ(back.program.entry, job.program.entry);
        EXPECT_EQ(back.config.entries(), job.config.entries());
        EXPECT_EQ(back.maxInsts, job.maxInsts);
        EXPECT_EQ(back.skip, job.skip);
    }

    JobResult r;
    r.workload = "w";
    r.configName = "c";
    r.ok = true;
    r.error = "none";
    r.insts = 123;
    r.bbs = 45;
    r.finished = true;
    r.checkpointHit = true;
    r.wallMs = 1.5;
    r.workerId = "worker-7";
    r.cycles = 1e6;
    r.ipc = 1.25;
    r.stats = {{"tol.guest_im", 7}, {"cc.flushes", 1}};
    r.statsJson = "{\"a\": 1}";
    r.effectiveConfig = {{"cores", "1"}};
    {
        std::string payload = wire::encode(
            wire::msg::result, [&](snapshot::Serializer &s) {
                s.w64(9);
                wire::writeResult(s, r);
            });
        wire::Decoder m(payload);
        ASSERT_EQ(m.type, wire::msg::result);
        EXPECT_EQ(m.d.r64(), 9u);
        JobResult back = wire::readResult(m.d);
        EXPECT_EQ(back.workload, r.workload);
        EXPECT_EQ(back.ok, r.ok);
        EXPECT_EQ(back.error, r.error);
        EXPECT_EQ(back.insts, r.insts);
        EXPECT_EQ(back.checkpointHit, r.checkpointHit);
        EXPECT_EQ(back.wallMs, r.wallMs);
        EXPECT_EQ(back.workerId, r.workerId);
        EXPECT_EQ(back.cycles, r.cycles);
        EXPECT_EQ(back.ipc, r.ipc);
        EXPECT_EQ(back.stats, r.stats);
        EXPECT_EQ(back.statsJson, r.statsJson);
        EXPECT_EQ(back.effectiveConfig, r.effectiveConfig);
    }
}
