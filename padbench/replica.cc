/**
 * @file
 * padbench_trace — the in-process half of the benchmark.
 *
 * Rebuilds one benchmark workload in-process from the library's
 * public calls and records a span around each call into a layer:
 *
 *   trace      SyntheticGoogleTrace::generate, Workload construction
 *   engine     makeClusterEngine, runCoarseUntil / stepCoarse,
 *              runAttack, exportStats
 *   runner     one span per experiment job, rackByLoadPercentile
 *   telemetry  hub recording inside coarse steps (hub-on minus
 *              hub-off over the same coarse span)
 *   alert      AlertEngine samples (a forwarding SampleListener) and
 *              finalize
 *   rw         RemoteWriteShipper::observe / finish
 *   rx         parseRwBatchLine over captured batch lines
 *   prom       PromWriter::render
 *
 * Spans stay in memory and are written to <out>/spans.jsonl at exit.
 * A layer's self time is its spans' durations minus their children's
 * (and minus time credited to a nested layer); self times plus
 * `unattributed_s` sum to the replica's wall time by construction.
 *
 * Modes (each prints one JSON object of metrics on stdout):
 *
 *   padbench_trace fig15 --out DIR [--spans 0|1]
 *       the fig15_survival_time grid; writes DIR/fig15_table.txt
 *   padbench_trace fleet --out DIR --rules FILE --days D
 *       --duration S --seed N [--push-port P | --capture DIR]
 *       [--spool FILE] [--spans 0|1]
 *       the padd --speed max loop, pushing into an in-process
 *       ReceiverServer (writes dump.txt), into the receiver listening
 *       on 127.0.0.1:P, or (--capture) into DIR as spool files, with
 *       the sim loop waiting whenever the shipper's queue is full;
 *       writes incidents.jsonl, stats.json
 *   padbench_trace live --out DIR --rules FILE --days D
 *       --duration S --seed N [--spans 0|1]
 *       the padd loop with a Prometheus render after every coarse
 *       step; writes incidents.jsonl, stats.json
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "alert/engine.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "attack/attacker.h"
#include "attack/power_virus.h"
#include "attack/virus_trace.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "core/schemes.h"
#include "engine/backend.h"
#include "obs/tracer.h"
#include "runner/experiment.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "telemetry/receiver.h"
#include "telemetry/remote_write.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/json_writer.h"
#include "util/table.h"
#include "util/types.h"

using namespace pad;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** In-memory span recorder; a no-op when disabled. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    void
    begin(const char *name)
    {
        if (!on_)
            return;
        const int parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, nowNs(), 0, parent, 0});
    }

    void
    end()
    {
        if (!on_)
            return;
        spans_[static_cast<std::size_t>(stack_.back())].end = nowNs();
        stack_.pop_back();
    }

    /**
     * Move @p ns measured inside the innermost open span to @p layer
     * (time a nested layer spent without a span of its own).
     */
    void
    credit(const std::string &layer, std::int64_t ns)
    {
        if (!on_ || stack_.empty())
            return;
        spans_[static_cast<std::size_t>(stack_.back())].credited += ns;
        credits_[layer] += ns;
    }

    /** Move @p ns of already-recorded self time between layers. */
    void
    shift(const std::string &from, const std::string &to,
          std::int64_t ns)
    {
        credits_[from] -= ns;
        credits_[to] += ns;
    }

    /** Total duration of every span named @p name, seconds. */
    double
    total(const std::string &name) const
    {
        std::int64_t ns = 0;
        for (const Span &s : spans_)
            if (name == s.name)
                ns += s.end - s.start;
        return ns * 1e-9;
    }

    /** Durations of every span named @p name, seconds. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (name == s.name)
                out.push_back((s.end - s.start) * 1e-9);
        return out;
    }

    /** Self time per layer (the span name up to its first '.'). */
    std::map<std::string, double>
    selfByLayer() const
    {
        std::vector<std::int64_t> childNs(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        std::map<std::string, std::int64_t> ns;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const std::string name = s.name;
            ns[name.substr(0, name.find('.'))] +=
                s.end - s.start - childNs[i] - s.credited;
        }
        for (const auto &[layer, v] : credits_)
            ns[layer] += v;
        std::map<std::string, double> out;
        for (const auto &[layer, v] : ns)
            out[layer] = v * 1e-9;
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"name\":\"" << s.name << "\",\"start_ns\":"
               << s.start << ",\"end_ns\":" << s.end << "}\n";
        }
    }

  private:
    struct Span {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        std::int64_t credited;
    };

    bool on_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, std::int64_t> credits_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, const char *name) : t_(t) { t_.begin(name); }
    ~Span() { t_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

/** Cost of one steady_clock pair, for the per-sample listener. */
std::int64_t
clockPairNs()
{
    constexpr int kReps = 100000;
    std::int64_t sink = 0;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kReps; ++i)
        sink += nowNs() - nowNs();
    const std::int64_t t1 = nowNs();
    return (t1 - t0 + (sink & 1)) / kReps;
}

/**
 * Forwards hub samples to the AlertEngine, timing each call and
 * crediting the time (less the clock cost) to the alert layer.
 */
class TimedAlertListener : public telemetry::SampleListener
{
  public:
    TimedAlertListener(alert::AlertEngine &engine, Tracer &tracer,
                       std::int64_t clockNs)
        : engine_(engine), tracer_(tracer), clockNs_(clockNs)
    {
    }

    void
    onSample(std::string_view name, Tick when, double value) override
    {
        const std::int64_t t0 = tracer_.on() ? nowNs() : 0;
        engine_.onSample(name, when, value);
        account(t0);
    }

    void
    onSample(std::uint32_t id, std::string_view name, Tick when,
             double value) override
    {
        const std::int64_t t0 = tracer_.on() ? nowNs() : 0;
        engine_.onSample(id, name, when, value);
        account(t0);
    }

    std::uint64_t samples = 0;
    std::int64_t ns = 0;

  private:
    void
    account(std::int64_t t0)
    {
        ++samples;
        if (!tracer_.on())
            return;
        const std::int64_t d =
            std::max<std::int64_t>(0, nowNs() - t0 - clockNs_);
        ns += d;
        tracer_.credit("alert", d);
    }

    alert::AlertEngine &engine_;
    Tracer &tracer_;
    std::int64_t clockNs_;
};

struct Args {
    std::string mode;
    std::string out = ".";
    std::string rules;
    std::string spool;
    std::string capture;
    int pushPort = 0;
    double days = 2.0;
    double duration = 0.0;
    std::uint64_t seed = 42;
    bool spans = true;
};

[[noreturn]] void
usage()
{
    std::cerr << "usage: padbench_trace fig15|fleet|live --out DIR "
                 "[--rules FILE] [--days D] [--duration S] "
                 "[--seed N] [--push-port P] [--capture DIR] "
                 "[--spool FILE] [--spans 0|1]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (arg == "--out")
            a.out = v;
        else if (arg == "--rules")
            a.rules = v;
        else if (arg == "--spool")
            a.spool = v;
        else if (arg == "--capture")
            a.capture = v;
        else if (arg == "--push-port")
            a.pushPort = std::atoi(v.c_str());
        else if (arg == "--days")
            a.days = std::atof(v.c_str());
        else if (arg == "--duration")
            a.duration = std::atof(v.c_str());
        else if (arg == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (arg == "--spans")
            a.spans = v != "0";
        else
            usage();
    }
    if (a.mode != "fig15" && a.mode != "fleet" && a.mode != "live")
        usage();
    if (a.mode != "fig15" && (a.rules.empty() || a.duration <= 0.0))
        usage();
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Metrics = std::map<std::string, double>;

void
printMetrics(const Metrics &m)
{
    JsonWriter w(std::cout);
    w.beginObject();
    for (const auto &[k, v] : m)
        w.key(k).value(v);
    w.endObject();
    std::cout << "\n";
}

/** Self times, unattributed remainder and wall, into @p m. */
void
addSelfTimes(const Tracer &t, double wall, Metrics &m)
{
    double attributed = 0.0;
    for (const auto &[layer, s] : t.selfByLayer()) {
        m[layer + ".self_s"] = s;
        attributed += s;
    }
    m["replica_wall_s"] = wall;
    m["unattributed_s"] = wall - attributed;
}

// ------------------------------------------------------------ fig15

/**
 * The fig15_survival_time grid, job by job, with the same calls (and
 * arguments) runner::runExperiment makes for a ClusterAttack job.
 */
int
runFig15(const Args &a)
{
    constexpr double kHorizonSec = 1600.0;
    Tracer t(a.spans);
    Metrics m;
    const auto w0 = Clock::now();

    runner::ClusterWorkload cw;
    cw.traceConfig.machines = 220;
    cw.traceConfig.days = 3.0;
    {
        Span s(t, "trace.generate");
        cw.events = trace::SyntheticGoogleTrace(cw.traceConfig).generate();
    }
    {
        Span s(t, "trace.workload");
        cw.workload = std::make_unique<trace::Workload>(
            cw.events, cw.traceConfig.machines,
            static_cast<Tick>(3.0 * kTicksPerDay));
    }

    std::uint64_t coarseSteps = 0;
    std::uint64_t fineTicks = 0;
    std::vector<double> survival;
    for (attack::VirusKind kind : attack::kAllVirusKinds)
        for (attack::AttackStyle style : attack::kAllAttackStyles)
            for (core::SchemeKind scheme : core::kAllSchemes) {
                Span job(t, "runner.job");
                runner::ClusterAttackSpec spec;
                spec.scheme = scheme;
                spec.kind = kind;
                spec.train = attack::spikeTrainFor(style, kind);
                spec.durationSec = kHorizonSec;

                core::DataCenterConfig cfg =
                    runner::clusterConfig(spec.scheme);
                cfg.budgetFraction = spec.budgetFraction;
                cfg.clusterBudgetFraction = spec.clusterBudgetFraction;
                std::unique_ptr<engine::ClusterEngine> dc;
                {
                    Span s(t, "engine.create");
                    dc = engine::makeClusterEngine(
                        engine::BackendKind::Optimized, cfg,
                        cw.workload.get());
                }
                const Tick warm =
                    kTicksPerDay +
                    static_cast<Tick>(spec.attackHour * kTicksPerHour);
                {
                    Span s(t, "engine.coarse");
                    dc->runCoarseUntil(warm);
                }
                coarseSteps += static_cast<std::uint64_t>(
                    warm / cfg.coarseStep);

                attack::AttackerConfig ac;
                ac.controlledNodes = spec.nodes;
                ac.kind = spec.kind;
                ac.train = spec.train;
                ac.prepareSec = spec.prepareSec;
                ac.maxDrainSec = spec.maxDrainSec;
                ac.learnRounds = spec.learnRounds;
                ac.recoverSec = spec.recoverSec;
                attack::TwoPhaseAttacker attacker(ac);

                core::AttackScenario sc;
                sc.targetPolicy = core::TargetPolicy::Fixed;
                {
                    Span s(t, "runner.rank");
                    const Tick from = dc->now();
                    const Tick to =
                        from + secondsToTicks(spec.durationSec);
                    sc.targetRack = core::rackByLoadPercentile(
                        *cw.workload, cfg, from, to, spec.victimPct);
                    for (int i = 1; i < spec.victimRacks; ++i) {
                        const double pct = std::max(
                            0.0, spec.victimPct -
                                     5.0 * static_cast<double>(i));
                        const int rack = core::rackByLoadPercentile(
                            *cw.workload, cfg, from, to, pct);
                        if (rack != sc.targetRack &&
                            std::find(sc.extraVictimRacks.begin(),
                                      sc.extraVictimRacks.end(),
                                      rack) ==
                                sc.extraVictimRacks.end())
                            sc.extraVictimRacks.push_back(rack);
                    }
                }
                sc.durationSec = spec.durationSec;
                sc.dutyCycle = spec.dutyCycle;

                core::AttackOutcome out;
                const Tick before = dc->now();
                {
                    Span s(t, "engine.attack");
                    out = dc->runAttack(attacker, sc);
                }
                fineTicks += static_cast<std::uint64_t>(
                    (dc->now() - before) / cfg.fineStep);
                sim::StatsRegistry stats;
                {
                    Span s(t, "engine.export");
                    dc->exportStats(stats);
                }
                survival.push_back(out.survivalSec);
            }
    const double wall =
        std::chrono::duration<double>(Clock::now() - w0).count();

    // The survival table exactly as fig15_survival_time prints it.
    TextTable table("survival time by scheme (seconds)");
    table.setHeader({"attack", "Conv", "PS", "PSPC", "uDEB", "vDEB",
                     "PAD"});
    std::vector<double> sums(std::size(core::kAllSchemes), 0.0);
    int scenarios = 0;
    std::size_t job = 0;
    for (attack::VirusKind kind : attack::kAllVirusKinds)
        for (attack::AttackStyle style : attack::kAllAttackStyles) {
            std::vector<double> row;
            for (std::size_t i = 0; i < sums.size(); ++i) {
                row.push_back(survival[job]);
                sums[i] += survival[job++];
            }
            ++scenarios;
            table.addRow(virusKindName(kind) + " " +
                             attackStyleName(style),
                         row, 0);
        }
    std::vector<double> avg;
    for (double s : sums)
        avg.push_back(s / scenarios);
    table.addRow("Avg.", avg, 0);
    std::ofstream(a.out + "/fig15_table.txt") << [&] {
        std::ostringstream os;
        table.print(os);
        return os.str();
    }();

    if (t.on()) {
        const auto jobs = t.durations("runner.job");
        m["trace.generate_s"] = t.total("trace.generate");
        m["trace.workload_s"] = t.total("trace.workload");
        m["trace.events"] = static_cast<double>(cw.events.size());
        m["engine.create_s"] = t.total("engine.create");
        m["engine.coarse_s"] = t.total("engine.coarse");
        m["engine.coarse_steps"] = static_cast<double>(coarseSteps);
        m["engine.attack_s"] = t.total("engine.attack");
        m["engine.fine_ticks"] = static_cast<double>(fineTicks);
        m["engine.export_s"] = t.total("engine.export");
        m["runner.jobs"] = static_cast<double>(jobs.size());
        m["runner.job_p50_s"] = median(jobs);
        m["runner.job_max_s"] =
            jobs.empty() ? 0.0 : *std::max_element(jobs.begin(), jobs.end());
        m["runner.rank_s"] = t.total("runner.rank");
        addSelfTimes(t, wall, m);
        t.write(a.out + "/spans.jsonl");
    } else {
        m["replica_wall_s"] = wall;
    }
    printMetrics(m);
    return 0;
}

// ------------------------------------------------------ padd replicas

/**
 * What service::SessionRuntime builds for a padd session: trace,
 * workload, engine, hub, alert engine (fed through the timed
 * listener) and the streamed incidents file.
 */
struct Session {
    Session(const Args &a, Tracer &t, bool telemetry,
            std::int64_t clockNs = 0)
        : tracer(t)
    {
        trace::SyntheticTraceConfig tc;
        tc.machines = 220;
        tc.days = a.days;
        tc.seed = a.seed;
        {
            Span s(t, "trace.generate");
            events = trace::SyntheticGoogleTrace(tc).generate();
        }
        {
            Span s(t, "trace.workload");
            workload.emplace(events, tc.machines,
                             static_cast<Tick>(tc.days * kTicksPerDay));
        }
        cfg.scheme = core::SchemeKind::Pad;
        cfg.budgetFraction = 0.75;
        cfg.clusterBudgetFraction = 0.70;
        cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
        cfg.seed = a.seed;
        cfg.detectorResponse = false;
        {
            Span s(t, "engine.create");
            engine = engine::makeClusterEngine(
                engine::BackendKind::Optimized, cfg, &*workload);
        }
        if (!telemetry)
            return;
        std::string error;
        auto rules = alert::loadRulesFile(a.rules, &error);
        if (!rules) {
            std::cerr << "padbench_trace: " << error << "\n";
            std::exit(1);
        }
        alerts = std::make_unique<alert::AlertEngine>(std::move(*rules));
        incidents.open(a.out + "/incidents.jsonl");
        alerts->setIncidentSink([this](const alert::Incident &inc) {
            ++sealed;
            alert::writeIncidentLine(incidents, inc);
        });
        feed = std::make_unique<alert::AlertTraceSink>(*alerts, nullptr);
        listener = std::make_unique<TimedAlertListener>(*alerts, t, clockNs);
        engine->setTelemetry(&hub);
        hub.setListener(listener.get());
    }

    void
    warmup(double hour)
    {
        Span s(tracer, "engine.coarse");
        engine->runCoarseUntil(kTicksPerDay +
                               static_cast<Tick>(hour * kTicksPerHour));
    }

    void
    step()
    {
        Span s(tracer, "engine.coarse");
        engine->stepCoarse();
    }

    /** SessionRuntime::finalize with no commands and no attacks. */
    void
    finalize(Tick endTick)
    {
        {
            Span s(tracer, "alert.finalize");
            hub.setListener(nullptr);
            if (alerts)
                alerts->finalize(endTick);
        }
        Span s(tracer, "engine.export");
        engine->exportStats(stats);
        stats.registerScalar("service.end_tick",
                             "sim tick the session ended at")
            .set(static_cast<double>(endTick));
        stats.registerCounter("service.commands",
                              "control commands applied")
            .add(0);
        stats.registerCounter("service.attacks",
                              "attack scenarios injected")
            .add(0);
        stats.registerScalar("service.incidents", "alert incidents sealed")
            .set(static_cast<double>(sealed));
    }

    void
    writeStats(const std::string &path) const
    {
        std::ofstream os(path);
        stats.dumpJson(os);
        os << "\n";
    }

    Tracer &tracer;
    std::vector<trace::TaskEvent> events;
    std::optional<trace::Workload> workload;
    core::DataCenterConfig cfg;
    std::unique_ptr<engine::ClusterEngine> engine;
    telemetry::TelemetryHub hub;
    std::unique_ptr<alert::AlertEngine> alerts;
    std::unique_ptr<alert::AlertTraceSink> feed;
    std::unique_ptr<TimedAlertListener> listener;
    std::ofstream incidents;
    std::uint64_t sealed = 0;
    sim::StatsRegistry stats;
};

constexpr double kServiceHour = 11.0;

/**
 * Time the same coarse span with the hub detached, so telemetry
 * recording can be split out of engine.coarse (hub-on minus
 * hub-off, less the alert time already credited).
 */
double
hubOffCoarseSeconds(const Args &a, Tick limit)
{
    // Trace events of this run must not reach the (sealed) alert feed.
    const obs::TraceScope detached(nullptr);
    Tracer off(false);
    Session bare(a, off, false);
    const auto t0 = Clock::now();
    bare.warmup(kServiceHour);
    while (bare.engine->now() < limit)
        bare.engine->stepCoarse();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
addSessionMetrics(const Tracer &t, const Session &s, Tick limit,
                  const Args &a, Metrics &m)
{
    const double coarse = t.total("engine.coarse");
    const auto steps = static_cast<double>(limit / s.cfg.coarseStep);
    m["trace.generate_s"] = t.total("trace.generate");
    m["trace.workload_s"] = t.total("trace.workload");
    m["trace.events"] = static_cast<double>(s.events.size());
    m["engine.create_s"] = t.total("engine.create");
    m["engine.coarse_s"] = coarse;
    m["engine.coarse_steps"] = steps;
    m["engine.export_s"] = t.total("engine.export");
    m["alert.eval_s"] = s.listener->ns * 1e-9;
    m["alert.samples"] = static_cast<double>(s.listener->samples);
    m["alert.incidents"] = static_cast<double>(s.sealed);
    const double off = hubOffCoarseSeconds(a, limit);
    m["telemetry.samples"] = static_cast<double>(s.listener->samples);
    m["telemetry.record_s"] =
        std::max(0.0, coarse - off - s.listener->ns * 1e-9);
}

/** A localhost port that refuses connections: bound, never listening. */
class RefusingPort
{
  public:
    RefusingPort()
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        if (fd_ < 0 ||
            ::bind(fd_, reinterpret_cast<sockaddr *>(&addr), len) < 0 ||
            ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                          &len) < 0) {
            std::cerr << "padbench_trace: cannot bind a local port\n";
            std::exit(1);
        }
        port_ = ntohs(addr.sin_port);
    }
    ~RefusingPort() { ::close(fd_); }
    RefusingPort(const RefusingPort &) = delete;
    RefusingPort &operator=(const RefusingPort &) = delete;

    int port() const { return port_; }

  private:
    int fd_ = -1;
    int port_ = 0;
};

/**
 * Wait until the shipper's queue has room for one more batch.
 *
 * padd's loop cuts batches without regard to the sender, and the
 * shipper's drop-newest queue loses a batch whenever delivery falls
 * queueLimit batches behind, which a stall of a few tens of
 * milliseconds does at --speed max. The replica waits for room
 * instead, so every batch is delivered and a session takes as long as
 * the slower of the sim loop and the push path. It gives up after the
 * ack timeout; a drop then still shows in the shipper's counters.
 */
void
waitForRoom(const telemetry::RemoteWriteShipper &shipper,
            const telemetry::RemoteWriteOptions &rw)
{
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(rw.ackTimeoutMs);
    for (;;) {
        const auto c = shipper.counters();
        if (c.batchesEnqueued < c.batchesSent + c.batchesSpooled +
                                    rw.queueLimit ||
            Clock::now() > deadline)
            return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

/**
 * The padd --speed max loop with push, waiting for room in the
 * shipper's queue before each cut. Batches go to an in-process
 * ReceiverServer, to the receiver on --push-port, or (--capture) to
 * spool files through a port that refuses connections.
 */
int
runFleet(const Args &a)
{
    Tracer t(a.spans);
    Metrics m;
    const std::int64_t clockNs = t.on() ? clockPairNs() : 0;
    const auto w0 = Clock::now();

    std::string error;
    telemetry::RemoteWriteOptions rw;
    std::optional<telemetry::ReceiverServer> receiver;
    std::optional<RefusingPort> refusing;
    if (!a.capture.empty()) {
        refusing.emplace();
        rw.port = refusing->port();
        rw.spoolDir = a.capture;
    } else if (a.pushPort > 0) {
        rw.port = a.pushPort;
    } else {
        receiver.emplace(0);
        if (!receiver->start(&error)) {
            std::cerr << "padbench_trace: " << error << "\n";
            return 1;
        }
        rw.port = receiver->port();
    }
    Session s(a, t, true, clockNs);
    const obs::TraceScope alertScope(s.feed.get());

    rw.source = "padd";
    rw.intervalS = 60.0;
    rw.jitterSeed = a.seed * 0x9e3779b97f4a7c15ULL + 1;
    telemetry::RemoteWriteShipper shipper(rw, &s.hub);
    if (!shipper.start(&error)) {
        std::cerr << "padbench_trace: " << error << "\n";
        return 1;
    }
    const auto ready = Clock::now();
    const auto push = [&] {
        {
            Span sp(t, "rw.wait");
            waitForRoom(shipper, rw);
        }
        Span sp(t, "rw.snapshot");
        shipper.observe(s.engine->now());
    };

    s.warmup(kServiceHour);
    push();
    const Tick limit = s.engine->now() + secondsToTicks(a.duration);
    while (s.engine->now() < limit) {
        s.step();
        push();
    }
    const Tick endTick = s.engine->now();
    s.finalize(endTick);
    {
        Span sp(t, "rw.drain");
        shipper.finish(endTick, &s.stats);
    }
    s.writeStats(a.out + "/stats.json");
    m["session_s"] =
        std::chrono::duration<double>(Clock::now() - ready).count();

    // rx: parse every captured batch line.
    std::uint64_t bytes = 0;
    std::uint64_t samples = 0;
    if (!a.spool.empty()) {
        std::ifstream in(a.spool);
        std::vector<std::string> lines;
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        Span sp(t, "rx.parse");
        for (const std::string &line : lines) {
            const auto b = telemetry::parseRwBatchLine(line);
            if (!b) {
                std::cerr << "padbench_trace: bad batch line\n";
                return 1;
            }
            bytes += line.size() + 1;
            samples += b->sampleCount();
        }
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - w0).count();

    const auto sc = shipper.counters();
    m["rw.batches"] =
        static_cast<double>(sc.batchesEnqueued + sc.batchesDropped);
    m["rw.dropped"] = static_cast<double>(sc.batchesDropped);
    telemetry::ReceiverServer::Counters rc{};
    if (receiver) {
        receiver->stop();
        std::ofstream(a.out + "/dump.txt") << receiver->dumpMerged();
        rc = receiver->counters();
    }

    if (t.on()) {
        addSessionMetrics(t, s, limit, a, m);
        // Recording happened inside the engine.coarse spans.
        const auto recNs =
            static_cast<std::int64_t>(m["telemetry.record_s"] * 1e9);
        t.shift("engine", "telemetry", recNs);
        m["rw.wait_s"] = t.total("rw.wait");
        m["rw.snapshot_s"] = t.total("rw.snapshot");
        m["rw.drain_s"] = t.total("rw.drain");
        m["rw.bytes_per_sample"] =
            samples ? static_cast<double>(bytes) / samples : 0.0;
        m["rx.parse_s"] = t.total("rx.parse");
        m["rx.samples"] = static_cast<double>(rc.samples);
        m["rx.duplicates"] = static_cast<double>(rc.duplicates);
        m["rx.protocol_errors"] = static_cast<double>(rc.protocolErrors);
        addSelfTimes(t, wall, m);
        t.write(a.out + "/spans.jsonl");
    } else {
        m["replica_wall_s"] = wall;
    }
    printMetrics(m);
    return 0;
}

/** The paced padd loop, rendering /metrics after every coarse step. */
int
runLive(const Args &a)
{
    Tracer t(a.spans);
    Metrics m;
    const std::int64_t clockNs = t.on() ? clockPairNs() : 0;
    const auto w0 = Clock::now();
    Session s(a, t, true, clockNs);
    const obs::TraceScope alertScope(s.feed.get());
    const telemetry::PromWriter writer;

    std::vector<double> renderMs;
    std::uint64_t bytes = 0;
    s.warmup(kServiceHour);
    const Tick limit = s.engine->now() + secondsToTicks(a.duration);
    while (s.engine->now() < limit) {
        s.step();
        const auto r0 = Clock::now();
        std::string body;
        {
            Span sp(t, "prom.render");
            body = writer.render(nullptr, &s.hub);
        }
        renderMs.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - r0)
                .count());
        bytes += body.size();
    }
    s.finalize(s.engine->now());
    s.writeStats(a.out + "/stats.json");
    const double wall =
        std::chrono::duration<double>(Clock::now() - w0).count();

    if (t.on()) {
        addSessionMetrics(t, s, limit, a, m);
        const auto recNs =
            static_cast<std::int64_t>(m["telemetry.record_s"] * 1e9);
        t.shift("engine", "telemetry", recNs);
        m["prom.render_ms"] = median(renderMs);
        m["prom.bytes"] =
            renderMs.empty() ? 0.0
                             : static_cast<double>(bytes) /
                                   static_cast<double>(renderMs.size());
        addSelfTimes(t, wall, m);
        t.write(a.out + "/spans.jsonl");
    } else {
        m["replica_wall_s"] = wall;
    }
    printMetrics(m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.mode == "fig15")
        return runFig15(a);
    if (a.mode == "fleet")
        return runFleet(a);
    return runLive(a);
}
