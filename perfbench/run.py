#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim_steal|sim_chase_lossy|live_pipeline \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `perfbench` package (next to
this file) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs workload instances -- each in its own process, with
a memory cap and a wall-clock backstop -- for about `--seconds`, checks
every output, prints each metric by name with its unit, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of untraced runs; `--trace 1`
makes a separate traced run and reports the per-layer metrics. The
benchmark's own spans (set-up, run, verify, probes) are kept in memory
and written to `.bench_out/` at exit. README.md (next to this file) maps
metrics to layers and workloads.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BIN = os.path.join(TARGET, "release", "perfbench")
OUT_DIR = ".bench_out"

MEM_CAP_BYTES = 1 << 30  # per instance process: a runaway fails, not the host
INSTANCE_TIMEOUT_S = 90  # wall-clock backstop per instance process

# The sim workloads' sizes and event budgets are constants in src/sim.rs.
# sim_chase_lossy runs a fixed seed list (instance cost varies ~100x
# across seeds, so a seed-derived list would make run_s meaningless);
# --seed only shuffles the order of each pass.
CHASE_SEEDS = list(range(1, 17))
CHASE_MIN_PASSES = 4  # so each seed's interquartile mean trims a pass
CHASE_PROBES = 8 * 30  # probes per instance, charged when one crashes
# live_pipeline: rates in requests/s, step lengths in requests.
LIGHT_RPS, LIGHT_N = 5_000, 10_000
BUSY_RPS, BUSY_N = 50_000, 100_000
BURST_N = 100_000
LADDER_RPS = [20_000, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000]
LADDER_STEP_S = 1.0
SLO_P99_MS = 10.0
GEN_LATE_MAX_US = 1_000.0  # median submit lateness above this = behind
PROBE_LIVE_N = 2_000  # live probe on sim workloads: requests at LIGHT_RPS

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("des.queue_push_pop_ns", "ns"),
    ("executor.events", "count"),
    ("executor.ns_per_event", "ns"),
    ("executor.execute_frac", "frac"),
    ("executor.queue_frac", "frac"),
    ("executor.other_frac", "frac"),
    ("dispatch.msgs", "count"),
    ("dispatch.fast_inline", "count"),
    ("join.fired", "count"),
    ("actor.created", "count"),
    ("kernel.local_send_ns", "ns"),
    ("kernel.fast_send_ns", "ns"),
    ("join.create_fill_fire_ns", "ns"),
    ("actor.create_local_ns", "ns"),
    ("hal.encode_take_ns", "ns"),
    ("steal.polls", "count"),
    ("steal.granted", "count"),
    ("steal.grant_ratio", "frac"),
    ("migrate.count", "count"),
    ("am.bulk_requests", "count"),
    ("am.packets", "count"),
    ("am.bytes", "bytes"),
    ("am.backpressure_stalls", "count"),
    ("kernel.remote_send_ns", "ns"),
    ("rel.delivered", "count"),
    ("rel.retransmits", "count"),
    ("rel.acks", "count"),
    ("rel.dup_dropped", "count"),
    ("rel.timers_expired", "count"),
    ("rel.goodput", "frac"),
    ("rel.spurious_retx_frac", "frac"),
    ("rel.register_ack_ns", "ns"),
    ("rel.on_data_ns", "ns"),
    ("fault.dropped", "count"),
    ("fault.duplicated", "count"),
    ("fault.reordered", "count"),
    ("name.first_contact", "count"),
    ("name.cache_hit_ratio", "frac"),
    ("deliver.cached_stale", "count"),
    ("deliver.forwarded", "count"),
    ("deliver.migrated", "count"),
    ("fir.sent", "count"),
    ("fir.suppressed", "count"),
    ("fir.reissued", "count"),
    ("fir.flushed", "count"),
    ("fir.bounces_per_probe", "count"),
    ("name.resolve_fast_ns", "ns"),
    ("name.resolve_hash_ns", "ns"),
    ("live.ingress_wait_us.p50", "us"),
    ("live.ingress_wait_us.p99", "us"),
    ("live.hop_us.p50", "us"),
    ("live.hop_us.p99", "us"),
    ("live.node_util", "frac"),
    ("live.backpressure_hits", "count"),
    ("am.thread_rtt_ns", "ns"),
    ("am.thread_send_recv_ns", "ns"),
    ("trace.overhead_frac", "frac"),
    ("gen.late_p99_us", "us"),
    ("gen.achieved_rps", "1/s"),
    ("share.des", "frac"),
    ("share.dispatch", "frac"),
    ("share.join", "frac"),
    ("share.actor", "frac"),
    ("share.hal", "frac"),
    ("share.net", "frac"),
    ("share.rel", "frac"),
    ("share.name", "frac"),
    ("share.live", "frac"),
]


# The benchmark's own spans (name, start, end, parent span, attributes),
# kept in memory and written once at exit.
SPANS, _OPEN = [], []
_T0 = time.monotonic()


@contextlib.contextmanager
def span(name, **attrs):
    rec = {"id": len(SPANS), "name": name, "parent": _OPEN[-1] if _OPEN else None,
           "start_s": time.monotonic() - _T0, **attrs}
    SPANS.append(rec)
    _OPEN.append(rec["id"])
    try:
        yield rec
    finally:
        rec["end_s"] = time.monotonic() - _T0
        _OPEN.pop()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir("crates") or not os.path.isfile(os.path.join(HERE, "Cargo.toml")):
        fail("run from the repository root (crates/ and perfbench/ are needed)")
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    with span("build"):
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0 or not os.path.isfile(BIN):
        fail("build failed")


def source_digest():
    """Hash of every source file the benchmark builds from, to pair
    before/after runs where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("crates", HERE, "Cargo.toml", "Cargo.lock"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if f.endswith((".rs", ".toml", ".lock", ".py"))
            and "target" not in d.split(os.sep))
        for p in sorted(paths):
            h.update(os.path.relpath(p).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def header():
    return {
        "host_cores": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_profile": "release (perfbench/Cargo.toml: opt-level 3, debug false)",
    }


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def instance(args, timeout=INSTANCE_TIMEOUT_S):
    """Run one `perfbench` process; return its JSON result with `rss_mb`
    (the process's own peak) added, or a failure record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "instance.stderr"), "w+b") as err:
        start = time.monotonic()
        p = subprocess.Popen([BIN] + args, stdout=subprocess.PIPE, stderr=err,
                             preexec_fn=_cap_memory)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            p.stdout.close()
        wall_s = time.monotonic() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    lines = out.decode(errors="replace").strip().splitlines()
    if p.returncode != 0 or not lines:
        why = stderr.splitlines()[0] if stderr else f"exit {p.returncode}"
        return {"ok": 0, "error": why, "rss_mb": ru.ru_maxrss / 1024, "crashed": 1,
                "wall_s": wall_s}
    res = json.loads(lines[-1])
    res["rss_mb"] = ru.ru_maxrss / 1024
    return res


def instance_seed(seed, i):
    """Per-instance seed derived from the benchmark seed."""
    return (seed * 1_000_003 + i * 7919) % (1 << 31) + 1


def median(xs):
    return statistics.median(xs) if xs else 0.0


def iqm(xs):
    """Interquartile mean, the estimator for run_s and setup_s: the mean
    of the middle half of the sample. On a shared host, speed changes in
    phases of tens of seconds to minutes, and an instance is now and then
    stalled outright. The mean of the middle half moves smoothly with the
    share of a run spent in a slow phase, where a median flips between
    modes, and it ignores the stalls that drag a plain mean (see
    README.md, "Steadiness")."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut]) if xs else 0.0


def add_stats(acc, res):
    for k, v in res.items():
        if k.startswith("stat."):
            acc[k[5:]] = acc.get(k[5:], 0) + v
    for k in ("events", "prof.wall_ns", "prof.execute_ns", "prof.queue_ns", "busy_ns"):
        if k in res:
            acc[k] = acc.get(k, 0) + res[k]
    if "prof.max_queue_depth" in res:
        acc["prof.max_queue_depth"] = max(acc.get("prof.max_queue_depth", 0),
                                          res["prof.max_queue_depth"])


class Tally:
    """Operations attempted / failed, and outputs found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def note(self, msg):
        if msg not in self.notes:
            self.notes.append(msg)


# ---------------------------------------------------------------- sim_steal

def steal_instance(seed, traced, tally):
    with span("instance", workload="sim_steal", seed=seed, traced=traced) as sp:
        res = instance(["steal", "--seed", str(seed), "--traced", str(int(traced))])
        sp["setup_s"], sp["run_s"] = res.get("setup_s"), res.get("run_s")
    with span("verify"):
        tally.attempted += 1
        if res.get("ok") != 1:
            tally.failed += 1
            tally.note(f"instance seed {seed}: {res.get('error')}")
        else:
            if res.get("wrong"):
                tally.wrong += 1
                tally.note(f"fib differs from hal_baselines::fib (seed {seed})")
            if not res.get("shape_ok"):
                tally.wrong += 1
                tally.note("shape: expected rel.* = fir.sent = 0 and steal.granted > 0")
    return res


def run_steal(seed, seconds, tally):
    deadline = time.monotonic() + seconds
    results = []
    i = 0
    while i < 3 or time.monotonic() < deadline:
        results.append(steal_instance(instance_seed(seed, i), False, tally))
        i += 1
    ok = [r for r in results if r.get("ok") == 1]
    return {
        "run_s": iqm([r["run_s"] for r in ok]),
        "setup_s": iqm([r["setup_s"] for r in results if "setup_s" in r]),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }, {"instances": len(results)}


def trace_steal(seed, seconds, tally):
    """Traced and untraced instances in alternating pairs on the same
    seeds; counters from the traced ones."""
    deadline = time.monotonic() + seconds * 0.7
    acc, ratios, run_s = {}, [], []
    i = 0
    while i < 1 or time.monotonic() < deadline:
        s = instance_seed(seed, i)
        plain = steal_instance(s, False, tally)
        traced = steal_instance(s, True, tally)
        if plain.get("ok") == 1 and traced.get("ok") == 1:
            ratios.append(traced["run_s"] / plain["run_s"] - 1.0)
            run_s.append(plain["run_s"])
            add_stats(acc, traced)
            acc["_instances"] = acc.get("_instances", 0) + 1
        i += 1
    return acc, median(ratios), median(run_s), "fib"


# ---------------------------------------------------------- sim_chase_lossy

def chase_instance(seed, traced, tally):
    with span("instance", workload="sim_chase_lossy", seed=seed, traced=traced) as sp:
        res = instance(["chase", "--seed", str(seed), "--traced", str(int(traced))])
        sp["setup_s"], sp["run_s"] = res.get("setup_s"), res.get("run_s")
    with span("verify"):
        attempted = res.get("attempted") or CHASE_PROBES
        tally.attempted += attempted
        if res.get("ok") != 1:
            tally.failed += res.get("missing", attempted)
            tally.note(f"instance seed {seed}: {res.get('error')}")
        else:
            tally.failed += res.get("missing", 0)
            if res.get("wrong"):
                tally.wrong += res["wrong"]
                tally.note(f"seed {seed}: {res['wrong']} probes delivered more than once")
    return res


def check_chase_shape(acc, tally):
    for k in ("fir.sent", "deliver.cached_stale", "rel.retransmits"):
        if acc.get(k, 0) == 0:
            tally.wrong += 1
            tally.note(f"shape: expected {k} > 0 on sim_chase_lossy")


def run_chase(seed, seconds, tally):
    """Whole passes over the fixed seed list, each in a seed-shuffled
    order, until the measured time is up; run_s sums each seed's
    interquartile mean instance time."""
    order = random.Random(seed)
    seeds = list(CHASE_SEEDS)
    start = time.monotonic()
    times, setups, rss, acc = {}, [], [], {}
    passes = 0
    while passes < CHASE_MIN_PASSES or time.monotonic() - start < seconds:
        order.shuffle(seeds)
        passes += 1
        for s in seeds:
            res = chase_instance(s, False, tally)
            # A crashed instance (memory cap, backstop) costs its wall time.
            times.setdefault(s, []).append(res.get("run_s", res.get("wall_s", 0.0)))
            if "setup_s" in res:
                setups.append(res["setup_s"])
            rss.append(res["rss_mb"])
            if res.get("ok") == 1:
                add_stats(acc, res)
    check_chase_shape(acc, tally)
    return {
        "run_s": sum(iqm(v) for v in times.values()),
        "setup_s": iqm(setups),
        "peak_rss_mb": max(rss),
    }, {"passes": passes}


def trace_chase(seed, seconds, tally):
    """A traced pass over a prefix of the fixed seed list, then the same
    prefix untraced."""
    del seed
    deadline = time.monotonic() + seconds * 0.35
    acc, traced_t, done = {}, {}, []
    for s in CHASE_SEEDS:
        if traced_t and time.monotonic() > deadline:
            break
        res = chase_instance(s, True, tally)
        traced_t[s] = res.get("run_s", 0.0)
        if res.get("ok") == 1:
            add_stats(acc, res)
            done.append(s)
    plain_t = {s: chase_instance(s, False, tally).get("run_s", 0.0) for s in traced_t}
    check_chase_shape(acc, tally)
    acc["_instances"] = len(done)
    plain = sum(plain_t.values())
    overhead = sum(traced_t.values()) / plain - 1.0 if plain > 0 else 0.0
    # Per-instance time of the completed instances, to match their counters.
    return acc, overhead, ratio(sum(plain_t[s] for s in done), len(done)), "chase"


# ------------------------------------------------------------ live_pipeline

def live_step(seed, tally, rate=None, count=LIGHT_N, burst=False, traced=False, kind=""):
    args = ["live", "--seed", str(seed), "--count", str(count), "--traced", str(int(traced))]
    args += ["--burst", "1"] if burst else ["--rate", str(rate)]
    if traced:
        args += ["--spans-out", os.path.join(OUT_DIR, f"requests-{kind}-seed{seed}.jsonl")]
    with span("step", workload="live_pipeline", kind=kind, rate=rate, count=count,
                    traced=traced) as sp:
        res = instance(args)
        for k in ("setup_s", "p50_ms", "p99_ms", "drain_s", "gen_late_p99_us"):
            sp[k] = res.get(k)
    with span("verify"):
        tally.attempted += count
        tally.failed += res.get("missing", count) if res.get("ok") == 1 else count
        if res.get("ok") != 1:
            tally.note(f"{kind} step: {res.get('error')}")
        elif res.get("missing"):
            tally.note(f"{kind} step: {res['missing']} requests missing at the drain deadline")
        if res.get("wrong"):
            tally.wrong += res["wrong"]
            tally.note(f"{kind} step: {res['wrong']} request ids arrived more than once")
    return res


def step_valid(res, rate):
    """A ladder step meets the SLO: every request completed, p99 within
    the limit, no growing backlog, and the generator on schedule."""
    if res.get("ok") != 1 or res.get("missing") or res.get("wrong"):
        return False
    backlog = res.get("tail_p50_ms", 0) > 2 * res.get("head_p50_ms", 0) + 1.0
    on_time = (res.get("gen_late_p50_us", 0) <= GEN_LATE_MAX_US
               and res.get("gen_achieved_rps", 0) >= 0.98 * rate)
    return res.get("p99_ms", 1e9) <= SLO_P99_MS and not backlog and on_time


def run_live(seed, seconds, tally):
    start = time.monotonic()
    steps = []
    max_ok = 0
    with span("ladder"):
        misses = 0
        for i, rate in enumerate(LADDER_RPS):
            res = live_step(instance_seed(seed, 100 + i), tally, rate=rate,
                            count=int(rate * LADDER_STEP_S), kind=f"ladder@{rate}")
            steps.append(res)
            if step_valid(res, rate):
                max_ok, misses = rate, 0
            else:
                misses += 1
                if misses == 2:  # two misses in a row end the ladder
                    break
    bursts, light, busy = [], [], []
    i = 0
    while i < 1 or time.monotonic() - start < seconds:
        s = instance_seed(seed, i)
        bursts.append(live_step(s, tally, count=BURST_N, burst=True, kind="burst"))
        light.append(live_step(s, tally, rate=LIGHT_RPS, count=LIGHT_N, kind="light"))
        busy.append(live_step(s, tally, rate=BUSY_RPS, count=BUSY_N, kind="busy"))
        i += 1
    steps += bursts + light + busy
    ok = lambda rs: [r for r in rs if r.get("ok") == 1]
    extra = {
        "p50_ms.light": median([r["p50_ms"] for r in ok(light)]),
        "p99_ms.light": median([r["p99_ms"] for r in ok(light)]),
        "p50_ms.busy": median([r["p50_ms"] for r in ok(busy)]),
        "p99_ms.busy": median([r["p99_ms"] for r in ok(busy)]),
        "max_rps_at_slo": max_ok,
        "samples.light": sum(r.get("samples", 0) for r in light),
        "samples.busy": sum(r.get("samples", 0) for r in busy),
        "cycles": i,
    }
    return {
        "run_s": iqm([r["drain_s"] for r in ok(bursts)]),
        "setup_s": iqm([r["setup_s"] for r in steps if "setup_s" in r]),
        "peak_rss_mb": max(r["rss_mb"] for r in steps),
    }, extra


def trace_live(seed, seconds, tally):
    """Untraced/traced burst pairs for the tracing overhead, then one
    traced busy step for the counters and the per-request stamps."""
    deadline = time.monotonic() + seconds * 0.4
    ratios = []
    i = 0
    while i < 1 or time.monotonic() < deadline:
        s = instance_seed(seed, i)
        plain = live_step(s, tally, count=BURST_N, burst=True, kind="burst")
        traced = live_step(s, tally, count=BURST_N, burst=True, traced=True, kind="burst")
        if plain.get("ok") == 1 and traced.get("ok") == 1:
            ratios.append(traced["drain_s"] / plain["drain_s"] - 1.0)
        i += 1
    res = live_step(seed, tally, rate=BUSY_RPS, count=BUSY_N, traced=True, kind="busy")
    acc = {}
    if res.get("ok") == 1:
        add_stats(acc, res)
        acc["_live"] = res
        acc["_instances"] = 1
    return acc, median(ratios), res.get("drain_s", 0.0), "serve"


# ---------------------------------------------------------------- per layer

def ratio(a, b):
    return a / b if b else 0.0


def per_layer(acc, overhead, run_s, proto, seed, tally):
    c = lambda k: acc.get(k, 0)
    inst = max(1, c("_instances"))
    per = lambda k: c(k) / inst  # counters per instance (one traced run)
    live = acc.get("_live")
    if live is None:
        # Sim workload: the live layer is idle here; its metrics come from
        # a small fixed live pipeline run as a probe.
        with span("probe", layer="live"):
            live = live_step(instance_seed(seed, 999), tally, rate=LIGHT_RPS,
                             count=PROBE_LIVE_N, traced=True, kind="live-probe")
    nodes = 16 if proto != "serve" else 2
    shape = ["--proto", proto,
             "--table", str(max(1, int((per("migrations.in") + per("name.first_contact"))
                                       / nodes))),
             "--depth", str(int(c("prof.max_queue_depth")) or 16),
             "--window", str(max(1, round(ratio(c("rel.delivered"), c("rel.acks"))))),
             "--reorder", str(ratio(c("net.fault_reordered"), c("net.packets")))]
    with span("probe", layer="all", args=" ".join(shape)):
        probes = instance(["probes", *shape])
    if probes.get("crashed"):
        tally.wrong += 1
        tally.note(f"probes failed: {probes.get('error')}")
    p = lambda k: probes.get(k, 0.0)
    packets = per("net.packets") + per("threadnet.packets")
    events = per("events")
    m = {
        "des.queue_push_pop_ns": p("des.queue_push_pop_ns"),
        "executor.events": events,
        "dispatch.msgs": per("msgs.processed"),
        "dispatch.fast_inline": per("fast.inline"),
        "join.fired": per("joins.fired"),
        "actor.created": per("actors.created"),
        "steal.polls": per("steal.polls"),
        "steal.granted": per("steal.granted"),
        "steal.grant_ratio": ratio(c("steal.granted"), c("steal.polls")),
        "migrate.count": per("migrations.out"),
        "am.bulk_requests": per("net.bulk_requests"),
        "am.packets": packets,
        "am.bytes": per("net.bytes") + per("threadnet.bytes"),
        "am.backpressure_stalls": per("net.backpressure_stalls"),
        "rel.delivered": per("rel.delivered"),
        "rel.retransmits": per("rel.retransmits"),
        "rel.acks": per("rel.acks"),
        "rel.dup_dropped": per("rel.dup_dropped"),
        "rel.timers_expired": per("rel.timers_expired"),
        "rel.goodput": ratio(c("rel.delivered"), c("rel.delivered") + c("rel.retransmits")),
        "rel.spurious_retx_frac": min(1.0, ratio(
            max(0, c("rel.dup_dropped") - c("net.fault_duplicated")), c("rel.retransmits"))),
        "fault.dropped": per("net.fault_dropped"),
        "fault.duplicated": per("net.fault_duplicated"),
        "fault.reordered": per("net.fault_reordered"),
        "name.first_contact": per("name.first_contact"),
        "name.cache_hit_ratio": ratio(
            c("deliver.cached_hit"), c("deliver.cached_hit") + c("deliver.cached_stale")),
        "deliver.cached_stale": per("deliver.cached_stale"),
        "deliver.forwarded": per("deliver.forwarded"),
        "deliver.migrated": per("deliver.migrated"),
        "fir.sent": per("fir.sent"),
        "fir.suppressed": per("fir.suppressed"),
        "fir.reissued": per("fir.reissued"),
        "fir.flushed": per("fir.flushed"),
        "fir.bounces_per_probe": ratio(
            c("deliver.cached_stale") + c("deliver.forwarded"), c("msgs.remote")),
        "live.backpressure_hits": live.get("stat.threadnet.backpressure_hits", 0),
        "trace.overhead_frac": overhead,
        "live.ingress_wait_us.p50": live.get("ingress_wait_p50_us", 0.0),
        "live.ingress_wait_us.p99": live.get("ingress_wait_p99_us", 0.0),
        "live.hop_us.p50": live.get("hop_p50_us", 0.0),
        "live.hop_us.p99": live.get("hop_p99_us", 0.0),
        "gen.late_p99_us": live.get("gen_late_p99_us", 0.0),
        "gen.achieved_rps": live.get("gen_achieved_rps", 0.0),
    }
    for k in ("kernel.local_send_ns", "kernel.fast_send_ns", "join.create_fill_fire_ns",
              "actor.create_local_ns", "hal.encode_take_ns", "kernel.remote_send_ns",
              "rel.register_ack_ns", "rel.on_data_ns", "name.resolve_fast_ns",
              "name.resolve_hash_ns", "am.thread_rtt_ns",
              "am.thread_send_recv_ns"):
        m[k] = p(k)
    live_wall = live.get("drain_s", 0.0) * 1e9 * live.get("nodes", 2)
    if "prof.wall_ns" in acc:
        wall = c("prof.wall_ns")
        m["executor.ns_per_event"] = ratio(wall, c("events"))
        m["executor.execute_frac"] = ratio(c("prof.execute_ns"), wall)
        m["executor.queue_frac"] = ratio(c("prof.queue_ns"), wall)
        m["executor.other_frac"] = 1.0 - m["executor.execute_frac"] - m["executor.queue_frac"]
    else:
        # Live: no DES executor and no host-time busy ledger; events are
        # node-loop iterations, ns_per_event the node-thread wall per event.
        m["executor.ns_per_event"] = ratio(live_wall, live.get("events", 0))
        m["executor.execute_frac"] = m["executor.queue_frac"] = m["executor.other_frac"] = 0.0
    # Telemetry busy_ns sums cost-model charges, not host time.
    m["live.node_util"] = ratio(live.get("busy_ns", 0), live_wall)
    # share.<layer>: probe ns x count / run time of the same work.
    run_ns = run_s * 1e9
    share = lambda ns, count: ratio(ns * count, run_ns)
    m["share.des"] = share(m["des.queue_push_pop_ns"], events)
    m["share.dispatch"] = share(m["kernel.local_send_ns"], m["dispatch.msgs"])
    m["share.join"] = share(m["join.create_fill_fire_ns"], m["join.fired"])
    m["share.actor"] = share(m["actor.create_local_ns"], m["actor.created"])
    m["share.hal"] = share(m["hal.encode_take_ns"], m["dispatch.msgs"])
    m["share.net"] = share(m["kernel.remote_send_ns"], per("net.packets"))
    m["share.rel"] = share(m["rel.register_ack_ns"] + m["rel.on_data_ns"], m["rel.delivered"])
    m["share.name"] = share(m["name.resolve_hash_ns"], per("msgs.remote"))
    m["share.live"] = share(m["am.thread_send_recv_ns"], per("threadnet.packets"))
    return m


# --------------------------------------------------------------------- main

WORKLOADS = {
    "sim_steal": (run_steal, trace_steal),
    "sim_chase_lossy": (run_chase, trace_chase),
    "live_pipeline": (run_live, trace_live),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    hdr = header()
    hdr.update(workload=a.workload, seed=a.seed, seconds=a.seconds, trace=a.trace)
    for k in ("host_cores", "nproc", "git_commit", "source_digest", "build_profile"):
        print(f"# {k} = {hdr[k]}")
    tally = Tally()
    run, trace = WORKLOADS[a.workload]
    with span("run", workload=a.workload, trace=a.trace):
        if a.trace == 0:
            metrics, extra = run(a.seed, a.seconds, tally)
            units = dict(END_TO_END)
        else:
            acc, overhead, run_s, proto = trace(a.seed, a.seconds, tally)
            metrics = per_layer(acc, overhead, run_s, proto, a.seed, tally)
            extra = {}
            units = dict(PER_LAYER)
    with open(os.path.join(OUT_DIR, f"spans-{a.workload}-seed{a.seed}-trace{a.trace}.json"),
              "w") as f:
        json.dump({"header": hdr, "spans": SPANS}, f, indent=1)

    failed_frac = ratio(tally.failed, tally.attempted)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    extra_units = {"p50_ms.light": "ms", "p99_ms.light": "ms", "p50_ms.busy": "ms",
                   "p99_ms.busy": "ms", "max_rps_at_slo": "1/s"}
    for name, v in extra.items():
        print(f"{name} = {v:.6g} {extra_units.get(name, 'count')}")
    print(f"failed_frac = {failed_frac:.6g} frac ({tally.failed} of {tally.attempted})")
    for n in tally.notes[:20]:
        print(f"# note: {n}")
    correct = tally.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
