//! The two simulated workloads, one instance per process.
//!
//! * `sim_steal` — `hal_workloads::fib` with Local placement on 16
//!   virtual nodes, load balancing on, no faults: work moves only by
//!   steal polls and bulk migrations, so the reliable layer and FIR
//!   chasing stay idle.
//! * `sim_chase_lossy` — nomads walk seeded hop lists across 16 nodes
//!   while sprayers send them probes on a period, under
//!   `FaultPlan::chaos`: name-server resolution, FIR chasing and the
//!   reliable seq/ack layer work together on remote-heavy traffic.
//!
//! Both run the default sequential engine (no `.parallelism(k)`), with
//! an event budget so a runaway instance ends as a counted failure.

use crate::util::{Args, Out, Rng};
use hal::messages;
use hal::prelude::*;
use hal_des::VirtualDuration;
use hal_workloads::fib::{self, FibConfig, Placement};
use std::time::Instant;

/// How many machines an instance builds for its `setup_s`.
const SETUP_REPS: usize = 64;

/// Observation switches for a sim instance: the traced run turns on the
/// host-time executor profile, the untraced run records nothing.
fn observe(traced: bool) -> ObserveOpts {
    ObserveOpts::none().prof(traced)
}

/// Build `SETUP_REPS` machines back to back and keep them all alive, so
/// each build allocates fresh memory as a run's one real set-up does;
/// return the last machine and the mean build time in seconds. One
/// untimed build first takes the once-per-process costs (lazy statics,
/// first page faults of the code). Timing a warm rebuild instead reads
/// 3 µs or 5 µs depending on the process, with nothing changed.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    drop(build());
    let mut built = Vec::with_capacity(SETUP_REPS);
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        built.push(build());
    }
    let setup_s = t.elapsed().as_secs_f64() / SETUP_REPS as f64;
    (built.pop().expect("SETUP_REPS > 0"), setup_s)
}

/// The instance process exits right after printing its result; leaving
/// the machine to the OS skips tearing down every actor and queue one by
/// one (~0.4 s on `sim_steal`), which is not part of any metric.
fn exit_soon(m: Machine) {
    std::mem::forget(m);
}

/// Run a built machine; fill in timing, counters and the executor
/// profile. Returns the report when the run finished within budget.
fn run_machine(m: &mut Machine, out: &mut Out) -> Option<SimReport> {
    let t = Instant::now();
    let res = m.run();
    out.num("run_s", t.elapsed().as_secs_f64());
    match res {
        Ok(r) => {
            out.int("ok", 1);
            out.int("events", r.events);
            out.stats(&r.stats);
            if let Some(p) = &r.prof {
                let t = p.totals();
                out.int("prof.wall_ns", t.wall_ns);
                out.int("prof.execute_ns", t.execute_ns);
                out.int("prof.queue_ns", t.queue_ns);
                let depth = p
                    .shards
                    .iter()
                    .map(|s| s.max_queue_depth)
                    .max()
                    .unwrap_or(0);
                out.int("prof.max_queue_depth", depth);
            }
            Some(r)
        }
        Err(e) => {
            out.int("ok", 0);
            out.str("error", &e.to_string());
            None
        }
    }
}

/// `sim_steal` computes fib(`FIB_N`).
const FIB_N: u64 = 29;
/// Event budget of a `sim_steal` instance; a completed one takes ~1.6M.
const STEAL_MAX_EVENTS: u64 = 4_000_000;

/// `sim_steal`: one fib instance, checked against the sequential
/// baseline and against the workload's expected shape.
pub fn steal(a: &Args) -> Out {
    let seed = a.u64("seed", 1);
    let traced = a.flag("traced");
    let cfg = FibConfig {
        n: FIB_N,
        grain: 4,
        placement: Placement::Local,
    };
    let (mut m, setup_s) = timed_setup(|| {
        let mut program = Program::new();
        let id = fib::register(&mut program);
        let mc = MachineConfig::builder(16)
            .seed(seed)
            .load_balancing(true)
            .max_events(STEAL_MAX_EVENTS)
            .observe(observe(traced))
            .build()
            .expect("sim_steal config is valid");
        let mut m = Machine::simulated(mc, program.build());
        m.with_ctx(0, |ctx| fib::bootstrap(ctx, id, cfg));
        m
    });
    let mut out = Out::default();
    out.num("setup_s", setup_s);
    if let Some(r) = run_machine(&mut m, &mut out) {
        let expected = hal_baselines::fib(FIB_N);
        let got = r.value("fib").map(|v| v.as_int() as u64);
        out.int("attempted", 1);
        out.int("wrong", u64::from(got != Some(expected)));
        let s = &r.stats;
        let rel: u64 = [
            "rel.delivered",
            "rel.retransmits",
            "rel.acks",
            "rel.dup_dropped",
        ]
        .iter()
        .map(|k| s.get(k))
        .sum();
        let shape_ok = rel == 0 && s.get("fir.sent") == 0 && s.get("steal.granted") > 0;
        out.int("shape_ok", u64::from(shape_ok));
    }
    exit_soon(m);
    out
}

messages! {
    /// The lossy-chase protocol.
    pub enum ChaseMsg {
        /// Nomad: take the next hop of the walk.
        Hop {} = 0 => [ChaseMsg],
        /// Nomad: one probe, tagged `sprayer << 32 | sequence`.
        Probe { tag: i64 } = 1,
        /// Sprayer: send the next probe.
        Tick {} = 2 => [ChaseMsg],
    }
}

/// Walks its hop list, dwelling `dwell_ns` of virtual time per node,
/// and reports every probe it receives.
struct Nomad {
    hops: Vec<u16>,
    dwell_ns: u64,
}

impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match ChaseMsg::take(msg) {
            ChaseMsg::Hop {} => {
                if let Some(next) = self.hops.pop() {
                    ctx.charge(VirtualDuration::from_nanos(self.dwell_ns));
                    let (sel, args) = ChaseMsg::Hop {}.encode();
                    let me = ctx.me();
                    ctx.send(me, sel, args);
                    ctx.migrate(next);
                }
            }
            ChaseMsg::Probe { tag } => ctx.report("probe", Value::Int(tag)),
            ChaseMsg::Tick {} => unreachable!("nomads never tick"),
        }
    }
}

/// Sends `total` probes to its nomad, one per `period_ns`, after an
/// initial delay so the probes chase a nomad that has already left
/// (rather than riding in its migrating mailbox).
struct Sprayer {
    target: MailAddr,
    id: i64,
    sent: i64,
    total: i64,
    period_ns: u64,
    delay_ns: u64,
}

impl Behavior for Sprayer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let ChaseMsg::Tick {} = ChaseMsg::take(msg) else {
            unreachable!("sprayers only tick");
        };
        if self.sent == 0 {
            ctx.charge(VirtualDuration::from_nanos(self.delay_ns));
        }
        let (sel, args) = ChaseMsg::Probe {
            tag: self.id << 32 | self.sent,
        }
        .encode();
        ctx.send(self.target, sel, args);
        self.sent += 1;
        if self.sent < self.total {
            ctx.charge(VirtualDuration::from_nanos(self.period_ns));
            let (sel, args) = ChaseMsg::Tick {}.encode();
            let me = ctx.me();
            ctx.send(me, sel, args);
        }
    }
}

/// Virtual time a nomad dwells per hop, and a sprayer's probe period:
/// equal, so a sprayer's probes span its nomad's walk.
const CHASE_PERIOD_NS: u64 = 20_000;
/// Nodes of a `sim_chase_lossy` instance.
const NODES: u64 = 16;
/// Nomads per instance, one sprayer each.
const NOMADS: u64 = 8;
/// Hops in each nomad's walk.
const HOPS: u64 = 16;
/// Probes each sprayer sends.
const PROBES: u64 = 30;
/// Link loss rate given to `FaultPlan::chaos`.
const LOSS: f64 = 0.02;
/// Event budget of a `sim_chase_lossy` instance; the largest completed
/// one seen (seeds 1–24) took 578k.
const CHASE_MAX_EVENTS: u64 = 1_000_000;

/// `sim_chase_lossy`: one nomad/sprayer instance under link chaos,
/// checked for exactly-once delivery of every probe.
pub fn chase(a: &Args) -> Out {
    let seed = a.u64("seed", 1);
    let traced = a.flag("traced");

    let (mut m, setup_s) = timed_setup(|| {
        let mut rng = Rng::new(seed);
        let mc = MachineConfig::builder(NODES as usize)
            .seed(seed)
            .faults(FaultPlan::chaos(LOSS))
            .max_events(CHASE_MAX_EVENTS)
            .observe(observe(traced))
            .build()
            .expect("sim_chase_lossy config is valid");
        let mut m = Machine::simulated(mc, Program::new().build());
        for j in 0..NOMADS {
            let home = rng.below(NODES) as u16;
            // A seeded walk of `HOPS` nodes, each different from the one
            // before it; popped from the back.
            let mut walk = Vec::with_capacity(HOPS as usize);
            let mut at = home;
            for _ in 0..HOPS {
                at = ((u64::from(at) + 1 + rng.below(NODES - 1)) % NODES) as u16;
                walk.push(at);
            }
            walk.reverse();
            let nomad = m.with_ctx(home, |ctx| {
                let addr = ctx.create_local(Box::new(Nomad {
                    hops: walk,
                    dwell_ns: CHASE_PERIOD_NS,
                }));
                let (sel, args) = ChaseMsg::Hop {}.encode();
                ctx.send(addr, sel, args);
                addr
            });
            let spray_node = rng.below(NODES) as u16;
            m.with_ctx(spray_node, |ctx| {
                let s = ctx.create_local(Box::new(Sprayer {
                    target: nomad,
                    id: j as i64,
                    sent: 0,
                    total: PROBES as i64,
                    period_ns: CHASE_PERIOD_NS,
                    delay_ns: 1_000_000,
                }));
                let (sel, args) = ChaseMsg::Tick {}.encode();
                ctx.send(s, sel, args);
            });
        }
        m
    });
    let mut out = Out::default();
    out.num("setup_s", setup_s);
    let attempted = NOMADS * PROBES;
    out.int("attempted", attempted);
    match run_machine(&mut m, &mut out) {
        Some(r) => {
            let mut seen = vec![0u32; attempted as usize];
            let mut stray = 0u64;
            for v in r.values("probe") {
                let tag = v.as_int();
                let (j, k) = ((tag >> 32) as u64, (tag & 0xFFFF_FFFF) as u64);
                match seen.get_mut((j * PROBES + k) as usize) {
                    Some(c) if j < NOMADS && k < PROBES => *c += 1,
                    _ => stray += 1,
                }
            }
            let missing = seen.iter().filter(|&&c| c == 0).count() as u64;
            let dup = seen.iter().filter(|&&c| c > 1).count() as u64;
            out.int("missing", missing);
            out.int("wrong", dup + stray);
        }
        None => {
            // Budget overrun: no probe of this instance is confirmed.
            out.int("missing", attempted);
            out.int("wrong", 0);
        }
    }
    exit_soon(m);
    out
}
