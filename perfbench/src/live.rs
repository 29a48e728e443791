//! `live_pipeline`: the live backend serving an open-loop request
//! stream, one step (one machine) per process.
//!
//! Two nodes, three forwarding stages and a sink: ingress (node 0) →
//! stage 1 (node 1) → stage 2 (node 0) → stage 3 (node 1) → sink
//! (node 0). Messages are the smallest the pipeline can carry (request
//! id plus its scheduled send time). All latencies are read from the
//! host clock (`Instant`) inside this file's actors, never from
//! `Ctx::now()`, whose live clock runs ahead of host time under
//! cost-model charges.
//!
//! The generator runs on the calling thread: it submits, per tick,
//! one job carrying every request whose scheduled time has come, and
//! records how late each submit was. Latency is charged from each
//! request's *scheduled* time, so a stalled runtime or a late
//! generator cannot hide queueing delay.

use crate::util::{quantile, Args, Out};
use hal::messages;
use hal::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

messages! {
    /// The pipeline protocol.
    pub enum PipeMsg {
        /// One request: id and scheduled send time (ns after the anchor).
        Req { id: i64, sched_ns: i64 } = 0 => [PipeMsg],
        /// End of load; follows every request on each FIFO link.
        Flush {} = 1 => [PipeMsg],
    }
}

/// Stamp points of a traced request, in pipeline order.
const SUBMIT: usize = 0;
const JOB: usize = 1;
const STAGE1: usize = 2;
const SINK: usize = 5;
const POINTS: usize = 6;

/// Machines built per step; the step reports the median set-up time.
const SETUP_REPS: usize = 3;

/// Generator tick: requests due within one tick go out as one job.
const TICK: Duration = Duration::from_micros(100);

/// Host-clock record of one step, shared by the generator, the jobs and
/// the actors. Each node thread writes only its own slots; the main
/// thread reads after `drain` has joined every node thread.
struct Stamps {
    anchor: Instant,
    /// Sink-side latency per request id, in ns (valid once `hits > 0`).
    lat_ns: Vec<AtomicU64>,
    /// Times each request id reached the sink (exactly once expected).
    hits: Vec<AtomicU32>,
    /// When the sink saw `Flush`, ns after the anchor.
    flush_ns: AtomicU64,
    /// Traced steps only: per stamp point, per request, ns after anchor.
    points: Vec<Vec<AtomicU64>>,
}

impl Stamps {
    fn new(n: usize, traced: bool) -> Stamps {
        let slots = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Stamps {
            anchor: Instant::now(),
            lat_ns: slots(n),
            hits: (0..n).map(|_| AtomicU32::new(0)).collect(),
            flush_ns: AtomicU64::new(0),
            points: if traced {
                (0..POINTS).map(|_| slots(n)).collect()
            } else {
                Vec::new()
            },
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    fn stamp(&self, point: usize, id: usize) {
        if let Some(p) = self.points.get(point) {
            p[id].store(self.now_ns(), Ordering::Relaxed);
        }
    }
}

struct Stage {
    next: MailAddr,
    point: usize,
    st: Arc<Stamps>,
}

impl Behavior for Stage {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if !self.st.points.is_empty() {
            if let PipeMsg::Req { id, .. } = PipeMsg::decode(&msg) {
                self.st.stamp(self.point, id as usize);
            }
        }
        ctx.send_msg(self.next, msg);
    }
}

struct Sink {
    st: Arc<Stamps>,
}

impl Behavior for Sink {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match PipeMsg::take(msg) {
            PipeMsg::Req { id, sched_ns } => {
                let now = self.st.now_ns();
                let id = id as usize;
                self.st.stamp(SINK, id);
                self.st.lat_ns[id].store(now.saturating_sub(sched_ns as u64), Ordering::Relaxed);
                self.st.hits[id].fetch_add(1, Ordering::Relaxed);
            }
            PipeMsg::Flush {} => {
                self.st.flush_ns.store(self.st.now_ns(), Ordering::Relaxed);
                ctx.stop();
            }
        }
    }
}

/// Build the machine and the pipeline, and start the node threads.
/// Returns the machine and the first stage's address.
fn build(seed: u64, traced: bool, st: &Arc<Stamps>) -> (Machine, MailAddr) {
    let cfg = MachineConfig::builder(2)
        .backend(BackendKind::Live)
        .seed(seed)
        .observe(ObserveOpts::none().metrics(traced))
        .build()
        .expect("live_pipeline config is valid");
    let mut m = Machine::live(cfg, Program::new().build());
    let mut next = m.with_ctx(0, |ctx| {
        ctx.create_local(Box::new(Sink { st: Arc::clone(st) }))
    });
    // Stages 3, 2, 1 on nodes 1, 0, 1: node 0 carries ingress, stage 2
    // and the sink.
    for (stage, node) in [(3usize, 1u16), (2, 0), (1, 1)] {
        next = m.with_ctx(node, |ctx| {
            ctx.create_local(Box::new(Stage {
                next,
                point: STAGE1 + stage - 1,
                st: Arc::clone(st),
            }))
        });
    }
    m.init().expect("live machine starts");
    (m, next)
}

/// Submit the requests `ids` as one job on node 0.
fn submit_batch(
    m: &mut Machine,
    first: MailAddr,
    st: &Arc<Stamps>,
    ids: std::ops::Range<usize>,
    sched: impl Fn(usize) -> u64 + Send + 'static,
) -> Result<(), MachineError> {
    let st = Arc::clone(st);
    m.submit(
        0,
        Box::new(move |ctx: &mut Ctx<'_>| {
            for id in ids {
                st.stamp(JOB, id);
                let (sel, args) = PipeMsg::Req {
                    id: id as i64,
                    sched_ns: sched(id) as i64,
                }
                .encode();
                ctx.send(first, sel, args);
            }
        }),
    )
}

/// One step: offers `--count` requests at `--rate` per second, or with
/// `--burst 1` submits them all at once and times how long the pipeline
/// takes to drain them.
pub fn step(a: &Args) -> Out {
    let seed = a.u64("seed", 1);
    let traced = a.flag("traced");
    let burst = a.u64("burst", 0) != 0;
    let n = a.u64("count", 10_000) as usize;
    let rate = a.f64("rate", 5_000.0);

    // Set-up: machine build, pipeline bootstrap, node-thread start. The
    // first `SETUP_REPS - 1` machines are stopped and discarded.
    let mut setup = Vec::new();
    let (st, mut m, first) = loop {
        let st = Arc::new(Stamps::new(n, traced));
        let t = Instant::now();
        let (mut m, first) = build(seed, traced, &st);
        setup.push(t.elapsed().as_secs_f64());
        if setup.len() == SETUP_REPS {
            break (st, m, first);
        }
        m.submit(0, Box::new(|ctx: &mut Ctx<'_>| ctx.stop()))
            .expect("fresh live machine accepts a job");
        m.drain(Duration::from_secs(10))
            .expect("idle live machine stops");
    };
    let mut out = Out::default();
    out.num("setup_s", quantile(&mut setup, 0.5));

    let period_ns = 1e9 / rate;
    let lead = Duration::from_millis(2);
    let start_ns = (st.now_ns() as f64 + lead.as_nanos() as f64) as u64;
    let mut late_us = Vec::with_capacity(n);
    let mut submitted_at = 0u64;
    let gen = (|| -> Result<(), MachineError> {
        if burst {
            while st.now_ns() < start_ns {
                std::hint::spin_loop();
            }
            for lo in (0..n).step_by(100) {
                submit_batch(&mut m, first, &st, lo..(lo + 100).min(n), move |_| start_ns)?;
            }
            submitted_at = st.now_ns();
        } else {
            let sched = move |id: usize| start_ns + (id as f64 * period_ns) as u64;
            let mut next = 0usize;
            while next < n {
                let now = st.now_ns();
                let due = if now < start_ns {
                    0
                } else {
                    (((now - start_ns) as f64 / period_ns) as usize + 1).min(n)
                };
                if due > next {
                    for id in next..due {
                        st.stamp(SUBMIT, id);
                        late_us.push((now - sched(id)) as f64 / 1e3);
                    }
                    submit_batch(&mut m, first, &st, next..due, sched)?;
                    next = due;
                    submitted_at = now;
                }
                if next < n {
                    let wait = sched(next).saturating_sub(st.now_ns());
                    std::thread::sleep(Duration::from_nanos(wait).max(TICK));
                }
            }
        }
        m.submit(
            0,
            Box::new(move |ctx: &mut Ctx<'_>| {
                let (sel, args) = PipeMsg::Flush {}.encode();
                ctx.send(first, sel, args);
            }),
        )
    })();
    let load_s = n as f64 / rate;
    let drained = gen.and_then(|()| m.drain(Duration::from_secs_f64(load_s + 20.0)));
    let report = match drained {
        Ok(r) => r,
        Err(e) => {
            out.int("ok", 0);
            out.str("error", &e.to_string());
            out.int("attempted", n as u64);
            out.int("missing", n as u64);
            out.int("wrong", 0);
            return out;
        }
    };
    out.int("ok", 1);
    out.int("attempted", n as u64);
    let hits: Vec<u32> = st.hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
    out.int("missing", hits.iter().filter(|&&h| h == 0).count() as u64);
    out.int("wrong", hits.iter().filter(|&&h| h > 1).count() as u64);

    let mut lat_ms: Vec<f64> = (0..n)
        .filter(|&i| hits[i] > 0)
        .map(|i| st.lat_ns[i].load(Ordering::Relaxed) as f64 / 1e6)
        .collect();
    // Backlog test: does latency at the end of the step exceed latency
    // at its start? (Compared before `lat_ms` is sorted.)
    let fifth = (lat_ms.len() / 5).max(1);
    if lat_ms.len() >= 10 {
        let mut head = lat_ms[..fifth].to_vec();
        let mut tail = lat_ms[lat_ms.len() - fifth..].to_vec();
        out.num("head_p50_ms", quantile(&mut head, 0.5));
        out.num("tail_p50_ms", quantile(&mut tail, 0.5));
    }
    out.int("samples", lat_ms.len() as u64);
    out.num("p50_ms", quantile(&mut lat_ms, 0.5));
    out.num("p99_ms", quantile(&mut lat_ms, 0.99));
    let flush_ns = st.flush_ns.load(Ordering::Relaxed);
    out.num("drain_s", flush_ns.saturating_sub(start_ns) as f64 / 1e9);
    if !burst {
        out.num("gen_late_p50_us", quantile(&mut late_us, 0.5));
        out.num("gen_late_p99_us", quantile(&mut late_us, 0.99));
        let span_s = submitted_at.saturating_sub(start_ns) as f64 / 1e9;
        out.num(
            "gen_achieved_rps",
            if span_s > 0.0 {
                (n - 1) as f64 / span_s
            } else {
                0.0
            },
        );
    }
    out.int("events", report.events);
    out.stats(&report.stats);
    if let Some(hub) = m.telemetry() {
        let busy: u64 = hub
            .cells()
            .iter()
            .map(|c| c.busy_ns.load(Ordering::Relaxed))
            .sum();
        out.int("busy_ns", busy);
        out.int("nodes", hub.cells().len() as u64);
    }
    if traced {
        spans(&st, &hits, &mut out);
        if let Some(path) = a.get("spans-out") {
            if let Err(e) = write_stamps(&st, path) {
                eprintln!("perfbench: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    out
}

/// Per-layer decomposition of the traced step from its stamps: ingress
/// wait (submit to job start) and per-hop times (job → stage 1 → stage
/// 2 → stage 3 → sink), each as p50/p99 in µs.
fn spans(st: &Stamps, hits: &[u32], out: &mut Out) {
    let at = |p: usize, i: usize| st.points[p][i].load(Ordering::Relaxed);
    let mut ingress = Vec::new();
    let mut hop = Vec::new();
    for i in (0..hits.len()).filter(|&i| hits[i] == 1) {
        if at(SUBMIT, i) > 0 {
            ingress.push(at(JOB, i).saturating_sub(at(SUBMIT, i)) as f64 / 1e3);
        }
        for p in JOB..SINK {
            hop.push(at(p + 1, i).saturating_sub(at(p, i)) as f64 / 1e3);
        }
    }
    out.num("ingress_wait_p50_us", quantile(&mut ingress, 0.5));
    out.num("ingress_wait_p99_us", quantile(&mut ingress, 0.99));
    out.num("hop_p50_us", quantile(&mut hop, 0.5));
    out.num("hop_p99_us", quantile(&mut hop, 0.99));
}

/// Write every 100th request's stamps (ns after the step's anchor), one
/// JSON object per line; all stamps of a request share its id.
fn write_stamps(st: &Stamps, path: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names = ["submit", "job", "stage1", "stage2", "stage3", "sink"];
    for id in (0..st.hits.len()).step_by(100) {
        write!(f, "{{\"id\":{id}")?;
        for (p, name) in names.iter().enumerate() {
            write!(
                f,
                ",\"{name}\":{}",
                st.points[p][id].load(Ordering::Relaxed)
            )?;
        }
        writeln!(f, "}}")?;
    }
    f.flush()
}
