//! The live backend: real kernels on host threads, real time, reliable
//! links.
//!
//! Where [`crate::machine::SimMachine`] advances a virtual clock under a
//! cost model, this machine runs one kernel per OS thread over
//! [`hal_am::thread_network_bounded`] mpsc links and anchors every
//! kernel's clock to the **host monotonic clock**: at the top of each
//! loop iteration a node sets `clock = max(clock, elapsed-since-start)`.
//! Virtual nanoseconds therefore *are* host nanoseconds, which makes
//! three things work unchanged:
//!
//! * the reliable layer's retransmit timers (virtual-time
//!   deadlines) fire at real wall deadlines — `KernelConfig::
//!   force_reliable` turns the layer on unconditionally, so seq/ack/
//!   retransmit + in-order holdback is the live wire protocol even
//!   though mpsc channels happen not to drop packets;
//! * `Ctx::now()` measures real time, so latency instrumentation
//!   written for the simulator (e.g. the serving front-end's
//!   `now() - sent_at`) is meaningful on both backends;
//! * migration, aliases, and FIR chases run the exact same kernel code
//!   paths — the backends differ only below [`crate::kernel::NetOut`].
//!
//! Chaos timers need a place to live without a DES heap: [`LiveNet`]
//! pairs the thread endpoint with a local binary heap of `(fire_at,
//! seq)` deadlines, popped once the anchored clock passes them.
//!
//! Termination is explicit (`Ctx::stop` → Halt broadcast), with a
//! wall-clock watchdog as the livelock valve — the live analog of
//! `max_events`. The result is a genuine [`SimReport`] (merged stats
//! including the thread-network's backpressure counters, per-node
//! clocks, reports, optional merged trace, quiescence audit) so
//! hal-check and the artifact tooling ingest live runs unchanged; only
//! virtual-time *determinism* is absent, which downstream consumers
//! must not assume (the perf gate relaxes its exact comparisons for
//! reports tagged live).

use crate::backend::{Backend, BackendKind, Job};
use crate::error::MachineError;
use crate::kernel::{with_system_ctx, Ctx, Kernel, KernelConfig, NetOut};
use crate::machine::{MachineConfig, SimReport};
use crate::registry::BehaviorRegistry;
use crate::telemetry::{spawn_collector, NodeCell, TelemetryHub};
use crate::trace::{TraceWarning, WarningKind};
use crate::wire::KMsg;
use hal_am::{
    thread_network, thread_network_bounded, AmEnvelope, FaultPlan, NodeId, Packet,
    ThreadEndpoint, ThreadNetStats,
};
use hal_des::{StatSet, VirtualDuration, VirtualTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use crate::sync::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reliable-layer timer tuning for live kernels. The simulated defaults
/// (100 µs RTO) are CM-5-scale; a host thread descheduled by the OS can
/// easily stall a millisecond, so live deadlines are host-scale —
/// generous enough that retransmits signal real loss or overload, not
/// scheduler jitter.
fn live_fault_plan() -> FaultPlan {
    FaultPlan {
        rto: VirtualDuration::from_millis(5),
        rto_max: VirtualDuration::from_millis(160),
        ..FaultPlan::none()
    }
}

/// How long an idle node parks on its receive queue before re-checking
/// timers, jobs, and the abort flag.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// One armed chaos timer: min-heap ordering on `(fire_at, seq)` so
/// simultaneous deadlines pop in arming order. The envelope is the
/// self-addressed `AmEnvelope::Timer` the kernel scheduled.
struct TimerEntry {
    fire_at: VirtualTime,
    seq: u64,
    env: AmEnvelope<KMsg>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.fire_at, self.seq).cmp(&(other.fire_at, other.seq))
    }
}

/// A node's network interface on the live backend: the thread endpoint
/// plus a local timer heap (the DES engine used to hold scheduled
/// timers; here each node keeps its own).
pub struct LiveNet {
    ep: ThreadEndpoint<KMsg>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    /// Packets received while a send was stalled on a full peer queue.
    /// The node loop consumes these before fresh arrivals so per-link
    /// FIFO order is preserved (see [`LiveNet::inject`]).
    inbox: VecDeque<Packet<KMsg>>,
}

impl LiveNet {
    fn new(ep: ThreadEndpoint<KMsg>) -> Self {
        LiveNet {
            ep,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            inbox: VecDeque::new(),
        }
    }

    /// Next packet set aside during a stalled send, oldest first.
    fn take_inbox(&mut self) -> Option<Packet<KMsg>> {
        self.inbox.pop_front()
    }

    /// Earliest armed timer deadline, if any.
    fn next_timer_due(&self) -> Option<VirtualTime> {
        self.timers.peek().map(|Reverse(t)| t.fire_at)
    }

    /// Pop the earliest timer if its deadline is at or before `now`.
    fn pop_due(&mut self, now: VirtualTime) -> Option<AmEnvelope<KMsg>> {
        if self.next_timer_due()? <= now {
            Some(self.timers.pop().expect("peeked").0.env)
        } else {
            None
        }
    }
}

impl NetOut for LiveNet {
    fn inject(
        &mut self,
        _now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        env: AmEnvelope<KMsg>,
        wire_bytes: usize,
    ) {
        debug_assert_eq!(src, self.ep.node());
        // Drain-while-stalled: never block on a full peer queue without
        // also draining our own. A blocking send from inside a dispatch
        // (e.g. a retransmit burst re-sending every unacked copy) can
        // wedge the partition — two nodes blocked on each other's full
        // queues, neither consuming. Instead, retry the non-blocking
        // send and between attempts pull our own arrivals into `inbox`,
        // so this node always stays a consumer while it waits. The
        // blocked sender makes progress as soon as the peer frees a
        // slot, and the peer can always free a slot because every node
        // in the cycle keeps draining.
        let mut env = env;
        let mut stalled = false;
        loop {
            match self.ep.try_send(dst, env, wire_bytes) {
                Ok(()) => return,
                Err(back) => env = back,
            }
            if !stalled {
                stalled = true;
                self.ep.note_backpressure();
            }
            let mut drained = false;
            while let Some(pkt) = self.ep.try_recv() {
                self.inbox.push_back(pkt);
                drained = true;
            }
            if !drained {
                std::thread::yield_now();
            }
        }
    }

    fn schedule(&mut self, fire_at: VirtualTime, node: NodeId, env: AmEnvelope<KMsg>) {
        debug_assert_eq!(node, self.ep.node(), "timers are always self-addressed");
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            fire_at,
            seq: self.timer_seq,
            env,
        }));
    }
}

/// What a finished node thread hands back.
struct NodeDone {
    kernel: Kernel,
    /// Loop iterations that made progress — the live stand-in for the
    /// simulator's event counter (order-of-magnitude comparable, not
    /// deterministic).
    events: u64,
}

enum LiveState {
    /// Threads not yet spawned: kernels are directly addressable, so
    /// bootstrap closures may borrow the caller's stack.
    Staged {
        kernels: Vec<Kernel>,
        nets: Vec<LiveNet>,
        job_txs: Vec<Sender<Job>>,
        job_rxs: Vec<Receiver<Job>>,
    },
    /// Node threads running; jobs travel over per-node channels.
    Running {
        handles: Vec<JoinHandle<NodeDone>>,
        job_txs: Vec<Sender<Job>>,
        abort: Arc<AtomicBool>,
        net_stats: Arc<ThreadNetStats>,
    },
    /// Drained: the report is fixed.
    Done(Box<SimReport>),
    /// Transient marker while moving between states; observing it means
    /// a prior transition panicked.
    Poisoned,
}

/// The live machine — see the module docs. Constructed via
/// [`crate::backend::Machine::live`] (or directly for tests).
pub struct LiveMachine {
    cfg: MachineConfig,
    state: LiveState,
    anchor: Instant,
    /// Host-time telemetry: one padded cell per node (shared with that
    /// node's kernel) plus the snapshot ring. Always wired — the hot
    /// path costs one relaxed atomic per hook — so the console `top`
    /// works against any running live machine; the *collector thread*
    /// (timeseries history) spawns only when metrics were requested.
    hub: Arc<TelemetryHub>,
    collector: Option<JoinHandle<()>>,
}

impl LiveMachine {
    /// Stage a live machine: build kernels and the bounded thread
    /// network, spawn nothing yet.
    ///
    /// # Panics
    /// Panics on an invalid configuration (use the validating builder),
    /// including a configuration carrying link faults — chaos injection
    /// is simulation-only.
    pub fn new(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let endpoints = match cfg.live_queue_capacity {
            0 => thread_network::<KMsg>(cfg.nodes),
            cap => thread_network_bounded::<KMsg>(cfg.nodes, cap),
        };
        let cells: Vec<Arc<NodeCell>> = (0..cfg.nodes)
            .map(|_| Arc::new(NodeCell::new(cfg.nodes)))
            .collect();
        let local_net: Vec<Arc<ThreadNetStats>> = endpoints
            .iter()
            .map(|ep| Arc::clone(ep.local_stats()))
            .collect();
        let hub = Arc::new(TelemetryHub::new(cells.clone(), local_net));
        let kernels: Vec<Kernel> = (0..cfg.nodes)
            .map(|i| {
                let kcfg = KernelConfig {
                    me: i as NodeId,
                    nodes: cfg.nodes,
                    cost: cfg.cost,
                    load_balancing: cfg.load_balancing && cfg.nodes > 1,
                    flow_control: cfg.flow_control,
                    quantum: cfg.quantum,
                    max_stack_depth: cfg.max_stack_depth,
                    seed: cfg.seed,
                    opt: cfg.opt,
                    trace: cfg.record_trace,
                    // The PR 5 registry's cadences assume a deterministic
                    // virtual clock, so it stays off on live; an explicit
                    // metrics request is rerouted to the host-time
                    // telemetry collector (with a typed trace warning).
                    metrics: false,
                    span_sample_ppm: cfg.span_sample_ppm,
                    faults: live_fault_plan(),
                    force_reliable: true,
                };
                let mut k = Kernel::new(kcfg, Arc::clone(&registry));
                k.set_telemetry(Arc::clone(&cells[i]));
                k
            })
            .collect();
        let mut job_txs = Vec::with_capacity(cfg.nodes);
        let mut job_rxs = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let (tx, rx) = channel::<Job>();
            job_txs.push(tx);
            job_rxs.push(rx);
        }
        LiveMachine {
            cfg,
            state: LiveState::Staged {
                kernels,
                nets: endpoints.into_iter().map(LiveNet::new).collect(),
                job_txs,
                job_rxs,
            },
            anchor: Instant::now(),
            hub,
            collector: None,
        }
    }

    /// The host-time telemetry hub — live `top` reads it while the
    /// machine runs.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Join every node thread, flipping `abort` if `deadline` passes
    /// first (node loops check it every idle millisecond).
    fn join_nodes(
        handles: Vec<JoinHandle<NodeDone>>,
        abort: &AtomicBool,
        deadline: Instant,
    ) -> (Vec<NodeDone>, bool) {
        let mut timed_out = false;
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            loop {
                if h.is_finished() {
                    break;
                }
                if Instant::now() >= deadline {
                    timed_out = true;
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            out.push(h.join().expect("live node thread panicked"));
        }
        (out, timed_out)
    }

    /// Assemble the [`SimReport`] from joined kernels — the same merge
    /// the simulator performs, minus network-determined facts it cannot
    /// know (metrics, prof) and plus the thread-network counters.
    fn assemble_report(
        cfg: &MachineConfig,
        mut nodes: Vec<NodeDone>,
        net_stats: &ThreadNetStats,
    ) -> Result<SimReport, MachineError> {
        if let Some(e) = nodes.iter_mut().find_map(|n| n.kernel.failed.take()) {
            return Err(e);
        }
        let mut stats = StatSet::new();
        let mut reports = Vec::new();
        let mut actors = 0;
        let mut events = 0;
        for n in &nodes {
            stats.merge(&n.kernel.stats);
            reports.extend(n.kernel.reports.iter().cloned());
            actors += n.kernel.actors_created();
            events += n.events;
        }
        stats.add("threadnet.packets", net_stats.packets.load(Ordering::Relaxed));
        stats.add("threadnet.bytes", net_stats.bytes.load(Ordering::Relaxed));
        stats.add(
            "threadnet.backpressure_hits",
            net_stats.backpressure_hits.load(Ordering::Relaxed),
        );
        stats.add(
            "threadnet.dropped_on_close",
            net_stats.dropped_on_close.load(Ordering::Relaxed),
        );
        let node_clocks: Vec<_> = nodes.iter().map(|n| n.kernel.clock).collect();
        let makespan = node_clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(VirtualTime::ZERO);
        let trace = cfg.record_trace.then(|| {
            crate::trace::TraceReport::merge(
                nodes.iter().filter_map(|n| n.kernel.recorder()),
            )
        });
        let behaviors = nodes
            .first()
            .map(|n| {
                n.kernel
                    .registry()
                    .entries()
                    .into_iter()
                    .map(|(id, name)| (id.0, name.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        let audit = crate::audit::MachineAudit {
            nodes: nodes.iter().map(|n| n.kernel.quiescence_audit()).collect(),
            behaviors,
        };
        Ok(SimReport {
            makespan,
            node_clocks,
            stats,
            reports,
            events,
            actors_created: actors,
            trace,
            metrics: None,
            audit,
            prof: None,
        })
    }
}

impl Backend for LiveMachine {
    fn kind(&self) -> BackendKind {
        BackendKind::Live
    }

    fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    fn exec(
        &mut self,
        node: NodeId,
        f: Box<dyn FnOnce(&mut Ctx<'_>) + '_>,
    ) -> Result<(), MachineError> {
        if (node as usize) >= self.cfg.nodes {
            return Err(MachineError::InvalidNode {
                node,
                nodes: self.cfg.nodes,
            });
        }
        match &mut self.state {
            LiveState::Staged { kernels, nets, .. } => {
                with_system_ctx(&mut kernels[node as usize], &mut nets[node as usize], f);
                Ok(())
            }
            _ => Err(MachineError::BackendState {
                what: "run a borrowing bootstrap closure after init (submit a Job instead)",
            }),
        }
    }

    fn init(&mut self) -> Result<(), MachineError> {
        match &self.state {
            LiveState::Staged { .. } => {}
            LiveState::Running { .. } => return Ok(()), // idempotent
            LiveState::Done(_) | LiveState::Poisoned => {
                return Err(MachineError::BackendState {
                    what: "restart after it has drained",
                })
            }
        }
        let LiveState::Staged {
            kernels,
            nets,
            job_txs,
            job_rxs,
        } = std::mem::replace(&mut self.state, LiveState::Poisoned)
        else {
            unreachable!("matched Staged above")
        };
        let abort = Arc::new(AtomicBool::new(false));
        let net_stats = Arc::clone(nets[0].ep.stats());
        // Re-anchor at spawn: bootstrap wall time (program loading)
        // should not count against the run's clocks.
        self.anchor = Instant::now();
        let anchor = self.anchor;
        self.hub.re_anchor();
        if self.cfg.record_metrics && self.collector.is_none() {
            // The timeseries collector: one hub pass per wall cadence.
            // Metrics on a live machine mean *host-time* metrics — the
            // virtual-cadence registry cannot run here (see the trace
            // warning attached at drain).
            self.collector = Some(spawn_collector(Arc::clone(&self.hub)));
        }
        let handles = kernels
            .into_iter()
            .zip(nets)
            .zip(job_rxs)
            .map(|((kernel, net), jobs)| {
                let abort = Arc::clone(&abort);
                std::thread::spawn(move || node_loop(kernel, net, jobs, abort, anchor))
            })
            .collect();
        self.state = LiveState::Running {
            handles,
            job_txs,
            abort,
            net_stats,
        };
        Ok(())
    }

    fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError> {
        if (node as usize) >= self.cfg.nodes {
            return Err(MachineError::InvalidNode {
                node,
                nodes: self.cfg.nodes,
            });
        }
        let txs = match &mut self.state {
            LiveState::Staged { job_txs, .. } | LiveState::Running { job_txs, .. } => job_txs,
            LiveState::Done(_) | LiveState::Poisoned => {
                return Err(MachineError::BackendState {
                    what: "accept a job after it has drained",
                })
            }
        };
        // Staged jobs queue up and run as soon as the node loop starts.
        txs[node as usize]
            .send(job)
            .map_err(|_| MachineError::BackendState {
                what: "accept a job for a node that already stopped",
            })
    }

    fn drain(&mut self, timeout: Duration) -> Result<SimReport, MachineError> {
        if matches!(self.state, LiveState::Staged { .. }) {
            self.init()?;
        }
        match std::mem::replace(&mut self.state, LiveState::Poisoned) {
            LiveState::Running {
                handles,
                job_txs,
                abort,
                net_stats,
            } => {
                // Drop the job senders so node loops see a disconnected
                // queue rather than a forever-pending one.
                drop(job_txs);
                let deadline = Instant::now() + timeout;
                let (nodes, timed_out) = Self::join_nodes(handles, &abort, deadline);
                // Final collector pass after every node joined: the last
                // snapshot reflects the fully drained machine, so drained
                // counter totals are exact (not a mid-run cut).
                self.hub.request_stop();
                if let Some(h) = self.collector.take() {
                    h.join().expect("telemetry collector panicked");
                }
                if timed_out {
                    // Leave the state Poisoned: a timed-out live run has
                    // no coherent report.
                    return Err(MachineError::WallTimeout {
                        waited_ms: timeout.as_millis() as u64,
                    });
                }
                let mut report = Self::assemble_report(&self.cfg, nodes, &net_stats)?;
                if self.cfg.record_metrics {
                    // The explicit metrics request was rerouted to the
                    // host-time collector; say so in-band rather than
                    // silently handing back a differently-sampled
                    // timeseries.
                    report.metrics = Some(self.hub.metrics_report());
                    if let Some(trace) = report.trace.as_mut() {
                        trace.warnings.push(TraceWarning {
                            kind: WarningKind::LiveMetricsHostTime,
                            t: VirtualTime::ZERO,
                            src: 0,
                            dst: 0,
                        });
                    }
                }
                self.state = LiveState::Done(Box::new(report.clone()));
                Ok(report)
            }
            LiveState::Done(report) => {
                let out = (*report).clone();
                self.state = LiveState::Done(report);
                Ok(out)
            }
            LiveState::Staged { .. } => unreachable!("init() above left Staged"),
            LiveState::Poisoned => Err(MachineError::BackendState {
                what: "drain after a failed run",
            }),
        }
    }

    fn report(&self) -> Result<SimReport, MachineError> {
        match &self.state {
            LiveState::Done(report) => Ok((**report).clone()),
            _ => Err(MachineError::BackendState {
                what: "snapshot a report before draining (a running partition has no coherent global state)",
            }),
        }
    }
}

/// One live node's event loop. Each iteration:
///
/// 1. anchor the virtual clock to host time (`max`, never backwards);
/// 2. fire due chaos timers (stale ones retired for free, as in the
///    simulator's delivery path);
/// 3. run submitted jobs in a system context;
/// 4. drain arrived packets;
/// 5. take one scheduling step;
/// 6. if nothing happened: optionally send a steal poll, then park on
///    the receive queue until the next timer deadline (at most
///    [`IDLE_PARK`]).
///
/// Exits when the kernel stops (local `Ctx::stop` or received Halt) or
/// the watchdog flips `abort`.
fn node_loop(
    mut kernel: Kernel,
    mut net: LiveNet,
    jobs: Receiver<Job>,
    abort: Arc<AtomicBool>,
    anchor: Instant,
) -> NodeDone {
    let mut events = 0u64;
    loop {
        if kernel.stopped || abort.load(Ordering::Relaxed) {
            return NodeDone { kernel, events };
        }
        kernel.clock = kernel
            .clock
            .max(VirtualTime::from_nanos(anchor.elapsed().as_nanos() as u64));
        let me = kernel.config().me;
        let mut progress = false;
        while let Some(env) = net.pop_due(kernel.clock) {
            if let AmEnvelope::Timer(body) = &env {
                if kernel.timer_stale(body) {
                    kernel.expire_timer(body);
                    continue;
                }
            }
            kernel.handle_packet(
                &mut net,
                Packet {
                    src: me,
                    dst: me,
                    body: env,
                },
            );
            events += 1;
            progress = true;
        }
        while let Ok(job) = jobs.try_recv() {
            with_system_ctx(&mut kernel, &mut net, job);
            events += 1;
            progress = true;
            if kernel.stopped {
                return NodeDone { kernel, events };
            }
        }
        // Inbox first: packets set aside while a send was stalled are
        // older than anything still in the endpoint queue.
        loop {
            let Some(pkt) = net.take_inbox().or_else(|| net.ep.try_recv()) else {
                break;
            };
            kernel.handle_packet(&mut net, pkt);
            events += 1;
            progress = true;
            if kernel.stopped {
                return NodeDone { kernel, events };
            }
        }
        if kernel.step(&mut net) {
            events += 1;
            progress = true;
        }
        if !progress {
            if kernel.nodes() > 1 && kernel.balancer.may_poll(kernel.clock) {
                kernel.send_steal_poll(&mut net);
            }
            // Park until traffic arrives or the next timer is due,
            // whichever is sooner (bounded so jobs/abort stay checked).
            let park = match net.next_timer_due() {
                Some(due) => {
                    let now = VirtualTime::from_nanos(anchor.elapsed().as_nanos() as u64);
                    if due <= now {
                        continue; // already due: fire it on the next pass
                    }
                    Duration::from_nanos(due.since(now).as_nanos()).min(IDLE_PARK)
                }
                None => IDLE_PARK,
            };
            if let Some(pkt) = net.ep.recv_timeout(park) {
                kernel.handle_packet(&mut net, pkt);
                events += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Machine;
    use crate::message::Value;

    fn empty_registry() -> Arc<BehaviorRegistry> {
        Arc::new(BehaviorRegistry::new())
    }

    #[test]
    fn live_empty_partition_stops_via_bootstrap() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.with_ctx(0, |ctx| {
            ctx.report("who", Value::Int(7));
            ctx.stop();
        });
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert_eq!(report.value("who"), Some(&Value::Int(7)));
        assert_eq!(report.node_clocks.len(), 2);
        // Drained: report() re-reads the same result.
        let again = m.report().unwrap();
        assert_eq!(again.value("who"), Some(&Value::Int(7)));
    }

    #[test]
    fn live_submit_runs_jobs_mid_flight() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.init().unwrap();
        m.submit(1, Box::new(|ctx| ctx.report("from", Value::Int(1))))
            .unwrap();
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert_eq!(report.value("from"), Some(&Value::Int(1)));
    }

    #[test]
    fn live_exec_after_init_is_a_state_error() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        let err = m.exec(0, Box::new(|_| {})).unwrap_err();
        assert!(matches!(err, MachineError::BackendState { .. }));
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        m.drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn live_report_before_drain_is_a_state_error() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let m = LiveMachine::new(cfg, empty_registry());
        assert!(matches!(
            m.report(),
            Err(MachineError::BackendState { .. })
        ));
    }

    #[test]
    fn live_wall_timeout_trips() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        // Nobody ever calls stop: the watchdog must fire.
        let err = m.drain(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, MachineError::WallTimeout { .. }));
    }

    #[test]
    fn live_clocks_track_host_time() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.init().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert!(
            report.makespan >= VirtualTime::from_nanos(15_000_000),
            "anchored clock must have advanced ~20ms of host time, got {} ns",
            report.makespan.as_nanos()
        );
    }
}
