//! Chaos-subsystem tests at the kernel level: the FIR watchdog under a
//! link outage, a lossy multi-nomad chase under the reliable layer,
//! typed machine errors, and config validation.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    Behavior, BehaviorId, BehaviorRegistry, ConfigError, FaultPlan, LinkOutage, MachineConfig,
    MachineError, Msg, SimMachine, Value,
};
use hal_des::{Pcg32, VirtualDuration, VirtualTime};
use std::sync::Arc;

/// Walks a fixed hop list, then reports every probe it receives.
struct Nomad {
    hops: Vec<u16>,
    probes: i64,
}
impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                if let Some(next) = self.hops.pop() {
                    let me = ctx.me();
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                }
            }
            1 => {
                self.probes += 1;
                ctx.report("probe_delivered", Value::Int(self.probes));
                ctx.report("probed_on", Value::Int(ctx.node() as i64));
            }
            _ => unreachable!(),
        }
    }
}

fn empty_registry() -> Arc<BehaviorRegistry> {
    Arc::new(BehaviorRegistry::new())
}

#[test]
fn lost_fir_reply_is_reissued_by_watchdog() {
    // An actor born on node 1 migrates once to node 2; the reverse link
    // 2 -> 1 is dead for the first 2ms. The dead link eats the
    // migration announcement (so node 1 is left with an *unconfirmed*
    // forward pointer and must FIR) and then every `FirFound` reply.
    // With the reliable layer off, only the FIR watchdog can unwedge
    // the parked probe: it must re-issue the chase every `fir_timeout`
    // until the outage lifts. Flow control is off so the migration
    // image travels as one eager packet on the healthy 1 -> 2 link —
    // the outage touches nothing but the announcement and the replies.
    let outage_end = VirtualTime::from_nanos(2_000_000);
    let faults = FaultPlan::none().with_reliable(false).with_outage(LinkOutage {
        src: 2,
        dst: 1,
        from: VirtualTime::from_nanos(0),
        until: outage_end,
    });
    let cfg = MachineConfig::builder(3)
        .faults(faults)
        .flow_control(false)
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());

    // Phase 1: the hop (its announcement back to node 1 is eaten).
    let nomad = m.with_ctx(1, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: vec![2],
            probes: 0,
        }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    let walk = m.run().unwrap();
    assert_eq!(walk.stats.get("migrations.in"), 1, "the hop completed");

    // Phase 2: a probe routed via the birthplace parks behind the FIR
    // chase whose replies the outage keeps eating.
    m.with_ctx(0, |ctx| {
        ctx.send(nomad, 1, vec![]);
    });
    let r = m.run().unwrap();

    assert_eq!(
        r.values("probe_delivered").len(),
        1,
        "the parked probe must eventually be delivered exactly once"
    );
    assert_eq!(
        r.value("probed_on"),
        Some(&Value::Int(2)),
        "probe chased the nomad to its new node"
    );
    assert!(
        r.stats.get("fir.reissued") >= 1,
        "the watchdog must have re-issued the wedged chase (reissued = {})",
        r.stats.get("fir.reissued")
    );
    assert!(
        r.makespan >= outage_end,
        "delivery cannot complete before the outage lifts"
    );
}

/// Walks its hop list, dwelling `dwell` of virtual time per node, and
/// reports the tag of every probe it receives.
struct Walker {
    hops: Vec<u16>,
    dwell: VirtualDuration,
}
impl Behavior for Walker {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                if let Some(next) = self.hops.pop() {
                    ctx.charge(self.dwell);
                    let me = ctx.me();
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                }
            }
            1 => ctx.report("probe", msg.args[0].clone()),
            _ => unreachable!(),
        }
    }
}

/// Sends `total` tagged probes to its walker, one per `period`, after
/// an initial `delay` so the probes chase a walker that already left.
struct Sprayer {
    target: hal_kernel::MailAddr,
    id: i64,
    sent: i64,
    total: i64,
    period: VirtualDuration,
    delay: VirtualDuration,
}
impl Behavior for Sprayer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        if self.sent == 0 {
            ctx.charge(self.delay);
        }
        ctx.send(self.target, 1, vec![Value::Int(self.id << 32 | self.sent)]);
        self.sent += 1;
        if self.sent < self.total {
            ctx.charge(self.period);
            let me = ctx.me();
            ctx.send(me, 2, vec![]);
        }
    }
}

#[test]
fn lossy_chase_under_reliable_layer_needs_no_fir_reissue() {
    // 8 walkers take 16 seeded hops each across 16 nodes while a sprayer
    // apiece chases them with 30 probes, over links that drop, duplicate
    // and reorder 2% of packets. The reliable layer retransmits every
    // FIR and reply until acked, so the FIR watchdog stays disarmed and
    // ack progress restarts the retransmit timer instead of re-sending.
    // Without both, FIR re-issues and retransmit rounds feed each other
    // into congestion collapse: seeds 8 and 13 then take ~150k and
    // ~200k events, against ~5k and ~6k here.
    const NODES: u32 = 16;
    const WALKERS: i64 = 8;
    const HOPS: usize = 16;
    const PROBES: i64 = 30;
    const MAX_EVENTS: u64 = 20_000;
    for seed in [8u64, 10, 13] {
        let cfg = MachineConfig::builder(NODES as usize)
            .seed(seed)
            .faults(FaultPlan::chaos(0.02))
            .max_events(MAX_EVENTS)
            .build()
            .unwrap();
        let mut m = SimMachine::new(cfg, empty_registry());
        let mut rng = Pcg32::new(seed, 7);
        let period = VirtualDuration::from_nanos(20_000);
        for j in 0..WALKERS {
            let home = rng.next_below(NODES) as u16;
            let mut at = home;
            let mut hops: Vec<u16> = (0..HOPS)
                .map(|_| {
                    at = ((u32::from(at) + 1 + rng.next_below(NODES - 1)) % NODES) as u16;
                    at
                })
                .collect();
            hops.reverse();
            let walker = m.with_ctx(home, |ctx| {
                let w = ctx.create_local(Box::new(Walker { hops, dwell: period }));
                ctx.send(w, 0, vec![]);
                w
            });
            m.with_ctx(rng.next_below(NODES) as u16, |ctx| {
                let s = ctx.create_local(Box::new(Sprayer {
                    target: walker,
                    id: j,
                    sent: 0,
                    total: PROBES,
                    period,
                    delay: VirtualDuration::from_nanos(1_000_000),
                }));
                ctx.send(s, 2, vec![]);
            });
        }
        let r = m
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: lossy chase did not complete: {e}"));
        let mut tags: Vec<i64> = r.values("probe").into_iter().map(|v| v.as_int()).collect();
        tags.sort_unstable();
        let once: Vec<i64> = (0..WALKERS)
            .flat_map(|j| (0..PROBES).map(move |k| j << 32 | k))
            .collect();
        assert_eq!(tags, once, "seed {seed}: every probe exactly once");
        assert!(r.stats.get("net.fault_dropped") > 0, "seed {seed}: the plan is live");
        assert!(r.stats.get("fir.sent") > 0, "seed {seed}: probes chased the walkers");
        assert_eq!(
            r.stats.get("fir.reissued"),
            0,
            "seed {seed}: the reliable layer already recovers lost FIRs"
        );
    }
}

#[test]
fn unknown_behavior_is_a_typed_error() {
    let mut m = SimMachine::new(MachineConfig::new(2), empty_registry());
    m.with_ctx(0, |ctx| {
        ctx.create_on(1, BehaviorId(42), vec![]);
    });
    let err = m.run().unwrap_err();
    assert!(
        matches!(err, MachineError::UnknownBehavior { behavior: BehaviorId(42), node: 1 }),
        "expected UnknownBehavior, got: {err}"
    );
}

#[test]
fn builder_rejects_bad_configs() {
    assert!(matches!(
        MachineConfig::builder(0).build().unwrap_err(),
        ConfigError::ZeroNodes
    ));
    assert!(matches!(
        MachineConfig::builder(2).quantum(0).build().unwrap_err(),
        ConfigError::ZeroQuantum
    ));
    assert!(matches!(
        MachineConfig::builder(2)
            .faults(FaultPlan::none().with_drop(1.5))
            .build()
            .unwrap_err(),
        ConfigError::BadFaultRate { which: "drop" }
    ));
    assert!(matches!(
        MachineConfig::builder(2)
            .faults(FaultPlan::none().with_duplicate(f64::NAN))
            .build()
            .unwrap_err(),
        ConfigError::BadFaultRate { which: "duplicate" }
    ));
}

#[test]
fn config_error_converts_into_machine_error() {
    let e: MachineError = ConfigError::ZeroNodes.into();
    assert!(matches!(e, MachineError::Config(ConfigError::ZeroNodes)));
    assert!(e.to_string().contains("at least one node"));
}

#[test]
fn builder_matches_hand_built_config() {
    // The builder is the only config spelling left after the PR-3 shim
    // deprecation window: it must agree with direct field assignment.
    let mut by_hand = MachineConfig::new(4);
    by_hand.seed = 9;
    by_hand.load_balancing = true;
    by_hand.flow_control = false;
    by_hand.parallelism = 3;
    let built = MachineConfig::builder(4)
        .seed(9)
        .load_balancing(true)
        .flow_control(false)
        .parallelism(3)
        .build()
        .unwrap();
    assert_eq!(by_hand.seed, built.seed);
    assert_eq!(by_hand.load_balancing, built.load_balancing);
    assert_eq!(by_hand.flow_control, built.flow_control);
    assert_eq!(by_hand.parallelism, built.parallelism);
    assert_eq!(by_hand.nodes, built.nodes);
}
