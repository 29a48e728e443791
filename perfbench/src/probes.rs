//! Per-layer probes: host-ns costs of single calls into each layer's
//! public functions, with inputs shaped like a workload's (message
//! arity and protocol, name-table size, event-queue depth, reliable
//! window and reorder rate — `run.py` passes them from the workload's
//! traced counters).

use crate::util::{time_per_call, Args, Out, Rng};
use hal::prelude::*;
use hal_am::{thread_network, AmEnvelope, RelReceiver, RelSender, RxOutcome};
use hal_des::{EventQueue, VirtualTime};
use hal_kernel::name_server::NameServer;
use hal_kernel::{ActorId, AddrKey, DescriptorId, SimMachine};
use std::hint::black_box;
use std::time::Duration;

/// Measuring time per probe; each probe reports the median over batches.
const BUDGET: Duration = Duration::from_millis(80);

struct Sink;
impl Behavior for Sink {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        black_box(msg);
    }
}

/// Arguments shaped like one message of the workload's protocol.
fn shaped_args(proto: &str) -> Vec<Value> {
    match proto {
        "serve" => vec![Value::Int(7), Value::Int(1_000_000)],
        _ => vec![Value::Int(29)],
    }
}

/// One `messages!` encode → `Msg` → take round trip of the workload's
/// own protocol message.
fn encode_take(proto: &str) {
    match proto {
        "fib" => {
            use hal_workloads::fib::FibMsg;
            let (sel, args) = black_box(FibMsg::Compute { n: 29 }).encode();
            black_box(FibMsg::take(Msg::new(sel, args)));
        }
        "chase" => {
            use crate::sim::ChaseMsg;
            let (sel, args) = black_box(ChaseMsg::Probe { tag: 1 << 32 | 7 }).encode();
            black_box(ChaseMsg::take(Msg::new(sel, args)));
        }
        _ => {
            use crate::live::PipeMsg;
            let msg = PipeMsg::Req {
                id: 7,
                sched_ns: 1_000_000,
            };
            let (sel, args) = black_box(msg).encode();
            black_box(PipeMsg::take(Msg::new(sel, args)));
        }
    }
}

fn sim_machine(nodes: usize) -> SimMachine {
    let cfg = MachineConfig::builder(nodes)
        .build()
        .expect("probe config is valid");
    SimMachine::new(cfg, Program::new().build())
}

pub fn run(a: &Args) -> Out {
    let proto = a.get("proto").unwrap_or("fib");
    let table = a.u64("table", 64).max(1) as u32;
    let depth = a.u64("depth", 16).max(1);
    let window = a.u64("window", 1).max(1);
    let reorder = a.f64("reorder", 0.0).clamp(0.0, 1.0);
    let args = shaped_args(proto);
    let mut out = Out::default();

    // des: one pop + one push at a steady queue depth.
    out.num(
        "des.queue_push_pop_ns",
        time_per_call(BUDGET, 4096, |n| {
            let mut q = EventQueue::<u64>::with_capacity(depth as usize + 1);
            let mut rng = Rng::new(depth);
            for i in 0..depth {
                q.push(VirtualTime::from_nanos(rng.below(1_000)), i);
            }
            for _ in 0..n {
                let (t, v) = q.pop().expect("queue holds `depth` events");
                q.push(
                    VirtualTime::from_nanos(t.as_nanos() + 1 + rng.below(1_000)),
                    v,
                );
            }
            black_box(q.len());
        }),
    );

    // kernel: generic local send (enqueue + dispatch through the loop).
    {
        let mut m = sim_machine(1);
        let sink = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Sink)));
        out.num(
            "kernel.local_send_ns",
            time_per_call(BUDGET, 256, |n| {
                m.with_ctx(0, |ctx| {
                    for _ in 0..n {
                        ctx.send(sink, 0, args.clone());
                    }
                });
                m.run().expect("local sends run");
            }),
        );
        out.num(
            "kernel.fast_send_ns",
            time_per_call(BUDGET, 256, |n| {
                m.with_ctx(0, |ctx| {
                    for _ in 0..n {
                        black_box(ctx.send_fast(sink, 0, args.clone()));
                    }
                });
            }),
        );
    }
    {
        let mut m = sim_machine(2);
        let sink = m.with_ctx(1, |ctx| ctx.create_local(Box::new(Sink)));
        out.num(
            "kernel.remote_send_ns",
            time_per_call(BUDGET, 64, |n| {
                m.with_ctx(0, |ctx| {
                    for _ in 0..n {
                        ctx.send(sink, 0, args.clone());
                    }
                });
                m.run().expect("remote sends run");
            }),
        );
    }

    // join: create a two-slot join continuation, fill both, fire.
    {
        let mut m = sim_machine(1);
        out.num(
            "join.create_fill_fire_ns",
            time_per_call(BUDGET, 256, |n| {
                m.with_ctx(0, |ctx| {
                    for _ in 0..n {
                        let jc = ctx.create_join(
                            2,
                            vec![],
                            Box::new(|_, v| {
                                black_box(v);
                            }),
                        );
                        ctx.reply_to(ctx.cont_slot(jc, 0), Value::Int(1));
                        ctx.reply_to(ctx.cont_slot(jc, 1), Value::Int(2));
                    }
                });
            }),
        );
    }

    // actor: local creation (a fresh machine per batch bounds memory).
    out.num(
        "actor.create_local_ns",
        time_per_call(BUDGET, 1024, |n| {
            let mut m = sim_machine(1);
            m.with_ctx(0, |ctx| {
                for _ in 0..n {
                    black_box(ctx.create_local(Box::new(Sink)));
                }
            });
        }),
    );

    // hal: typed encode + consuming decode of the workload's message.
    out.num(
        "hal.encode_take_ns",
        time_per_call(BUDGET, 4096, |n| {
            for _ in 0..n {
                encode_take(proto);
            }
        }),
    );

    // name server: birthplace fast path, and a foreign-key hash lookup
    // in a table of the workload's size.
    {
        let mut ns = NameServer::new(0);
        let d = ns.alloc_local(ActorId(0), 0);
        let key = AddrKey {
            birthplace: 0,
            index: d,
        };
        out.num(
            "name.resolve_fast_ns",
            time_per_call(BUDGET, 4096, |n| {
                for _ in 0..n {
                    black_box(ns.resolve(black_box(key)));
                }
            }),
        );
        let foreign = |i: u32| AddrKey {
            birthplace: (i % 15 + 1) as u16,
            index: DescriptorId(i),
        };
        let mut ns = NameServer::new(0);
        for i in 0..table {
            let d = ns.alloc_remote(foreign(i).birthplace, None, 0);
            ns.bind(foreign(i), d);
        }
        let mut i = 0u32;
        out.num(
            "name.resolve_hash_ns",
            time_per_call(BUDGET, 4096, |n| {
                for _ in 0..n {
                    i = (i + 7919) % table;
                    black_box(ns.resolve(black_box(foreign(i))));
                }
            }),
        );
    }

    // reliable: register `window` sends then retire them with one
    // cumulative ack (per packet); receiver accepts a stream with the
    // workload's reorder rate.
    {
        let mut tx = RelSender::<u64>::new();
        let mut sent = 0u64;
        out.num(
            "rel.register_ack_ns",
            time_per_call(BUDGET, 64 * window, |n| {
                for _ in 0..n / window {
                    for _ in 0..window {
                        black_box(tx.register(1, AmEnvelope::Small(sent), 16));
                        sent += 1;
                    }
                    black_box(tx.on_ack(1, sent));
                }
            }),
        );
        let mut src = RelSender::<u64>::new();
        let mut rx = RelReceiver::<u64>::new();
        let mut rng = Rng::new(7);
        let threshold = (reorder * u64::MAX as f64) as u64;
        out.num(
            "rel.on_data_ns",
            time_per_call(BUDGET, 1024, |n| {
                let mut tickets: Vec<_> = (0..n)
                    .map(|i| src.register(0, AmEnvelope::Small(i), 16))
                    .collect();
                for i in 1..tickets.len() {
                    if rng.next_u64() < threshold {
                        tickets.swap(i - 1, i);
                    }
                }
                for t in tickets {
                    match rx.on_data(1, t.seq, t.payload, 16) {
                        RxOutcome::Deliver(v) => {
                            black_box(v);
                        }
                        RxOutcome::Duplicate => unreachable!("fresh sequence numbers"),
                    }
                }
                src.on_ack(0, rx.cum(1));
            }),
        );
    }

    // live transport: one round trip between two threaded endpoints.
    {
        let mut eps = thread_network::<u64>(2);
        let echo = eps.pop().expect("two endpoints");
        let ping = eps.pop().expect("two endpoints");
        let server = std::thread::spawn(move || {
            while let Some(p) = echo.recv() {
                match p.body {
                    AmEnvelope::Small(u64::MAX) => break,
                    body => echo.send(0, body, 16),
                }
            }
        });
        out.num(
            "am.thread_rtt_ns",
            time_per_call(BUDGET, 256, |n| {
                for i in 0..n {
                    ping.send(1, AmEnvelope::Small(i), 16);
                    black_box(ping.recv().expect("echo replies"));
                }
            }),
        );
        ping.send(1, AmEnvelope::Small(u64::MAX), 16);
        server.join().expect("echo thread exits cleanly");
        // Under load a node drains queued packets without sleeping: the
        // per-packet channel cost with no wake-up in it.
        out.num(
            "am.thread_send_recv_ns",
            time_per_call(BUDGET, 256, |n| {
                for i in 0..n {
                    ping.send(0, AmEnvelope::Small(i), 16);
                }
                for _ in 0..n {
                    black_box(ping.try_recv().expect("looped-back packet is queued"));
                }
            }),
        );
    }
    out
}
