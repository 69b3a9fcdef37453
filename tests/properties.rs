//! Property-based tests on the core data structures and model invariants,
//! driven by the vendored `pxl_sim::qcheck` harness (the workspace builds
//! fully offline, so it cannot pull in `proptest`).

use parallelxl::arch::{PStore, TaskDeque};
use parallelxl::mem::{BandwidthMeter, Memory};
use parallelxl::model::{
    Continuation, ParallelFor, PendingTask, SerialExecutor, Task, TaskContext, TaskTypeId, Worker,
    MAX_ARGS,
};
use parallelxl::sim::qcheck::{check, Gen};
use parallelxl::sim::{EventQueue, Time};

/// The work-stealing deque behaves exactly like a double-ended queue: owner
/// ops at the tail, thief ops at the head.
#[test]
fn deque_matches_model() {
    check(96, "deque matches VecDeque", |g: &mut Gen| {
        let mut dut = TaskDeque::new(1024);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for _ in 0..g.usize_in(1, 200) {
            match g.range(0, 3) {
                0 => {
                    let t = Task::new(TaskTypeId(0), Continuation::host(0), &[next]);
                    assert!(dut.push_tail(t, Time::ZERO).is_ok());
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let got = dut.pop_tail(Time::ZERO).map(|t| t.args[0]);
                    assert_eq!(got, model.pop_back());
                }
                _ => {
                    let got = dut.steal_head(Time::ZERO).map(|t| t.args[0]);
                    assert_eq!(got, model.pop_front());
                }
            }
            assert_eq!(dut.len(), model.len());
        }
    });
}

/// The two-lane bucketed event queue pops in exactly the order of a plain
/// binary-heap reference — time order, FIFO at equal times — over random
/// push/pop interleavings that span both lanes (same-bucket ties, in-window
/// deltas, far-future horizons), including a snapshot/restore mid-stream:
/// `ordered()` + re-push into a fresh queue, exactly what checkpointing does.
#[test]
fn event_queue_matches_heap_reference() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Near-lane window span (NUM_BUCKETS << BUCKET_SHIFT in pxl-sim's
    // event.rs); deltas beyond this overflow to the heap lane.
    const WINDOW_PS: u64 = 256 << 13;

    check(48, "event queue matches heap reference", |g: &mut Gen| {
        let mut dut: EventQueue<u64> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(Time, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut payload = 0u64;
        let mut now = 0u64; // last popped time (ps): the sim-clock lower bound
        let mut last_when = 0u64;
        let ops = g.usize_in(50, 300);
        let restore_at = g.usize_in(0, ops);
        for op in 0..ops {
            if op == restore_at {
                // Snapshot as checkpointing does and rebuild: fresh seqs
                // assigned in `ordered()` order must preserve every
                // tie-break, so the restored queue pops identically.
                let snap: Vec<(Time, u64)> =
                    dut.ordered().into_iter().map(|(t, &p)| (t, p)).collect();
                let mut rebuilt = EventQueue::new();
                for &(t, p) in &snap {
                    rebuilt.push(t, p);
                }
                dut = rebuilt;
                seq = 0;
                let mut drained = Vec::new();
                while let Some(Reverse((t, _, p))) = model.pop() {
                    drained.push((t, p));
                }
                assert_eq!(snap, drained, "snapshot order diverged from model");
                for (t, p) in drained {
                    model.push(Reverse((t, seq, p)));
                    seq += 1;
                }
            }
            if g.ratio(3, 5) || dut.is_empty() {
                let when = match g.range(0, 8) {
                    0..=2 => now + g.range(0, 1 << 13),   // same/adjacent bucket
                    3..=4 => now + g.range(0, WINDOW_PS), // anywhere in window
                    5 => now + WINDOW_PS + g.range(0, 8 * WINDOW_PS), // far lane
                    _ => last_when,                       // exact tie: exercises FIFO order
                };
                last_when = when;
                dut.push(Time::from_ps(when), payload);
                model.push(Reverse((Time::from_ps(when), seq, payload)));
                seq += 1;
                payload += 1;
            } else {
                let (t, p) = dut.pop().expect("queue is non-empty");
                let Reverse((mt, _, mp)) = model.pop().expect("model is non-empty");
                assert_eq!((t, p), (mt, mp), "pop diverged from heap reference");
                now = t.as_ps();
            }
            assert_eq!(dut.len(), model.len());
            assert_eq!(dut.peek_time(), model.peek().map(|Reverse((t, _, _))| *t));
        }
        // Drain: the full residual order must match.
        while let Some((t, p)) = dut.pop() {
            let Reverse((mt, _, mp)) = model.pop().expect("model drains with dut");
            assert_eq!((t, p), (mt, mp));
        }
        assert!(model.is_empty());
    });
}

/// Continuation encoding is a bijection over its domain.
#[test]
fn continuation_roundtrip() {
    check(
        256,
        "continuation encode/decode roundtrip",
        |g: &mut Gen| {
            let tile = g.range(0, u16::MAX as u64 + 1) as u16;
            let entry = g.range(0, 1 << 32) as u32;
            let slot = g.range(0, MAX_ARGS as u64) as u8;
            let host_slot = g.range(0, 8) as u8;
            let k = Continuation::pstore(tile, entry, slot);
            assert_eq!(Continuation::decode(k.encode()), k);
            let h = Continuation::host(host_slot);
            assert_eq!(Continuation::decode(h.encode()), h);
            assert_ne!(h.encode(), k.encode());
        },
    );
}

/// A pending task becomes ready exactly when its last argument arrives, for
/// any join count and any arrival order.
#[test]
fn pstore_join_counting() {
    check(
        128,
        "pstore joins fire on the last argument",
        |g: &mut Gen| {
            let join = g.range(1, MAX_ARGS as u64 + 1) as u8;
            let mut ps = PStore::new(4);
            let entry = ps
                .alloc(PendingTask::new(TaskTypeId(1), Continuation::host(0), join))
                .unwrap()
                .unwrap();
            // Shuffle slot order from the generator.
            let mut slots: Vec<u8> = (0..join).collect();
            for i in (1..slots.len()).rev() {
                let j = g.usize_in(0, i + 1);
                slots.swap(i, j);
            }
            for (i, &slot) in slots.iter().enumerate() {
                let outcome = ps.fill(entry, slot, 100 + slot as u64).unwrap();
                if i + 1 == join as usize {
                    let t = outcome.ready.expect("last argument completes the join");
                    for &slot in &slots {
                        assert_eq!(t.args[slot as usize], 100 + slot as u64);
                    }
                } else {
                    assert!(outcome.ready.is_none());
                }
            }
            assert_eq!(ps.occupancy(), 0);
        },
    );
}

/// Functional memory reads back exactly what was written, at any alignment
/// and span (including page boundaries).
#[test]
fn memory_readback() {
    check(128, "memory readback", |g: &mut Gen| {
        let addr = g.range(0, 100_000);
        let len = g.usize_in(1, 300);
        let data: Vec<u8> = (0..len).map(|_| g.range(0, 256) as u8).collect();
        let mut mem = Memory::new();
        mem.write_bytes(addr, &data);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(addr, &mut back);
        assert_eq!(back, data);
    });
}

/// parallel_for covers every index exactly once and reduces the exact
/// count, for arbitrary ranges and grains.
#[test]
fn parallel_for_exact_coverage() {
    check(48, "parallel_for exact coverage", |g: &mut Gen| {
        let n = g.range(0, 3000);
        let grain = g.range(1, 200);
        struct W {
            pf: ParallelFor,
        }
        impl Worker for W {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                let pf = self.pf;
                let handled = pf.step(task, ctx, |ctx, lo, hi| {
                    for i in lo..hi {
                        let a = 0x1000 + i;
                        let v = ctx.mem().read_u8(a);
                        ctx.mem().write_u8(a, v + 1);
                    }
                    hi - lo
                });
                assert!(handled);
            }
        }
        let pf = ParallelFor::new(TaskTypeId(0), TaskTypeId(1), grain);
        let mut exec = SerialExecutor::new();
        let total = exec
            .run(&mut W { pf }, pf.root_task(0, n, Continuation::host(0)))
            .unwrap();
        assert_eq!(total, n);
        for i in 0..n {
            assert_eq!(exec.memory().read_u8(0x1000 + i), 1);
        }
    });
}

/// The bandwidth meter never starts service before the request and never
/// loses committed work.
#[test]
fn bandwidth_meter_conservation() {
    check(
        128,
        "bandwidth meter conserves committed work",
        |g: &mut Gen| {
            let mut m = BandwidthMeter::new(10_000);
            let mut committed = 0u64;
            for _ in 0..g.usize_in(1, 100) {
                let at = g.range(0, 1_000_000);
                let occ = g.range(1, 5_000);
                let start = m.acquire(Time::from_ps(at), occ);
                assert!(start >= Time::from_ps(at), "service before request");
                committed += occ;
            }
            assert_eq!(m.total_committed_ps(), committed);
        },
    );
}

/// Fork-join over an arbitrary expression tree computes the same sum as
/// host arithmetic (joins neither lose nor duplicate values).
#[test]
fn fork_join_sums_match() {
    check(96, "fork-join sums match host arithmetic", |g: &mut Gen| {
        const LEAF: TaskTypeId = TaskTypeId(0);
        const SUM: TaskTypeId = TaskTypeId(1);
        struct W {
            values: Vec<u64>,
        }
        impl Worker for W {
            fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
                match task.ty {
                    LEAF => {
                        let (lo, hi) = (task.args[0], task.args[1]);
                        if hi - lo == 1 {
                            ctx.send_arg(task.k, self.values[lo as usize]);
                        } else {
                            let mid = lo + (hi - lo) / 2;
                            let kk = ctx.make_successor(SUM, task.k, 2);
                            ctx.spawn(Task::new(LEAF, kk.with_slot(1), &[mid, hi]));
                            ctx.spawn(Task::new(LEAF, kk.with_slot(0), &[lo, mid]));
                        }
                    }
                    _ => ctx.send_arg(task.k, task.args[0] + task.args[1]),
                }
            }
        }
        let len = g.usize_in(1, 64);
        let values: Vec<u64> = (0..len).map(|_| g.range(0, 1000)).collect();
        let want: u64 = values.iter().sum();
        let n = values.len() as u64;
        let mut exec = SerialExecutor::new();
        let got = exec
            .run(
                &mut W { values },
                Task::new(LEAF, Continuation::host(0), &[0, n]),
            )
            .unwrap();
        assert_eq!(got, want);
    });
}

/// MOESI invariants hold after any interleaving of reads, writes and
/// atomics from multiple ports: one owner per line, M/E exclusive,
/// inclusive L2.
#[test]
fn coherence_invariants_hold() {
    use parallelxl::mem::{AccessKind, MemorySystem, PortId};
    use parallelxl::sim::config::MemoryConfig;

    check(
        32,
        "MOESI invariants hold under random traffic",
        |g: &mut Gen| {
            let cfg = MemoryConfig::micro2018();
            let mut sys = MemorySystem::new(vec![cfg.accel_l1.clone(); 4], &cfg);
            let mut t = [Time::ZERO; 4];
            let addrs: Vec<u64> = (0..64).map(|l| l * 64).collect();
            for _ in 0..g.usize_in(1, 400) {
                let port = g.usize_in(0, 4);
                let line = g.range(0, 64);
                let kind = match g.range(0, 3) {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Amo,
                };
                t[port] = sys.access(PortId(port), line * 64, kind, t[port]);
                if let Err(e) = sys.check_coherence(&addrs) {
                    panic!("coherence violated: {e}");
                }
            }
        },
    );
}

/// With L1s and an L2 small enough that every protocol path runs (L1
/// victims, L2 back-invalidation, cache-to-cache transfers, upgrades and
/// prefetches), the coherence directory equals a full scan of the L1 arrays
/// after every access, and a snapshot restored mid-stream resumes exactly
/// like the uninterrupted run.
#[test]
fn coherence_directory_matches_a_full_scan() {
    use parallelxl::mem::{AccessKind, MemorySystem, PortId};
    use parallelxl::sim::config::MemoryConfig;
    use parallelxl::sim::json::JsonValue;

    const PATHS: [&str; 7] = [
        "mem.l1_writebacks",
        "mem.l2_evictions",
        "mem.l2_writebacks",
        "mem.c2c_transfers",
        "mem.upgrades",
        "mem.remote_invalidations",
        "mem.prefetches",
    ];
    let mut seen = [0u64; PATHS.len()];
    check(48, "directory matches a scan of the L1s", |g: &mut Gen| {
        let ports = g.usize_in(2, 17);
        let mut cfg = MemoryConfig::micro2018();
        // 2 sets x 2 ways of L1 over 4 sets x 2 ways of L2.
        let mut l1 = cfg.accel_l1.clone().with_size(256);
        l1.ways = 2;
        l1.next_line_prefetch = g.bool();
        cfg.l2 = cfg.l2.clone().with_size(512);
        cfg.l2.ways = 2;
        let build = || MemorySystem::new(vec![l1.clone(); ports], &cfg);
        let lines = g.range(4, 24);
        let addrs: Vec<u64> = (0..=lines).map(|l| l * 64).collect();
        let stream: Vec<(usize, u64, AccessKind)> = (0..g.usize_in(1, 400))
            .map(|_| {
                let kind = match g.range(0, 4) {
                    0 | 1 => AccessKind::Read,
                    2 => AccessKind::Write,
                    _ => AccessKind::Amo,
                };
                (
                    g.usize_in(0, ports),
                    g.range(0, lines) * 64 + g.range(0, 64),
                    kind,
                )
            })
            .collect();
        let pause = g.usize_in(0, stream.len());
        let mut a = build();
        let mut b = build();
        let mut t = vec![Time::ZERO; ports];
        for (i, &(port, addr, kind)) in stream.iter().enumerate() {
            if i == pause {
                let saved = JsonValue::parse(&a.state_to_json_value().to_json()).unwrap();
                b.restore_state(&saved).unwrap();
            }
            let done = a.access(PortId(port), addr, kind, t[port]);
            if let Err(e) = a.check_coherence(&addrs) {
                panic!("access {i}: {e}");
            }
            if i >= pause {
                assert_eq!(
                    b.access(PortId(port), addr, kind, t[port]),
                    done,
                    "access {i} diverged after a restore at {pause}"
                );
                if let Err(e) = b.check_coherence(&addrs) {
                    panic!("access {i} after a restore at {pause}: {e}");
                }
            }
            t[port] = done;
        }
        assert_eq!(b.stats().to_json(), a.stats().to_json());
        assert_eq!(
            b.state_to_json_value().to_json(),
            a.state_to_json_value().to_json()
        );
        for (count, path) in seen.iter_mut().zip(PATHS) {
            *count += a.stats().get(path);
        }
    });
    for (count, path) in seen.iter().zip(PATHS) {
        assert!(*count > 0, "{path} never ran");
    }
}

/// Every scheduling-policy ablation still produces golden-correct results:
/// policies change timing, never functional behaviour.
#[test]
fn ablated_policies_stay_golden() {
    use parallelxl::apps::{by_name, Scale};
    use parallelxl::arch::{
        AccelConfig, Engine, FlexEngine, LocalOrder, SchedPolicy, StealEnd, VictimSelect, Workload,
    };

    check(16, "ablated policies stay golden", |g: &mut Gen| {
        let bench = by_name("queens", Scale::Tiny).unwrap();
        let mut cfg = AccelConfig::flex(2, 2);
        // FIFO order needs breadth-first queue headroom.
        cfg.task_queue_entries = 1 << 16;
        cfg.policy = SchedPolicy {
            local_order: *g.pick(&[LocalOrder::Lifo, LocalOrder::Fifo]),
            steal_end: *g.pick(&[StealEnd::Head, StealEnd::Tail]),
            victim_select: *g.pick(&[VictimSelect::Lfsr, VictimSelect::RoundRobin]),
            greedy_routing: g.bool(),
        };
        let mut engine = FlexEngine::new(cfg, bench.profile());
        let inst = bench.flex(engine.mem_mut());
        let mut worker = inst.worker;
        let out = engine
            .run(Workload::dynamic(worker.as_mut(), inst.root))
            .unwrap();
        assert!(bench.check(engine.memory(), out.result).is_ok());
    });
}
