//! Property-based tests for FireGuard's frontend invariants: the event
//! filter must preserve commit order through arbitrary commit patterns
//! and behave exactly like per-path FIFOs merged by commit order, the
//! allocator must deliver every packet to exactly the interested engines,
//! and the CDC must neither lose nor duplicate.

use fireguard_core::filter::FilterStats;
use fireguard_core::{
    groups, Allocator, CdcQueue, ClockDivider, DpSel, EventFilter, FilterConfig, Packet, Policy,
    SchedulingEngine,
};
use fireguard_isa::{InstClass, Instruction, MemWidth};
use fireguard_trace::TraceInst;
use proptest::prelude::*;
use std::collections::VecDeque;

fn mem_inst(seq: u64, load: bool) -> TraceInst {
    let inst = if load {
        Instruction::load(MemWidth::D, 5.into(), 6.into(), 0)
    } else {
        Instruction::store(MemWidth::D, 5.into(), 6.into(), 0)
    };
    TraceInst {
        seq,
        pc: 0x1_0000 + seq * 4,
        class: inst.class(),
        inst,
        mem_addr: Some(0x4000_0000 + seq * 8),
        control: None,
        heap: None,
        attack: None,
    }
}

fn alu_inst(seq: u64) -> TraceInst {
    let inst = Instruction::nop();
    TraceInst {
        seq,
        pc: 0x1_0000 + seq * 4,
        class: inst.class(),
        inst,
        mem_addr: None,
        control: None,
        heap: None,
        attack: None,
    }
}

/// The arbiter semantics the commit-ordered ring refines: one `VecDeque`
/// per commit path, and a merge that picks the minimum-order valid packet
/// across the path heads.
struct MergeModel {
    width: usize,
    depth: usize,
    fifos: Vec<VecDeque<Packet>>,
    offers_this_cycle: usize,
    last_seen_cycle: u64,
    stats: FilterStats,
}

impl MergeModel {
    fn new(width: usize, depth: usize) -> Self {
        MergeModel {
            width,
            depth,
            fifos: vec![VecDeque::new(); width],
            offers_this_cycle: 0,
            last_seen_cycle: 0,
            stats: FilterStats::default(),
        }
    }

    fn any_fifo_full(&self) -> bool {
        self.fifos.iter().any(|f| f.len() >= self.depth)
    }

    fn offer(&mut self, now: u64, slot: usize, t: &TraceInst, monitored: bool) -> bool {
        if now != self.last_seen_cycle {
            self.last_seen_cycle = now;
            self.offers_this_cycle = 0;
            if self.any_fifo_full() {
                self.stats.fifo_full_cycles += 1;
            }
        }
        self.stats.offers += 1;
        let path = slot % self.width;
        if self.offers_this_cycle == self.width {
            self.stats.refusals += 1;
            self.stats.refusals_width += 1;
            return false;
        }
        if self.fifos[path].len() >= self.depth {
            self.stats.refusals += 1;
            self.stats.refusals_fifo += 1;
            return false;
        }
        let p = if monitored {
            self.stats.packets += 1;
            Packet::encapsulate(groups::MEM, t, now, slot as u8)
        } else {
            self.stats.placeholders += 1;
            Packet::placeholder(now, slot as u8)
        };
        self.fifos[path].push_back(p);
        self.offers_this_cycle += 1;
        true
    }

    /// `(path, packet)` of the minimum-order valid packet.
    fn min_valid(&self) -> Option<(usize, Packet)> {
        self.fifos
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.iter().find(|p| p.valid).map(|p| (i, *p)))
            .min_by_key(|(_, p)| p.order)
    }

    fn peek(&self) -> Option<Packet> {
        self.min_valid().map(|(_, p)| p)
    }

    fn squash(&mut self) {
        let mv = self.min_valid().map(|(_, p)| p.order);
        for f in &mut self.fifos {
            while f
                .front()
                .is_some_and(|p| !p.valid && mv.map_or(true, |mv| p.order < mv))
            {
                f.pop_front();
            }
        }
    }

    fn pop(&mut self) -> Option<Packet> {
        self.squash();
        let (path, _) = self.min_valid()?;
        self.fifos[path].pop_front()
    }
}

/// One step of a differential schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Skip `gap` cycles, then in each of `cycles` consecutive cycles
    /// offer up to `len` commits from slot 0 (bit *i* mod 8 of `mask` =
    /// the *i*-th new event is monitored). A refused event is retried at
    /// the next slot when `retry` is set, else in the next cycle.
    Burst {
        gap: u64,
        cycles: usize,
        len: usize,
        mask: u8,
        retry: bool,
    },
    Squash,
    /// Up to `n` arbiter pops.
    Pop(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..3, 1usize..9, 1usize..6, any::<u8>(), any::<bool>()).prop_map(
            |(gap, cycles, len, mask, retry)| Op::Burst {
                gap,
                cycles,
                len,
                mask,
                retry,
            }
        ),
        Just(Op::Squash),
        (1usize..9).prop_map(Op::Pop),
    ]
}

/// Runs `ops` against the filter and the merge model side by side,
/// comparing every observable after every step.
fn differential(width: usize, depth: usize, ops: &[Op]) {
    let mut f = EventFilter::new(FilterConfig {
        width,
        fifo_depth: depth,
    });
    f.subscribe(InstClass::Load, groups::MEM, DpSel::LSQ);
    let mut m = MergeModel::new(width, depth);
    let (mut now, mut seq, mut monitored) = (0u64, 0u64, true);
    for (step, op) in ops.iter().enumerate() {
        let at = format!("width {width} depth {depth} step {step} {op:?}");
        match *op {
            Op::Burst {
                gap,
                cycles,
                len,
                mask,
                retry,
            } => {
                now += gap;
                let mut fresh = 0;
                for _ in 0..cycles {
                    now += 1;
                    for slot in 0..len {
                        let t = if monitored {
                            mem_inst(seq, true)
                        } else {
                            alu_inst(seq)
                        };
                        let accepted = m.offer(now, slot, &t, monitored);
                        assert_eq!(f.offer(now, slot, &t), accepted, "accept: {at}");
                        if accepted {
                            seq += 1;
                            monitored = mask & (1 << (fresh % 8)) != 0;
                            fresh += 1;
                        } else if !retry {
                            break;
                        }
                    }
                }
            }
            Op::Squash => {
                m.squash();
                f.squash_placeholders();
            }
            Op::Pop(n) => {
                for _ in 0..n {
                    assert_eq!(f.arbiter_pop(), m.pop(), "pop: {at}");
                }
            }
        }
        assert_eq!(f.arbiter_peek(), m.peek(), "peek: {at}");
        assert_eq!(f.stats(), m.stats, "stats: {at}");
        let buffered: usize = m.fifos.iter().map(VecDeque::len).sum();
        assert_eq!(f.buffered(), buffered, "buffered: {at}");
        assert_eq!(f.any_fifo_full(), m.any_fifo_full(), "full: {at}");
        assert_eq!(f.arbiter_has_packet(), m.peek().is_some(), "has: {at}");
    }
    while let Some(p) = m.pop() {
        assert_eq!(
            f.arbiter_pop(),
            Some(p),
            "drain: width {width} depth {depth}"
        );
    }
    assert_eq!(f.arbiter_pop(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The commit-ordered arbiter ring is indistinguishable from per-path
    /// FIFOs merged by minimum commit order, at every width and depth:
    /// the same accept/refuse decisions, packets, statistics and
    /// occupancy after every offer, squash and pop.
    #[test]
    fn arbiter_ring_matches_per_path_merge(ops in proptest::collection::vec(op(), 1..300)) {
        for width in 1..=4 {
            for depth in [1, 2, 16] {
                differential(width, depth, &ops);
            }
        }
    }

    /// Commit order in = packet order out, no matter how commits burst
    /// across slots and cycles, and no matter how pops interleave.
    #[test]
    fn filter_preserves_commit_order(
        pattern in proptest::collection::vec((0usize..5, any::<bool>(), any::<bool>()), 1..200)
    ) {
        let mut f = EventFilter::new(FilterConfig::default());
        f.subscribe(InstClass::Load, groups::MEM, DpSel::LSQ);
        f.subscribe(InstClass::Store, groups::MEM, DpSel::LSQ);

        let mut seq = 0u64;
        let mut expected: Vec<u64> = Vec::new();
        let mut got: Vec<u64> = Vec::new();
        for (now, (burst, monitored, pop_now)) in (1u64..).zip(pattern) {
            for slot in 0..burst {
                let t = if monitored { mem_inst(seq, slot % 2 == 0) } else { alu_inst(seq) };
                if f.offer(now, slot, &t) {
                    if monitored {
                        expected.push(seq);
                    }
                    seq += 1;
                }
            }
            if pop_now {
                if let Some(p) = f.arbiter_pop() {
                    got.push(p.meta.seq);
                }
            }
        }
        while let Some(p) = f.arbiter_pop() {
            got.push(p.meta.seq);
        }
        prop_assert_eq!(got, expected, "packets must drain in commit order");
    }

    /// Every routed packet reaches exactly one engine per interested
    /// kernel, and only engines belonging to interested kernels.
    #[test]
    fn allocator_routes_to_exactly_interested_kernels(
        subscribe_a in any::<bool>(),
        subscribe_b in any::<bool>(),
        packets in 1usize..64,
    ) {
        let mut alloc = Allocator::new();
        let a = alloc.add_se(SchedulingEngine::new(vec![0, 1], Policy::RoundRobin));
        let b = alloc.add_se(SchedulingEngine::new(vec![2, 3, 4], Policy::RoundRobin));
        if subscribe_a {
            alloc.subscribe(groups::MEM, a);
        }
        if subscribe_b {
            alloc.subscribe(groups::MEM, b);
        }
        for _ in 0..packets {
            let dest = alloc.route(groups::MEM, &|_| true);
            let a_hits = (dest & 0b00011).count_ones();
            let b_hits = (dest & 0b11100).count_ones();
            prop_assert_eq!(a_hits, u32::from(subscribe_a), "kernel A engine count");
            prop_assert_eq!(b_hits, u32::from(subscribe_b), "kernel B engine count");
            prop_assert_eq!(dest & !0b11111, 0, "no stray engines");
        }
        let s = alloc.stats();
        if subscribe_a || subscribe_b {
            prop_assert_eq!(s.routed, packets as u64);
        } else {
            prop_assert_eq!(s.unclaimed, packets as u64);
        }
    }

    /// Round-robin spreads packets evenly (within one packet).
    #[test]
    fn round_robin_is_fair(engines in 1usize..8, packets in 1usize..256) {
        let mut se = SchedulingEngine::new((0..engines).collect(), Policy::RoundRobin);
        let mut counts = vec![0u32; engines];
        for _ in 0..packets {
            let bitmap = se.allocate(&|_| true);
            counts[bitmap.trailing_zeros() as usize] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "round robin fairness: {counts:?}");
    }

    /// CDC: no loss, no duplication, FIFO order, capacity respected.
    #[test]
    fn cdc_is_lossless_and_ordered(
        ops in proptest::collection::vec(any::<bool>(), 1..300)
    ) {
        let mut q: CdcQueue<u64> = CdcQueue::new(8, ClockDivider::new(2));
        let mut next = 0u64;
        let mut expected = 0u64;
        let mut fast = 0u64;
        for push in ops {
            fast += 2;
            if push {
                if q.push(next, fast).is_ok() {
                    next += 1;
                }
                prop_assert!(q.len() <= 8);
            } else if let Some(v) = q.pop(fast / 2) {
                prop_assert_eq!(v, expected, "CDC must be FIFO");
                expected += 1;
            }
        }
        // Drain: everything pushed must come out exactly once.
        let mut slow = fast / 2;
        while expected < next {
            slow += 1;
            if let Some(v) = q.pop(slow) {
                prop_assert_eq!(v, expected);
                expected += 1;
            }
            prop_assert!(slow < fast / 2 + 1000, "drain must terminate");
        }
    }

    /// Block mode never picks a full engine while a free one exists.
    #[test]
    fn block_mode_avoids_full_engines(full_mask in 0u8..0b111) {
        let mut se = SchedulingEngine::new(vec![0, 1, 2], Policy::Block);
        // At least one engine free by construction of the range above.
        for _ in 0..16 {
            let bitmap = se.allocate(&|e| full_mask & (1 << e) == 0);
            let picked = bitmap.trailing_zeros() as u8;
            // Block mode may *probe* its previous target once after it
            // fills, but after the probe it must settle on a free engine.
            let settled = se.allocate(&|e| full_mask & (1 << e) == 0);
            let settled_engine = settled.trailing_zeros() as u8;
            prop_assert!(
                full_mask & (1 << settled_engine) == 0 || full_mask & (1 << picked) == 0,
                "block mode must reach a free engine: mask {full_mask:#b}"
            );
        }
    }
}
