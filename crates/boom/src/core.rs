//! The trace-driven out-of-order pipeline model.
//!
//! One [`Core::step`] models one 3.2 GHz core cycle with the classic stage
//! ordering (commit → issue/execute → dispatch/rename → fetch), so that
//! structural resources (ROB, IQ, LDQ/STQ, physical registers, functional
//! units, PRF read ports) constrain flow exactly one cycle at a time.
//!
//! The model is *trace-driven*: instructions come from a
//! [`fireguard_trace::TraceGenerator`] which resolves all outcomes
//! (branch directions, targets, memory addresses). Mispredictions therefore
//! cannot fetch wrong-path instructions; they are modelled as fetch stalls
//! from the mispredicted instruction's fetch until its resolution at
//! execute plus a redirect penalty — the standard trace-driven
//! approximation.

use crate::config::BoomConfig;
use crate::predictor::{FrontendPredictor, MispredictKind};
use crate::sink::CommitSink;
use crate::stats::{CoreStats, StallKind};
use fireguard_isa::InstClass;
use fireguard_mem::{Cache, MemoryHierarchy, Tlb};
use fireguard_trace::TraceInst;
use std::collections::VecDeque;

const NOT_READY: u64 = u64::MAX;

/// Empty link in the issue stage's intrusive lists.
const NIL: u32 = u32::MAX;

/// Buckets in the issue stage's timing wheel (a power of two). An entry
/// due further out than this stays in its bucket across wraps until its
/// cycle comes round: load latencies can exceed it (DRAM + MSHR queueing
/// + TLB walk).
const WHEEL: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched, waiting in the issue queue.
    Waiting,
    /// Issued; completes at `ready_at`.
    Executing,
}

/// Issue-queue slot of an in-flight instruction, at `abs % rob_entries`.
///
/// A `Waiting` entry is in exactly one place: linked on the dependents
/// chain of each source whose producer has not issued (`pending > 0`),
/// in the timing-wheel bucket of `wake` (not yet due), or in `ready_q`.
#[derive(Debug, Clone, Copy)]
struct IqSlot {
    /// All-time push position; `abs - pops` is the live ROB index.
    abs: u64,
    /// Latest known source ready cycle, at least the cycle after
    /// dispatch; once `pending` is 0, the cycle the entry becomes due.
    wake: u64,
    /// Renamed sources. Select never reads them: they feed the scheduler
    /// cross-check's reference predicate.
    srcs: [Option<(bool, u16)>; 2],
    /// Instruction class (functional-unit selection).
    class: InstClass,
    /// Integer PRF reads at issue.
    int_reads: u8,
    /// Sources whose producer has not issued yet.
    pending: u8,
    /// Next slot in the same wheel bucket.
    next: u32,
}

impl IqSlot {
    const EMPTY: IqSlot = IqSlot {
        abs: 0,
        wake: 0,
        srcs: [None, None],
        class: InstClass::IntAlu,
        int_reads: 0,
        pending: 0,
        next: NIL,
    };
}

#[derive(Debug, Clone)]
struct RobEntry {
    t: TraceInst,
    state: EntryState,
    ready_at: u64,
    /// Renamed destination and the mapping it replaced (freed at commit).
    /// The renamed *sources* live in the entry's `IqSlot` instead, where
    /// the issue stage tracks them as dependents-chain links and a
    /// `pending` count until the entry issues.
    dest: Option<(bool, u16)>,
    old_phys: Option<(bool, u16)>,
    mispredicted: bool,
}

/// The out-of-order core model. Generic over the input trace iterator.
pub struct Core<T> {
    cfg: BoomConfig,
    trace: T,
    pending_fetch: Option<TraceInst>,
    trace_done: bool,
    now: u64,

    pred: FrontendPredictor,
    icache: Cache,
    last_fetch_line: u64,
    fetch_buf: VecDeque<TraceInst>,
    fetch_blocked_until: u64,
    /// Sequence number of an in-flight mispredicted control transfer that
    /// fetch is waiting on.
    redirect_wait: Option<u64>,

    rat_int: [u16; 32],
    rat_fp: [u16; 32],
    free_int: Vec<u16>,
    free_fp: Vec<u16>,
    ready_int: Vec<u64>,
    ready_fp: Vec<u64>,

    rob: VecDeque<RobEntry>,
    iq_len: usize,
    /// All-time count of entries popped off the ROB front; `abs - pops`
    /// maps a stored absolute position back to a live ROB index.
    pops: u64,
    /// Issue-queue slots, one per ROB position (`abs % rob_entries`).
    slots: Vec<IqSlot>,
    /// Per physical register (integer, then FP): the first waiting source
    /// on it, as a node `slot * 2 + source index`, or `NIL`.
    dep_head: Vec<u32>,
    /// Next node on the same register's dependents chain.
    dep_next: Vec<u32>,
    /// Timing wheel: bucket `c % WHEEL` heads the slots due at cycle `c`
    /// (or at a later cycle with the same remainder), linked by `next`.
    wheel: [u32; WHEEL],
    /// Due entries (every source ready), oldest first.
    ready_q: Vec<u32>,
    ldq_used: usize,
    stq_used: usize,

    dmem: MemoryHierarchy,
    dtlb: Tlb,

    stats: CoreStats,
}

impl<T: Iterator<Item = TraceInst>> Core<T> {
    /// Builds a core over `trace` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BoomConfig::validate`].
    pub fn new(cfg: BoomConfig, trace: T) -> Self {
        cfg.validate();
        let free_int: Vec<u16> = (32..cfg.int_prf as u16).collect();
        let free_fp: Vec<u16> = (32..cfg.fp_prf as u16).collect();
        let ready_int = vec![0; cfg.int_prf];
        let ready_fp = vec![0; cfg.fp_prf];
        let mut rat_int = [0u16; 32];
        let mut rat_fp = [0u16; 32];
        for (i, (ri, rf)) in rat_int.iter_mut().zip(rat_fp.iter_mut()).enumerate() {
            *ri = i as u16;
            *rf = i as u16;
        }
        Core {
            icache: Cache::new(fireguard_mem::CacheConfig::new(32 * 1024, 8, 64)),
            dmem: MemoryHierarchy::new(cfg.dmem),
            dtlb: Tlb::new(cfg.dtlb),
            cfg,
            trace,
            pending_fetch: None,
            trace_done: false,
            now: 0,
            pred: FrontendPredictor::new(),
            last_fetch_line: u64::MAX,
            fetch_buf: VecDeque::new(),
            fetch_blocked_until: 0,
            redirect_wait: None,
            rat_int,
            rat_fp,
            free_int,
            free_fp,
            ready_int,
            ready_fp,
            rob: VecDeque::new(),
            iq_len: 0,
            pops: 0,
            slots: vec![IqSlot::EMPTY; cfg.rob_entries],
            dep_head: vec![NIL; cfg.int_prf + cfg.fp_prf],
            dep_next: vec![NIL; 2 * cfg.rob_entries],
            wheel: [NIL; WHEEL],
            ready_q: Vec::with_capacity(cfg.iq_entries),
            ldq_used: 0,
            stq_used: 0,
            stats: CoreStats::default(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoomConfig {
        &self.cfg
    }

    /// True once the trace is exhausted and the pipeline has drained.
    pub fn is_drained(&self) -> bool {
        self.trace_done
            && self.pending_fetch.is_none()
            && self.fetch_buf.is_empty()
            && self.rob.is_empty()
    }

    /// Advances the model by one core cycle.
    pub fn step<S: CommitSink>(&mut self, sink: &mut S) {
        let stolen = sink.prf_ports_stolen(self.now);
        self.commit(sink);
        self.issue(stolen);
        self.dispatch();
        self.fetch();
        self.now += 1;
        self.stats.cycles += 1;
    }

    /// Runs until `n` instructions commit (or the trace drains), returning
    /// a snapshot of the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no progress for an implausible number of
    /// cycles (a deadlock, which would be a simulator bug or a sink that
    /// refuses everything forever).
    pub fn run_insts<S: CommitSink>(&mut self, n: u64, sink: &mut S) -> CoreStats {
        let target = self.stats.committed + n;
        let mut last_progress = (self.now, self.stats.committed);
        while self.stats.committed < target && !self.is_drained() {
            self.step(sink);
            if self.stats.committed > last_progress.1 {
                last_progress = (self.now, self.stats.committed);
            } else {
                assert!(
                    self.now - last_progress.0 < 2_000_000,
                    "no commit progress for 2M cycles: wedged at seq {} cycle {}",
                    last_progress.1,
                    self.now
                );
            }
        }
        self.stats.clone()
    }

    /// Runs for `n` cycles.
    pub fn run_cycles<S: CommitSink>(&mut self, n: u64, sink: &mut S) -> CoreStats {
        for _ in 0..n {
            if self.is_drained() {
                break;
            }
            self.step(sink);
        }
        self.stats.clone()
    }

    // ---- commit -------------------------------------------------------------

    fn commit<S: CommitSink>(&mut self, sink: &mut S) {
        let mut committed_this_cycle = 0;
        for slot in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            let done = head.state == EntryState::Executing && head.ready_at <= self.now;
            if !done {
                break;
            }
            if !sink.offer(self.now, slot, &head.t) {
                self.stats.add_stall(StallKind::CommitBackpressure);
                break;
            }
            let head = self.rob.pop_front().expect("head exists");
            self.pops += 1;
            if let Some((fp, old)) = head.old_phys {
                if fp {
                    self.free_fp.push(old);
                } else {
                    self.free_int.push(old);
                }
            }
            match head.t.class {
                InstClass::Load => self.ldq_used -= 1,
                InstClass::Store => self.stq_used -= 1,
                InstClass::Amo => {
                    self.ldq_used -= 1;
                    self.stq_used -= 1;
                }
                InstClass::Branch => self.stats.branches += 1,
                _ => {}
            }
            if head.mispredicted {
                self.stats.mispredicts += 1;
            }
            self.stats.committed += 1;
            committed_this_cycle += 1;
        }
        if committed_this_cycle > 0 {
            self.stats.commit_active_cycles += 1;
        }
    }

    // ---- issue / execute ------------------------------------------------------

    fn exec_latency(&mut self, t: &TraceInst) -> u64 {
        match t.class {
            InstClass::IntAlu | InstClass::Jump | InstClass::Call | InstClass::Ret => 1,
            InstClass::Branch | InstClass::IndirectJump => 1,
            InstClass::IntMul => 3,
            InstClass::IntDiv => 20,
            InstClass::FpAlu => 4,
            InstClass::Csr => 3,
            InstClass::Fence | InstClass::System => 1,
            InstClass::Load => {
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let mem = self.dmem.access(self.now, addr, false);
                tlb + mem.latency
            }
            InstClass::Store => {
                // Address generation only; the write drains via the store
                // buffer. The cache access still updates tag state and MSHR
                // occupancy (write-allocate traffic).
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let _ = self.dmem.access(self.now, addr, true);
                1 + tlb
            }
            InstClass::Amo => {
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let mem = self.dmem.access(self.now, addr, true);
                tlb + mem.latency + 2
            }
        }
    }

    /// Index of physical register `(fp, p)` in `dep_head`.
    fn reg_index(&self, fp: bool, p: u16) -> usize {
        if fp {
            self.cfg.int_prf + p as usize
        } else {
            p as usize
        }
    }

    /// Links slot `s` into the wheel bucket of its `wake` cycle.
    fn schedule(&mut self, s: usize) {
        let b = self.slots[s].wake as usize & (WHEEL - 1);
        self.slots[s].next = self.wheel[b];
        self.wheel[b] = s as u32;
    }

    /// Moves the entries due now from their wheel bucket into `ready_q`,
    /// in age order. Entries due a whole wheel turn (or more) later stay.
    fn drain_wheel(&mut self) {
        let b = self.now as usize & (WHEEL - 1);
        let mut cur = std::mem::replace(&mut self.wheel[b], NIL);
        while cur != NIL {
            let s = cur as usize;
            cur = self.slots[s].next;
            if self.slots[s].wake <= self.now {
                let abs = self.slots[s].abs;
                let at = self
                    .ready_q
                    .partition_point(|&q| self.slots[q as usize].abs < abs);
                self.ready_q.insert(at, s as u32);
            } else {
                self.slots[s].next = self.wheel[b];
                self.wheel[b] = s as u32;
            }
        }
    }

    /// Wakes the sources waiting on `(fp, p)`, whose value is ready at
    /// `ready_at`: an entry whose last pending source this was is scheduled.
    fn wake_dependents(&mut self, fp: bool, p: u16, ready_at: u64) {
        let r = self.reg_index(fp, p);
        let mut node = std::mem::replace(&mut self.dep_head[r], NIL);
        while node != NIL {
            let s = node as usize >> 1;
            node = self.dep_next[node as usize];
            let slot = &mut self.slots[s];
            slot.wake = slot.wake.max(ready_at);
            slot.pending -= 1;
            if slot.pending == 0 {
                self.schedule(s);
            }
        }
    }

    /// Wakeup/select: the due entries join `ready_q`, which select walks
    /// oldest first. A scan of every waiting entry in age order makes the
    /// same decisions: the entries it adds are not ready, and a not-ready
    /// entry neither issues nor counts a port conflict.
    fn issue(&mut self, ports_stolen: usize) {
        self.drain_wheel();
        #[cfg(test)]
        self.check_scheduler();

        let mut issued = 0;
        let mut alu = self.cfg.int_alus;
        let mut fpu = self.cfg.fp_units;
        let mut mem = self.cfg.mem_units;
        let mut jmp = self.cfg.jump_units;
        let mut csr = self.cfg.csr_units;
        let mut int_ports = self.cfg.prf_read_ports.saturating_sub(ports_stolen);
        let mut port_conflict_seen = false;

        let mut i = 0;
        while i < self.ready_q.len() && issued < self.cfg.issue_width {
            let s = self.ready_q[i] as usize;
            let IqSlot {
                abs,
                class,
                int_reads,
                ..
            } = self.slots[s];
            let int_reads = int_reads as usize;
            // Functional-unit availability.
            let unit = match class {
                InstClass::IntAlu => &mut alu,
                InstClass::IntMul | InstClass::IntDiv | InstClass::FpAlu => &mut fpu,
                InstClass::Load | InstClass::Store | InstClass::Amo => &mut mem,
                InstClass::Branch
                | InstClass::Jump
                | InstClass::IndirectJump
                | InstClass::Call
                | InstClass::Ret => &mut jmp,
                InstClass::Csr => &mut csr,
                InstClass::Fence | InstClass::System => &mut alu,
            };
            if *unit == 0 {
                i += 1;
                continue;
            }
            let idx = (abs - self.pops) as usize;
            // Integer PRF read ports (FireGuard can have stolen some). The
            // oldest instruction is exempt: the forwarding channel only ever
            // borrows a port for a single cycle, so the head can always
            // issue — this guarantees forward progress under any sink.
            if idx != 0 && int_reads > int_ports {
                if ports_stolen > 0 && !port_conflict_seen {
                    self.stats.prf_port_conflicts += 1;
                    port_conflict_seen = true;
                }
                i += 1;
                continue;
            }
            *unit -= 1;
            int_ports = int_ports.saturating_sub(int_reads);
            issued += 1;
            self.ready_q.remove(i);

            let t = self.rob[idx].t;
            let lat = self.exec_latency(&t);
            let ready_at = self.now + lat;
            let e = &mut self.rob[idx];
            debug_assert_eq!(e.state, EntryState::Waiting, "ready_q is in sync");
            e.state = EntryState::Executing;
            e.ready_at = ready_at;
            self.iq_len -= 1;
            // A resolving misprediction schedules the front-end redirect.
            if e.mispredicted && self.redirect_wait == Some(e.t.seq) {
                self.redirect_wait = None;
                self.fetch_blocked_until = self
                    .fetch_blocked_until
                    .max(ready_at + self.cfg.redirect_penalty);
            }
            if let Some((fp, p)) = e.dest {
                if fp {
                    self.ready_fp[p as usize] = ready_at;
                } else {
                    self.ready_int[p as usize] = ready_at;
                }
                self.wake_dependents(fp, p, ready_at);
            }
        }
    }

    /// The scheduler cross-check, run every cycle in this crate's tests:
    /// after the wheel drain, `ready_q` is exactly what a scan of the ROB
    /// would find ready — the `Waiting` entries whose sources are all
    /// ready by now, oldest first.
    #[cfg(test)]
    fn check_scheduler(&self) {
        let src_ready = |s: &Option<(bool, u16)>| match *s {
            None => true,
            Some((true, p)) => self.ready_fp[p as usize] <= self.now,
            Some((false, p)) => self.ready_int[p as usize] <= self.now,
        };
        let n = self.cfg.rob_entries as u64;
        let waiting = (self.pops..self.pops + self.rob.len() as u64)
            .filter(|&abs| self.rob[(abs - self.pops) as usize].state == EntryState::Waiting);
        assert_eq!(
            waiting.clone().count(),
            self.iq_len,
            "iq_len counts Waiting"
        );
        let want = waiting.filter(|&abs| {
            let slot = &self.slots[(abs % n) as usize];
            assert_eq!(slot.abs, abs, "slot holds its ROB entry");
            slot.srcs.iter().all(src_ready)
        });
        let got = self.ready_q.iter().map(|&s| self.slots[s as usize].abs);
        assert!(
            got.eq(want),
            "cycle {}: ready_q {:?} is not the ready Waiting entries",
            self.now,
            self.ready_q
        );
    }

    // ---- dispatch / rename -------------------------------------------------------

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.cfg.decode_width {
            if self.fetch_buf.is_empty() {
                if dispatched == 0 {
                    self.stats.add_stall(StallKind::FrontendEmpty);
                }
                break;
            }
            if self.rob.len() == self.cfg.rob_entries {
                if dispatched == 0 {
                    self.stats.add_stall(StallKind::RobFull);
                }
                break;
            }
            if self.iq_len == self.cfg.iq_entries {
                if dispatched == 0 {
                    self.stats.add_stall(StallKind::IqFull);
                }
                break;
            }
            let t = *self.fetch_buf.front().expect("checked non-empty");
            match t.class {
                InstClass::Load if self.ldq_used == self.cfg.ldq_entries => {
                    if dispatched == 0 {
                        self.stats.add_stall(StallKind::LdqFull);
                    }
                    break;
                }
                InstClass::Store if self.stq_used == self.cfg.stq_entries => {
                    if dispatched == 0 {
                        self.stats.add_stall(StallKind::StqFull);
                    }
                    break;
                }
                InstClass::Amo
                    if self.ldq_used == self.cfg.ldq_entries
                        || self.stq_used == self.cfg.stq_entries =>
                {
                    if dispatched == 0 {
                        self.stats.add_stall(StallKind::LdqFull);
                    }
                    break;
                }
                _ => {}
            }
            let is_fp_op = t.class == InstClass::FpAlu;
            let needs_dest = t.inst.dest().is_some();
            if needs_dest {
                let free = if is_fp_op {
                    &self.free_fp
                } else {
                    &self.free_int
                };
                if free.is_empty() {
                    if dispatched == 0 {
                        self.stats.add_stall(StallKind::PrfFull);
                    }
                    break;
                }
            }

            // All structural checks passed: consume and rename (reusing
            // the copy peeked for the structural checks above).
            self.fetch_buf.pop_front().expect("checked non-empty");
            // Rename the sources into the entry's slot, linking each one
            // still waiting on its producer onto that register's chain.
            let abs = self.pops + self.rob.len() as u64;
            let s = (abs % self.cfg.rob_entries as u64) as usize;
            let mut slot = IqSlot {
                abs,
                // Issue runs before dispatch: the cycle after is the first
                // an entry can issue in.
                wake: self.now + 1,
                class: t.class,
                ..IqSlot::EMPTY
            };
            for (i, src) in t.inst.sources().into_iter().enumerate() {
                if let Some(a) = src {
                    let fp = is_fp_op;
                    let (phys, ready) = if fp {
                        let p = self.rat_fp[a.index() as usize];
                        (p, self.ready_fp[p as usize])
                    } else {
                        let p = self.rat_int[a.index() as usize];
                        (p, self.ready_int[p as usize])
                    };
                    slot.srcs[i] = Some((fp, phys));
                    slot.int_reads += u8::from(!fp);
                    if ready == NOT_READY {
                        let node = 2 * s + i;
                        let r = self.reg_index(fp, phys);
                        self.dep_next[node] = self.dep_head[r];
                        self.dep_head[r] = node as u32;
                        slot.pending += 1;
                    } else {
                        slot.wake = slot.wake.max(ready);
                    }
                }
            }
            self.slots[s] = slot;
            if slot.pending == 0 {
                self.schedule(s);
            }
            let mut dest = None;
            let mut old_phys = None;
            if let Some(d) = t.inst.dest() {
                let fp = is_fp_op;
                let (rat, free, ready) = if fp {
                    (&mut self.rat_fp, &mut self.free_fp, &mut self.ready_fp)
                } else {
                    (&mut self.rat_int, &mut self.free_int, &mut self.ready_int)
                };
                let new = free.pop().expect("checked free list");
                old_phys = Some((fp, rat[d.index() as usize]));
                rat[d.index() as usize] = new;
                ready[new as usize] = NOT_READY;
                dest = Some((fp, new));
            }
            match t.class {
                InstClass::Load => self.ldq_used += 1,
                InstClass::Store => self.stq_used += 1,
                InstClass::Amo => {
                    self.ldq_used += 1;
                    self.stq_used += 1;
                }
                _ => {}
            }
            let mispredicted = self.redirect_pending_for(t.seq);
            self.rob.push_back(RobEntry {
                t,
                state: EntryState::Waiting,
                ready_at: 0,
                dest,
                old_phys,
                mispredicted,
            });
            self.iq_len += 1;
            dispatched += 1;
        }
    }

    fn redirect_pending_for(&self, seq: u64) -> bool {
        self.redirect_wait == Some(seq)
    }

    // ---- fetch ------------------------------------------------------------------

    fn next_trace_inst(&mut self) -> Option<TraceInst> {
        if let Some(t) = self.pending_fetch.take() {
            return Some(t);
        }
        match self.trace.next() {
            Some(t) => Some(t),
            None => {
                self.trace_done = true;
                None
            }
        }
    }

    fn fetch(&mut self) {
        if self.redirect_wait.is_some() || self.now < self.fetch_blocked_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buf.len() >= self.cfg.fetch_buffer {
                break;
            }
            let Some(t) = self.next_trace_inst() else {
                break;
            };
            // I-cache: one line check per line transition.
            let line = t.pc & !63;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                if !self.icache.access(t.pc, false) {
                    self.stats.icache_misses += 1;
                    self.fetch_blocked_until = self.now + self.cfg.icache_miss_penalty;
                    self.pending_fetch = Some(t);
                    return;
                }
            }
            let mispredict = match (t.class.is_control_flow(), t.control) {
                (true, Some(cf)) => self.pred.observe(t.pc, t.class, cf.taken, cf.target),
                _ => MispredictKind::None,
            };
            let taken_transfer = t.control.map(|c| c.taken).unwrap_or(false);
            let seq = t.seq;
            self.fetch_buf.push_back(t);
            match mispredict {
                MispredictKind::ExecuteRedirect => {
                    self.redirect_wait = Some(seq);
                    return;
                }
                MispredictKind::DecodeBubble => {
                    // The decoder extracts the target and redirects with a
                    // short fixed bubble; no execute-time resolution needed.
                    self.fetch_blocked_until = self.now + 2;
                    return;
                }
                MispredictKind::None => {}
            }
            if taken_transfer {
                // A fetch group ends at a taken control transfer.
                break;
            }
        }
    }
}

impl<T: Iterator<Item = TraceInst>> std::fmt::Debug for Core<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("now", &self.now)
            .field("committed", &self.stats.committed)
            .field("rob_occupancy", &self.rob.len())
            .field("trace_done", &self.trace_done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, ThrottleSink};
    use fireguard_trace::{TraceGenerator, WorkloadProfile};

    fn core_for(name: &str, seed: u64) -> Core<TraceGenerator> {
        let t = TraceGenerator::new(WorkloadProfile::parsec(name).unwrap(), seed);
        Core::new(BoomConfig::default(), t)
    }

    #[test]
    fn ipc_is_plausible_for_all_workloads() {
        for w in fireguard_trace::PARSEC_WORKLOADS {
            let t = TraceGenerator::new(w.clone(), 5);
            let mut c = Core::new(BoomConfig::default(), t);
            let stats = c.run_insts(30_000, &mut NullSink);
            let ipc = stats.ipc();
            assert!(
                ipc > 0.3 && ipc <= 4.0,
                "{}: implausible IPC {ipc:.2}",
                w.name
            );
        }
    }

    #[test]
    fn deterministic_cycle_counts() {
        let run = || {
            let mut c = core_for("ferret", 9);
            c.run_insts(20_000, &mut NullSink).cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn commit_is_in_program_order() {
        struct OrderCheck {
            last: Option<u64>,
        }
        impl CommitSink for OrderCheck {
            fn offer(&mut self, _now: u64, _slot: usize, inst: &TraceInst) -> bool {
                if let Some(last) = self.last {
                    assert_eq!(inst.seq, last + 1, "commit order must be program order");
                }
                self.last = Some(inst.seq);
                true
            }
        }
        let mut c = core_for("bodytrack", 3);
        let mut sink = OrderCheck { last: None };
        c.run_insts(20_000, &mut sink);
        assert!(sink.last.unwrap() >= 19_999);
    }

    #[test]
    fn commit_slots_respect_width() {
        struct SlotCheck;
        impl CommitSink for SlotCheck {
            fn offer(&mut self, _now: u64, slot: usize, _inst: &TraceInst) -> bool {
                assert!(slot < 4);
                true
            }
        }
        core_for("swaptions", 4).run_insts(10_000, &mut SlotCheck);
    }

    #[test]
    fn backpressure_slows_the_core() {
        let base = core_for("x264", 7).run_insts(20_000, &mut NullSink);
        let mut throttle = ThrottleSink::new(2); // refuse every other offer
        let slow = core_for("x264", 7).run_insts(20_000, &mut throttle);
        assert!(
            slow.cycles as f64 > base.cycles as f64 * 1.1,
            "refusing half the offers must slow commit: {} vs {}",
            slow.cycles,
            base.cycles
        );
        assert!(slow.stalls(StallKind::CommitBackpressure) > 0);
    }

    #[test]
    fn stolen_prf_ports_cost_performance() {
        struct StealSink(usize);
        impl CommitSink for StealSink {
            fn offer(&mut self, _now: u64, _slot: usize, _inst: &TraceInst) -> bool {
                true
            }
            fn prf_ports_stolen(&mut self, _now: u64) -> usize {
                self.0
            }
        }
        let base = core_for("x264", 11).run_insts(30_000, &mut StealSink(0));
        let steal = core_for("x264", 11).run_insts(30_000, &mut StealSink(6));
        assert!(
            steal.cycles > base.cycles,
            "losing 6 of 8 read ports must hurt: {} vs {}",
            steal.cycles,
            base.cycles
        );
        assert!(steal.prf_port_conflicts > 0);
    }

    #[test]
    fn branch_mispredict_rate_is_sane() {
        let mut c = core_for("streamcluster", 13);
        let stats = c.run_insts(50_000, &mut NullSink);
        let rate = stats.mispredict_rate();
        assert!(
            rate < 0.25,
            "predictable workload shouldn't exceed 25% redirects/branch: {rate:.3}"
        );
        assert!(stats.branches > 1_000);
    }

    #[test]
    fn x264_has_higher_ipc_than_freqmine() {
        // x264's looser dependency chains should out-run freqmine's
        // branch-heavy, tighter code on the same machine.
        let x = core_for("x264", 17).run_insts(40_000, &mut NullSink);
        let f = core_for("freqmine", 17).run_insts(40_000, &mut NullSink);
        assert!(
            x.ipc() > f.ipc(),
            "x264 {:.2} vs freqmine {:.2}",
            x.ipc(),
            f.ipc()
        );
    }

    #[test]
    fn finite_trace_drains_completely() {
        let t = TraceGenerator::new(WorkloadProfile::parsec("swaptions").unwrap(), 19);
        let finite: Vec<TraceInst> = t.take(5000).collect();
        let mut c = Core::new(BoomConfig::default(), finite.into_iter());
        let stats = c.run_insts(1_000_000, &mut NullSink);
        assert_eq!(stats.committed, 5000);
        assert!(c.is_drained());
    }

    #[test]
    fn narrower_commit_width_lowers_ipc() {
        let narrow_cfg = BoomConfig {
            commit_width: 1,
            ..BoomConfig::default()
        };
        let t = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 23);
        let mut narrow = Core::new(narrow_cfg, t);
        let n = narrow.run_insts(20_000, &mut NullSink);
        let wide = core_for("x264", 23).run_insts(20_000, &mut NullSink);
        assert!(n.ipc() <= 1.0 + 1e-9);
        assert!(wide.ipc() > n.ipc());
    }

    #[test]
    fn larger_prf_than_default_scoreboard_works() {
        // Regression: the ready scoreboards were once hardcoded to 128
        // entries, panicking as soon as a bigger PRF handed out preg >= 128.
        let cfg = BoomConfig {
            int_prf: 256,
            fp_prf: 192,
            ..BoomConfig::default()
        };
        let trace = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 7);
        let mut c = Core::new(cfg, trace);
        let stats = c.run_insts(20_000, &mut NullSink);
        assert!(stats.committed >= 20_000);
    }

    #[test]
    fn phys_registers_are_conserved() {
        let mut c = core_for("dedup", 29);
        c.run_insts(30_000, &mut NullSink);
        let in_flight = |c: &Core<TraceGenerator>, fp: bool| {
            c.rob
                .iter()
                .filter(|e| matches!(e.dest, Some((f, _)) if f == fp))
                .count()
        };
        // Step on, checking both PRFs every cycle.
        let mut fp_renames_seen = false;
        for _ in 0..10_000 {
            if c.rob.is_empty() {
                break;
            }
            c.step(&mut NullSink);
            assert_eq!(
                c.free_int.len() + 32 + in_flight(&c, false),
                c.cfg.int_prf,
                "integer free list + architectural + in-flight must equal PRF size"
            );
            assert_eq!(
                c.free_fp.len() + 32 + in_flight(&c, true),
                c.cfg.fp_prf,
                "FP free list + architectural + in-flight must equal PRF size"
            );
            fp_renames_seen |= in_flight(&c, true) > 0;
        }
        assert!(fp_renames_seen, "the FP check saw FP renames");
    }

    #[test]
    fn stall_kinds_are_one_per_stage_per_cycle() {
        // Commit charges `CommitBackpressure` and dispatch charges one of
        // the other six kinds, each at most once a cycle — so the two
        // stages can both stall in one cycle, and only the dispatch kinds
        // are bounded by `cycles`.
        let mut c = core_for("blackscholes", 1);
        let mut sink = ThrottleSink::new(3);
        let is_dispatch = |k: &StallKind| *k != StallKind::CommitBackpressure;
        let mut prev = c.stats().clone();
        let mut shared = 0;
        for _ in 0..20_000 {
            c.step(&mut sink);
            let s = c.stats();
            let commit = s.stalls(StallKind::CommitBackpressure)
                - prev.stalls(StallKind::CommitBackpressure);
            let dispatch: u64 = StallKind::ALL
                .iter()
                .filter(|k| is_dispatch(k))
                .map(|&k| s.stalls(k) - prev.stalls(k))
                .sum();
            assert!(commit <= 1, "commit charged {commit} kinds in a cycle");
            assert!(
                dispatch <= 1,
                "dispatch charged {dispatch} kinds in a cycle"
            );
            shared += commit * dispatch;
            prev = s.clone();
        }
        let s = c.stats();
        let dispatch: u64 = StallKind::ALL
            .iter()
            .filter(|k| is_dispatch(k))
            .map(|&k| s.stalls(k))
            .sum();
        assert!(dispatch <= s.cycles);
        assert!(shared > 0, "commit and dispatch stalls share cycles");
    }

    /// The furthest-out wake cycle in the wheel, in cycles from now.
    fn wheel_horizon<T>(c: &Core<T>) -> u64 {
        let mut far = 0;
        for &head in &c.wheel {
            let mut cur = head;
            while cur != NIL {
                far = far.max(c.slots[cur as usize].wake.saturating_sub(c.now));
                cur = c.slots[cur as usize].next;
            }
        }
        far
    }

    /// Runs 3,000 instructions of every profile through to a full drain
    /// under `cfg` and `sink`, with the scheduler cross-check
    /// (`Core::check_scheduler`) live every cycle. After the drain every
    /// dependents chain, wheel bucket and `ready_q` must be empty. Returns
    /// the furthest wake-up the wheel held, in cycles ahead, and the PRF
    /// port conflicts.
    fn cross_check<S: CommitSink>(cfg: BoomConfig, sink: &mut S) -> (u64, u64) {
        let (mut horizon, mut conflicts) = (0, 0);
        for w in fireguard_trace::PARSEC_WORKLOADS {
            let t = TraceGenerator::new(w.clone(), 31).take(3_000);
            let mut c = Core::new(cfg, t);
            while !c.is_drained() {
                c.step(sink);
                horizon = horizon.max(wheel_horizon(&c));
                assert!(c.now < 1_000_000, "{}: no drain", w.name);
            }
            assert_eq!(c.stats.committed, 3_000);
            assert_eq!(c.iq_len, 0);
            assert!(c.dep_head.iter().all(|&h| h == NIL), "{}: chains", w.name);
            assert!(c.wheel.iter().all(|&h| h == NIL), "{}: wheel", w.name);
            assert!(c.ready_q.is_empty(), "{}: ready_q", w.name);
            conflicts += c.stats.prf_port_conflicts;
        }
        (horizon, conflicts)
    }

    #[test]
    fn scheduler_cross_check_at_defaults() {
        cross_check(BoomConfig::default(), &mut ThrottleSink::new(5));
    }

    #[test]
    fn scheduler_cross_check_past_the_wheel() {
        let mut cfg = BoomConfig::default();
        cfg.dmem.latency.dram = 2 * WHEEL as u64;
        let horizon = cross_check(cfg, &mut NullSink).0;
        assert!(horizon > WHEEL as u64, "wake-ups wrap the wheel: {horizon}");
    }

    #[test]
    fn scheduler_cross_check_at_issue_widths_1_and_8() {
        for issue_width in [1, 8] {
            let cfg = BoomConfig {
                issue_width,
                ..BoomConfig::default()
            };
            cross_check(cfg, &mut NullSink);
        }
    }

    #[test]
    fn scheduler_cross_check_with_stolen_ports() {
        /// Steals 0, 1 or 2 of the two ports in turn.
        struct Steal;
        impl CommitSink for Steal {
            fn offer(&mut self, _now: u64, _slot: usize, _inst: &TraceInst) -> bool {
                true
            }
            fn prf_ports_stolen(&mut self, now: u64) -> usize {
                (now % 3) as usize
            }
        }
        let cfg = BoomConfig {
            prf_read_ports: 2,
            ..BoomConfig::default()
        };
        let conflicts = cross_check(cfg, &mut Steal).1;
        assert!(conflicts > 0, "stolen ports blocked issue");
    }
}
