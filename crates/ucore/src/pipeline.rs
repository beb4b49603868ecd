//! The 5-stage in-order µcore pipeline interpreter.
//!
//! Timing follows a scoreboard model of a Rocket-class pipeline
//! (IF ID EX MA WB) with full forwarding:
//!
//! * ALU results forward from EX: dependent instructions issue back-to-back;
//! * loads produce at MA: one load-use bubble on an L1 hit, plus the memory
//!   latency on misses (4 KB 2-way L1, small TLB — shadow-memory misses are
//!   the paper's ASan tail-latency source);
//! * taken branches flush the front of the pipe (2 bubbles);
//! * queue instructions depend on the ISAX placement ([`IsaxMode`]): at the
//!   MA stage they behave like loads (one bubble if immediately used,
//!   paper §III-D footnote); post-commit (stock Rocket) they block the core
//!   for 3 cycles and their result is not forwardable for 13 (the 3–13
//!   cycle range the paper measured).

use crate::backend::KernelBackend;
use crate::msgq::{MessageQueue, QueueEntry};
use crate::uisa::{UInst, UProgram};
use fireguard_mem::{HierarchyConfig, MemoryHierarchy, Tlb, TlbConfig};

/// Where the ISAX interface sits in the µcore pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsaxMode {
    /// FireGuard's redesign: the interface is multiplexed into the MA stage
    /// alongside the load-store unit. Queue results behave like load data.
    #[default]
    MaStage,
    /// Stock Rocket: custom instructions run post-commit, blocking the core
    /// for at least 3 cycles, with results unavailable for 13.
    PostCommit,
}

/// µcore configuration (Table II: in-order Rocket, 5-stage, 1.6 GHz,
/// 32-entry message queues, 4 KB 2-way caches, no FPU).
#[derive(Debug, Clone, Copy)]
pub struct UcoreConfig {
    /// ISAX interface placement.
    pub isax_mode: IsaxMode,
    /// Input message-queue capacity.
    pub input_capacity: usize,
    /// Output message-queue capacity.
    pub output_capacity: usize,
    /// Data-side memory hierarchy.
    pub mem: HierarchyConfig,
    /// Data TLB.
    pub tlb: TlbConfig,
    /// Bubbles after a taken branch.
    pub taken_branch_penalty: u64,
    /// Clock, in Hz (1.6 GHz — the low-frequency domain).
    pub clock_hz: f64,
}

impl Default for UcoreConfig {
    fn default() -> Self {
        UcoreConfig {
            isax_mode: IsaxMode::MaStage,
            input_capacity: 32,
            output_capacity: 32,
            mem: HierarchyConfig::ucore(),
            tlb: TlbConfig::ucore(),
            taken_branch_penalty: 2,
            clock_hz: 1.6e9,
        }
    }
}

/// A raised detection alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// µcore cycle at which the alarm instruction executed.
    pub cycle: u64,
    /// Alarm code (kernel-specific).
    pub code: u8,
    /// Sequence number of the packet most recently popped.
    pub seq: u64,
    /// Fast-clock commit cycle of that packet (for latency measurement).
    pub commit_cycle: u64,
    /// Ground truth: was that packet an injected attack?
    pub attack: bool,
}

/// µcore performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UcoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Packets popped from the input queue.
    pub packets: u64,
    /// Cycles spent idle waiting for packets (or output space).
    pub idle_cycles: u64,
    /// Data-memory accesses issued.
    pub mem_accesses: u64,
    /// Alarms raised.
    pub alarms_raised: u64,
    /// Park transitions: retiring → stalled on an empty input queue (or
    /// full output). Paired with `wakes`, this counts how often the core
    /// drains its queue and goes quiescent rather than how long (that is
    /// `idle_cycles`).
    pub parks: u64,
    /// Wake transitions: stalled → retiring again.
    pub wakes: u64,
}

/// The in-order analysis-engine model.
#[derive(Debug)]
pub struct Ucore {
    cfg: UcoreConfig,
    program: UProgram,
    regs: [u64; 32],
    reg_ready: [u64; 32],
    pc: usize,
    cycle: u64,
    halted: bool,
    dmem: MemoryHierarchy,
    dtlb: Tlb,
    input: MessageQueue,
    output: MessageQueue,
    /// Why the last `advance` attempt made no progress (None after any
    /// retired instruction). `BlockReason::EmptyInput` + a still-empty
    /// input queue means the µcore is *parked*: advancing it is pure idle
    /// accounting, which the SoC's idle fast-forward exploits.
    blocked: Option<BlockReason>,
    last_popped: QueueEntry,
    alarms: Vec<Alarm>,
    stats: UcoreStats,
}

impl Ucore {
    /// Builds a µcore running `program`.
    pub fn new(cfg: UcoreConfig, program: UProgram) -> Self {
        Ucore {
            dmem: MemoryHierarchy::new(cfg.mem),
            dtlb: Tlb::new(cfg.tlb),
            input: MessageQueue::new(cfg.input_capacity),
            output: MessageQueue::new(cfg.output_capacity),
            cfg,
            program,
            regs: [0; 32],
            reg_ready: [0; 32],
            pc: 0,
            cycle: 0,
            halted: false,
            blocked: None,
            last_popped: QueueEntry::default(),
            alarms: Vec::new(),
            stats: UcoreStats::default(),
        }
    }

    /// The input message queue (the fabric writes here).
    pub fn input_mut(&mut self) -> &mut MessageQueue {
        &mut self.input
    }

    /// Read-only view of the input queue.
    pub fn input(&self) -> &MessageQueue {
        &self.input
    }

    /// The output message queue (inter-checker packets leave here).
    pub fn output_mut(&mut self) -> &mut MessageQueue {
        &mut self.output
    }

    /// Read-only view of the output queue.
    pub fn output(&self) -> &MessageQueue {
        &self.output
    }

    /// Current local (1.6 GHz) cycle.
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// True once a `Halt` has executed or the PC ran off the program.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Counters.
    pub fn stats(&self) -> UcoreStats {
        self.stats
    }

    /// L1 data-cache counters (telemetry: hit-rate series).
    pub fn mem_stats(&self) -> fireguard_mem::CacheStats {
        self.dmem.l1_stats()
    }

    /// Data-TLB counters as `(hits, misses)`.
    pub fn tlb_stats(&self) -> (u64, u64) {
        (self.dtlb.hits(), self.dtlb.misses())
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Drains recorded alarms (ownership transferred to the caller).
    pub fn take_alarms(&mut self) -> Vec<Alarm> {
        std::mem::take(&mut self.alarms)
    }

    fn read(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    fn ready(&self, r: u8) -> u64 {
        self.reg_ready[r as usize]
    }

    fn write(&mut self, r: u8, value: u64, ready_at: u64) {
        if r != 0 {
            self.regs[r as usize] = value;
            self.reg_ready[r as usize] = ready_at;
        }
    }

    fn isax_cost(&self) -> (u64, u64) {
        // (cycles the core is occupied, result-forward delay)
        match self.cfg.isax_mode {
            IsaxMode::MaStage => (1, 2),
            IsaxMode::PostCommit => (3, 13),
        }
    }

    /// Runs the µcore until local cycle `until` (exclusive), executing the
    /// kernel program against `backend`. Blocks (idles) on empty input
    /// pops/tops and full output pushes; the surrounding SoC delivers and
    /// drains packets between calls.
    pub fn advance(&mut self, until: u64, backend: &mut dyn KernelBackend) {
        // Parked fast path: the µcore is stalled on an empty input queue
        // and nothing has been delivered since — the whole advance is
        // idle accounting, no instruction needs re-decoding.
        if self.blocked == Some(BlockReason::EmptyInput) && self.input.is_empty() {
            if self.cycle < until {
                self.stats.idle_cycles += until - self.cycle;
                self.cycle = until;
            }
            return;
        }
        while !self.halted && self.cycle < until {
            let Some(&inst) = self.program.get(self.pc) else {
                self.halted = true;
                break;
            };
            match self.execute(inst, backend) {
                Progress::Retired(next_pc) => {
                    self.pc = next_pc;
                    self.stats.retired += 1;
                    if self.blocked.take().is_some() {
                        self.stats.wakes += 1;
                    }
                }
                Progress::Blocked => {
                    if self.blocked.is_none() {
                        self.stats.parks += 1;
                    }
                    self.blocked = Some(match inst {
                        UInst::QPush { .. } => BlockReason::FullOutput,
                        _ => BlockReason::EmptyInput,
                    });
                    self.stats.idle_cycles += until - self.cycle;
                    self.cycle = until;
                }
            }
        }
    }

    /// True while the µcore is provably stalled on an empty input queue:
    /// its next instruction is a blocked queue read and no packet has
    /// arrived since. Advancing a parked µcore only accrues idle cycles,
    /// so the SoC may skip (and later batch) those calls.
    pub fn parked_on_empty_input(&self) -> bool {
        self.halted || (self.blocked == Some(BlockReason::EmptyInput) && self.input.is_empty())
    }

    fn execute(&mut self, inst: UInst, backend: &mut dyn KernelBackend) -> Progress {
        use UInst::*;
        let seq_pc = self.pc + 1;
        match inst {
            Addi { rd, rs1, imm } => {
                let issue = self.cycle.max(self.ready(rs1));
                let v = self.read(rs1).wrapping_add(imm as u64);
                self.write(rd, v, issue + 1);
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Add { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, u64::wrapping_add),
            Sub { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, u64::wrapping_sub),
            And { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, |a, b| a & b),
            Or { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, |a, b| a | b),
            Xor { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, |a, b| a ^ b),
            Sltu { rd, rs1, rs2 } => self.alu2(rd, rs1, rs2, seq_pc, |a, b| u64::from(a < b)),
            Andi { rd, rs1, imm } => {
                let issue = self.cycle.max(self.ready(rs1));
                let v = self.read(rs1) & (imm as u64);
                self.write(rd, v, issue + 1);
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Slli { rd, rs1, sh } => {
                let issue = self.cycle.max(self.ready(rs1));
                let v = self.read(rs1) << sh;
                self.write(rd, v, issue + 1);
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Srli { rd, rs1, sh } => {
                let issue = self.cycle.max(self.ready(rs1));
                let v = self.read(rs1) >> sh;
                self.write(rd, v, issue + 1);
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Load { rd, rs1, off } => {
                let issue = self.cycle.max(self.ready(rs1));
                let addr = self.read(rs1).wrapping_add(off as u64);
                let tlb = self.dtlb.access(addr);
                let mem = self.dmem.access(issue, addr, false);
                self.stats.mem_accesses += 1;
                let v = backend.mem_read(addr);
                // Load data arrives at MA: 1 bubble on a hit, plus misses.
                self.write(rd, v, issue + 1 + tlb + mem.latency);
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Store { rs2, rs1, off } => {
                let issue = self.cycle.max(self.ready(rs1)).max(self.ready(rs2));
                let addr = self.read(rs1).wrapping_add(off as u64);
                let tlb = self.dtlb.access(addr);
                let _ = self.dmem.access(issue, addr, true);
                self.stats.mem_accesses += 1;
                backend.mem_write(addr, self.read(rs2));
                self.cycle = issue + 1 + tlb;
                Progress::Retired(seq_pc)
            }
            Beqz { rs1, target } => self.branch(self.read(rs1) == 0, rs1, 0, target, seq_pc),
            Bnez { rs1, target } => self.branch(self.read(rs1) != 0, rs1, 0, target, seq_pc),
            Bgeu { rs1, rs2, target } => {
                self.branch(self.read(rs1) >= self.read(rs2), rs1, rs2, target, seq_pc)
            }
            Jump { target } => {
                self.cycle += 1 + self.cfg.taken_branch_penalty;
                Progress::Retired(target)
            }
            QCount { rd } => {
                let issue = self.cycle;
                let (busy, fwd) = self.isax_cost();
                self.write(rd, self.input.len() as u64, issue + fwd);
                self.cycle = issue + busy;
                Progress::Retired(seq_pc)
            }
            QTop { rd, off } => {
                let Some(e) = self.input.top().copied() else {
                    return Progress::Blocked;
                };
                let issue = self.cycle;
                let (busy, fwd) = self.isax_cost();
                self.write(rd, e.field(off), issue + fwd);
                self.cycle = issue + busy;
                Progress::Retired(seq_pc)
            }
            QPop { rd, off } => {
                let Some(e) = self.input.pop() else {
                    return Progress::Blocked;
                };
                let issue = self.cycle;
                let (busy, fwd) = self.isax_cost();
                self.last_popped = e;
                self.stats.packets += 1;
                self.write(rd, e.field(off), issue + fwd);
                self.cycle = issue + busy;
                Progress::Retired(seq_pc)
            }
            QRecent { rd, off } => {
                let issue = self.cycle;
                let (busy, fwd) = self.isax_cost();
                self.write(rd, self.last_popped.field(off), issue + fwd);
                self.cycle = issue + busy;
                Progress::Retired(seq_pc)
            }
            QPush { rs1 } => {
                let issue = self.cycle.max(self.ready(rs1));
                let entry = QueueEntry::with_meta(
                    u128::from(self.read(rs1)),
                    self.last_popped.seq,
                    self.last_popped.commit_cycle,
                    self.last_popped.attack,
                );
                if self.output.push(entry).is_err() {
                    return Progress::Blocked;
                }
                let (busy, _) = self.isax_cost();
                self.cycle = issue + busy;
                Progress::Retired(seq_pc)
            }
            QCheck { op, rd, off } => {
                let issue = self.cycle;
                let addr_field = self.last_popped.field(0);
                let check_field = self.last_popped.field(off);
                let r = backend.custom(op, addr_field, check_field);
                let mut mem_lat = 0;
                if let Some(addr) = r.mem_touch {
                    let tlb = self.dtlb.access(addr);
                    let acc = self.dmem.access(issue, addr, false);
                    self.stats.mem_accesses += 1;
                    if !r.touch_blind {
                        mem_lat = tlb + acc.latency;
                    }
                }
                self.write(rd, r.value, issue + 1 + r.extra_cycles + mem_lat);
                self.cycle = issue + 1 + r.extra_cycles;
                Progress::Retired(seq_pc)
            }
            Custom { op, rd, rs1, rs2 } => {
                let issue = self.cycle.max(self.ready(rs1)).max(self.ready(rs2));
                let r = backend.custom(op, self.read(rs1), self.read(rs2));
                let mut mem_lat = 0;
                if let Some(addr) = r.mem_touch {
                    let tlb = self.dtlb.access(addr);
                    let acc = self.dmem.access(issue, addr, false);
                    self.stats.mem_accesses += 1;
                    if !r.touch_blind {
                        mem_lat = tlb + acc.latency;
                    }
                }
                // The op occupies the core for its issue slot plus any
                // charged microloop; the *result* additionally waits for the
                // touched memory, like a load.
                self.write(rd, r.value, issue + 1 + r.extra_cycles + mem_lat);
                self.cycle = issue + 1 + r.extra_cycles;
                Progress::Retired(seq_pc)
            }
            Alarm { code } => {
                let issue = self.cycle;
                self.alarms.push(crate::pipeline::Alarm {
                    cycle: issue + 1,
                    code,
                    seq: self.last_popped.seq,
                    commit_cycle: self.last_popped.commit_cycle,
                    attack: self.last_popped.attack,
                });
                self.stats.alarms_raised += 1;
                self.cycle = issue + 1;
                Progress::Retired(seq_pc)
            }
            Halt => {
                self.halted = true;
                self.cycle += 1;
                Progress::Retired(self.pc)
            }
            Nop => {
                self.cycle += 1;
                Progress::Retired(seq_pc)
            }
        }
    }

    fn alu2(
        &mut self,
        rd: u8,
        rs1: u8,
        rs2: u8,
        next: usize,
        f: impl Fn(u64, u64) -> u64,
    ) -> Progress {
        let issue = self.cycle.max(self.ready(rs1)).max(self.ready(rs2));
        let v = f(self.read(rs1), self.read(rs2));
        self.write(rd, v, issue + 1);
        self.cycle = issue + 1;
        Progress::Retired(next)
    }

    fn branch(&mut self, taken: bool, rs1: u8, rs2: u8, target: usize, next: usize) -> Progress {
        let issue = self.cycle.max(self.ready(rs1)).max(self.ready(rs2));
        if taken {
            self.cycle = issue + 1 + self.cfg.taken_branch_penalty;
            Progress::Retired(target)
        } else {
            self.cycle = issue + 1;
            Progress::Retired(next)
        }
    }
}

/// What stalled a µcore (see `Ucore::blocked`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// A `QPop`/`QTop` found the input queue empty.
    EmptyInput,
    /// A `QPush` found the output queue full.
    FullOutput,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    Retired(usize),
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NullBackend, SparseMem};
    use crate::uisa::Asm;

    fn run_program(asm: Asm, budget: u64) -> Ucore {
        let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
        u.advance(budget, &mut NullBackend);
        u
    }

    #[test]
    fn alu_chain_runs_at_one_ipc() {
        let mut asm = Asm::new();
        for _ in 0..100 {
            asm.addi(1, 1, 1); // fully dependent chain
        }
        asm.halt();
        let u = run_program(asm, 10_000);
        assert_eq!(u.regs[1], 100);
        // 100 dependent ALU ops with EX forwarding: ~1 cycle each.
        assert!(u.now() <= 102, "took {}", u.now());
    }

    #[test]
    fn load_use_hazard_costs_one_bubble() {
        // load, then immediately use: 1 bubble beyond the L1 hit.
        let mut warm = Asm::new();
        warm.load(1, 0, 0x100).addi(2, 1, 0).halt();
        let mut u1 = Ucore::new(UcoreConfig::default(), warm.assemble());
        let mut mem = SparseMem::new();
        mem.mem_write(0x100, 5);
        // warm the cache first
        u1.advance(1000, &mut mem);
        let warm_cycles = u1.now();

        let mut indep = Asm::new();
        indep.load(1, 0, 0x100).addi(3, 0, 7).halt();
        let mut u2 = Ucore::new(UcoreConfig::default(), indep.assemble());
        let mut mem2 = SparseMem::new();
        mem2.mem_write(0x100, 5);
        u2.advance(1000, &mut mem2);
        // The dependent version can't be faster than the independent one.
        assert!(warm_cycles >= u2.now());
        assert_eq!(u1.regs[2], 5, "forwarded load value");
    }

    #[test]
    fn taken_branch_penalty_applies() {
        // Loop decrementing x1 from 10: each taken backward jump costs 2
        // bubbles, so ~4 cycles per iteration.
        let mut asm = Asm::new();
        asm.addi(1, 0, 10);
        let top = asm.here();
        asm.addi(1, 1, -1);
        asm.bnez_back(1, top);
        asm.halt();
        let u = run_program(asm, 10_000);
        assert_eq!(u.regs[1], 0);
        // 1 + 10*(1+1+2) - 2 (last not taken) + 1 halt ≈ 38-42.
        assert!(u.now() >= 30 && u.now() <= 50, "took {}", u.now());
    }

    #[test]
    fn ma_stage_isax_beats_post_commit() {
        let busy = |mode| {
            let mut asm = Asm::new();
            let top = asm.here();
            asm.qpop(1, 0); // pop
            asm.addi(2, 1, 1); // immediately use the result (hazard!)
            asm.jump(top);
            let mut u = Ucore::new(
                UcoreConfig {
                    isax_mode: mode,
                    ..UcoreConfig::default()
                },
                asm.assemble(),
            );
            for i in 0..32u128 {
                u.input_mut().push(QueueEntry::from_bits(i)).unwrap();
            }
            u.advance(100_000, &mut NullBackend);
            assert_eq!(u.stats().packets, 32);
            u.now() - u.stats().idle_cycles
        };
        let ma = busy(IsaxMode::MaStage);
        let pc = busy(IsaxMode::PostCommit);
        // Post-commit ISAX blocks 3 cycles and stalls dependants 13: it
        // must be several times slower on this queue-bound loop.
        assert!(pc > 2 * ma, "busy cycles: MA stage {ma}, post-commit {pc}");
        assert_eq!((ma, pc), (192, 544));
    }

    #[test]
    fn isax_cost_measured_precisely() {
        // Time exactly one pop+use+halt by feeding one packet and
        // measuring busy time (the halt leaves no idle tail).
        let measure = |mode| {
            let mut asm = Asm::new();
            asm.qpop(1, 0);
            asm.addi(2, 1, 1);
            asm.halt();
            let mut u = Ucore::new(
                UcoreConfig {
                    isax_mode: mode,
                    ..UcoreConfig::default()
                },
                asm.assemble(),
            );
            u.input_mut().push(QueueEntry::from_bits(9)).unwrap();
            u.advance(10_000, &mut NullBackend);
            assert_eq!(u.regs[2], 10);
            u.now() - u.stats().idle_cycles
        };
        // MA stage: pop, use after a 1-cycle hazard, halt. Post-commit:
        // the pop blocks 3 cycles and its dependant waits out the 13-cycle
        // post-commit stall.
        assert_eq!(measure(IsaxMode::MaStage), 4);
        assert_eq!(measure(IsaxMode::PostCommit), 15);
    }

    #[test]
    fn empty_pop_idles_until_packet_arrives() {
        let mut asm = Asm::new();
        asm.qpop(1, 0);
        asm.halt();
        let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
        u.advance(500, &mut NullBackend);
        assert_eq!(u.stats().packets, 0);
        assert!(u.stats().idle_cycles >= 500);
        u.input_mut().push(QueueEntry::from_bits(3)).unwrap();
        u.advance(600, &mut NullBackend);
        assert_eq!(u.stats().packets, 1);
        assert_eq!(u.regs[1], 3);
    }

    #[test]
    fn alarm_carries_packet_metadata() {
        let mut asm = Asm::new();
        asm.qpop(1, 0);
        asm.alarm(7);
        asm.halt();
        let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
        u.input_mut()
            .push(QueueEntry::with_meta(0x42, 1234, 9999, true))
            .unwrap();
        u.advance(1000, &mut NullBackend);
        let a = u.alarms()[0];
        assert_eq!(a.code, 7);
        assert_eq!(a.seq, 1234);
        assert_eq!(a.commit_cycle, 9999);
        assert!(a.attack);
    }

    #[test]
    fn push_blocks_when_output_full() {
        let mut asm = Asm::new();
        let top = asm.here();
        asm.addi(1, 1, 1);
        asm.qpush(1);
        asm.jump(top);
        let cfg = UcoreConfig {
            output_capacity: 2,
            ..UcoreConfig::default()
        };
        let mut u = Ucore::new(cfg, asm.assemble());
        u.advance(1000, &mut NullBackend);
        assert_eq!(u.output_mut().len(), 2, "output capped at capacity");
        assert!(u.stats().idle_cycles > 0, "push back-pressure idles");
        // Drain one slot; the µcore resumes.
        u.output_mut().pop();
        u.advance(2000, &mut NullBackend);
        assert_eq!(u.output_mut().len(), 2);
    }

    #[test]
    fn qcount_and_qtop_do_not_consume() {
        let mut asm = Asm::new();
        asm.qcount(1);
        asm.qtop(2, 0);
        asm.qcount(3);
        asm.halt();
        let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
        u.input_mut().push(QueueEntry::from_bits(77)).unwrap();
        u.advance(1000, &mut NullBackend);
        assert_eq!(u.regs[1], 1);
        assert_eq!(u.regs[2], 77);
        assert_eq!(u.regs[3], 1, "top must not consume");
    }

    #[test]
    fn custom_op_charges_extra_cycles() {
        struct SlowOp;
        impl KernelBackend for SlowOp {
            fn mem_read(&mut self, _a: u64) -> u64 {
                0
            }
            fn mem_write(&mut self, _a: u64, _v: u64) {}
            fn custom(&mut self, _op: u8, a: u64, b: u64) -> crate::backend::CustomResult {
                crate::backend::CustomResult {
                    value: a + b,
                    extra_cycles: 50,
                    mem_touch: None,
                    touch_blind: true,
                }
            }
        }
        let mut asm = Asm::new();
        asm.addi(1, 0, 2).addi(2, 0, 3).custom(0, 3, 1, 2).halt();
        let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
        u.advance(10_000, &mut SlowOp);
        assert_eq!(u.regs[3], 5);
        assert!(u.now() >= 53, "extra cycles charged: {}", u.now());
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut asm = Asm::new();
        asm.addi(0, 0, 99).addi(1, 0, 1).halt();
        let u = run_program(asm, 100);
        assert_eq!(u.regs[0], 0);
        assert_eq!(u.regs[1], 1);
    }

    #[test]
    fn deterministic_execution() {
        let run = || {
            let mut asm = Asm::new();
            let top = asm.here();
            asm.qpop(1, 0);
            asm.custom(1, 2, 1, 0);
            asm.load(3, 1, 0);
            asm.qpush(3);
            asm.jump(top);
            let mut u = Ucore::new(UcoreConfig::default(), asm.assemble());
            for i in 0..20u128 {
                u.input_mut().push(QueueEntry::from_bits(i * 64)).unwrap();
            }
            let mut mem = SparseMem::new();
            u.advance(5_000, &mut mem);
            (u.now(), u.stats())
        };
        assert_eq!(run(), run());
    }
}
