//! Main-core performance counters.

/// Why commit (or the whole pipeline) failed to make progress in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallKind {
    /// The commit sink (FireGuard's forwarding channel) refused an offer.
    CommitBackpressure,
    /// ROB full at dispatch.
    RobFull,
    /// Issue queue full at dispatch.
    IqFull,
    /// Load queue full at dispatch.
    LdqFull,
    /// Store queue full at dispatch.
    StqFull,
    /// No free physical register at rename.
    PrfFull,
    /// Front end had nothing to deliver (redirect/I-cache refill).
    FrontendEmpty,
}

impl StallKind {
    /// All kinds, for report iteration.
    pub const ALL: [StallKind; 7] = [
        StallKind::CommitBackpressure,
        StallKind::RobFull,
        StallKind::IqFull,
        StallKind::LdqFull,
        StallKind::StqFull,
        StallKind::PrfFull,
        StallKind::FrontendEmpty,
    ];

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            StallKind::CommitBackpressure => 0,
            StallKind::RobFull => 1,
            StallKind::IqFull => 2,
            StallKind::LdqFull => 3,
            StallKind::StqFull => 4,
            StallKind::PrfFull => 5,
            StallKind::FrontendEmpty => 6,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::CommitBackpressure => "commit-backpressure",
            StallKind::RobFull => "rob-full",
            StallKind::IqFull => "iq-full",
            StallKind::LdqFull => "ldq-full",
            StallKind::StqFull => "stq-full",
            StallKind::PrfFull => "prf-full",
            StallKind::FrontendEmpty => "frontend-empty",
        }
    }
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters accumulated over a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted control transfers (front-end redirects).
    pub mispredicts: u64,
    /// L1I line misses during fetch.
    pub icache_misses: u64,
    /// Per-kind stall cycles, at most one kind per stage per cycle: commit
    /// charges `CommitBackpressure` and dispatch one of the other six, so
    /// the dispatch kinds sum to at most `cycles` while all seven together
    /// can exceed it.
    pub stall_cycles: [u64; 7],
    /// Cycles in which at least one instruction committed.
    pub commit_active_cycles: u64,
    /// Issue opportunities lost to stolen PRF read ports (Fig. 2 contention).
    pub prf_port_conflicts: u64,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Stall cycles charged to `kind`.
    pub fn stalls(&self, kind: StallKind) -> u64 {
        self.stall_cycles[kind.index()]
    }

    /// Records a stall cycle of `kind`.
    pub fn add_stall(&mut self, kind: StallKind) {
        self.stall_cycles[kind.index()] += 1;
    }

    /// Misprediction rate over committed branches (plus indirect redirects).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn stall_indexing_is_dense_and_unique() {
        let mut seen = [false; 7];
        for k in StallKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn add_stall_accumulates() {
        let mut s = CoreStats::default();
        s.add_stall(StallKind::CommitBackpressure);
        s.add_stall(StallKind::CommitBackpressure);
        s.add_stall(StallKind::RobFull);
        assert_eq!(s.stalls(StallKind::CommitBackpressure), 2);
        assert_eq!(s.stalls(StallKind::RobFull), 1);
        assert_eq!(s.stalls(StallKind::IqFull), 0);
    }
}
