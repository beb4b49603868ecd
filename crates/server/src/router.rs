//! The fleet router tier: one front-end TCP process consistent-hashing
//! sessions over N `serve` backends, with transparent failover and
//! client-side session resume.
//!
//! # Topology
//!
//! ```text
//! client ──┐                    ┌── backend 0 (serve)
//! client ──┼──▶ router ── ring ─┼── backend 1 (serve)
//! client ──┘     │              └── backend 2 (serve)
//!                └ health checker: probe / mark down / respawn
//! ```
//!
//! The router speaks the existing framed protocol *transparently*: a
//! HELLO payload is stored opaque and forwarded verbatim (v1 and v2
//! wide-verdict negotiation pass through unchanged), EVENTS batches are
//! decoded into a per-session buffer and re-encoded per backend
//! incarnation, ALARMS are decoded only to deduplicate across failovers.
//! A plain [`run_session`](crate::run_session) client works unmodified; a
//! client that opens with a [`SessionTicket`] additionally gets ACK
//! frames and may *resume* the session on a fresh connection if its
//! transport dies.
//!
//! # Zero lost sessions
//!
//! Formally: for every session whose client follows the resume protocol,
//! the client observes exactly the alarm sequence and summary an
//! uninterrupted direct session would have produced — no alarm lost,
//! none delivered twice — regardless of how many backends die mid-stream
//! (as long as some backend eventually serves). The mechanism is
//! buffering + determinism: the router holds the session's full event
//! prefix, replays it to a fresh backend on failover, and suppresses the
//! alarms the replay re-raises (analysis is deterministic, so the first
//! `k` alarms of a replayed incarnation are bit-identical to the `k`
//! already logged). Client-side loss is covered the same way: the resume
//! ticket carries how many alarms the client holds, and the router
//! re-sends the missing tail from its buffer.

use crate::journal::{recover_journals, Journal, JournalGauges, DEFAULT_JOURNAL_TAIL};
use crate::metrics::{serve_metrics, MetricsHandle};
use crate::proto::{
    self, hello_caps, FrameReader, FrameWriter, SessionTicket, ACK, ALARMS, BUSY,
    CAP_FRAME_CHECKSUM, END, ERROR, EVENTS, HELLO, RETRYABLE_ERROR_PREFIX, SESSION, SUMMARY,
};
use crate::ring::{mix, Ring, DEFAULT_REPLICAS};
use crate::service::{fleet_samples, serve, sever_live, LiveSessions, ServeOptions, ServerHandle};
use fireguard_soc::Detection;
use fireguard_telemetry::{FieldVal, Sample, TraceSink};
use fireguard_trace::codec::{EventDecoder, EventEncoder};
use fireguard_trace::TraceInst;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events per EVENTS frame when the router replays a buffered prefix to
/// a fresh backend incarnation.
const REPLAY_BATCH: usize = 512;

/// How long a driver keeps retrying for a live backend before giving the
/// session up with an ERROR frame.
const ROUTE_PATIENCE: Duration = Duration::from_secs(5);

/// How long a resume waits for the previous driver to let go of the
/// session before answering "session busy".
const ATTACH_PATIENCE: Duration = Duration::from_secs(5);

/// Ceiling on *consecutive* failovers without a single backend
/// round-trip — past this the fleet is clearly sick and the session is
/// parked (ticketed) or failed (anonymous) instead of thrashing in a
/// connect/replay hot loop. Any decoded backend frame resets the
/// budget, so a long session under sustained-but-survivable fault
/// pressure is never killed merely for surviving many faults.
const MAX_FAILOVERS: u32 = 32;

/// Lock recovery: a driver thread that panicked while holding a lock
/// poisons it, but the data under every router lock is valid at all
/// times (each critical section is a small, atomic mutation), so the
/// router recovers the guard and keeps serving instead of cascading the
/// panic through every thread that touches the lock.
static LOCK_POISONS: AtomicU64 = AtomicU64::new(0);

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        LOCK_POISONS.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Where the router's backends come from.
#[derive(Debug, Clone)]
pub enum BackendMode {
    /// Spawn `n` in-process [`serve`] instances on ephemeral ports; dead
    /// ones are respawned (the chaos harness's mode).
    Spawn(usize),
    /// Route over externally managed services; dead ones are probed and
    /// re-admitted when they answer again, never respawned. Note the
    /// health probe opens (and immediately closes) a connection, which a
    /// backend running with a `--max-sessions` budget counts against it.
    Extern(Vec<String>),
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Address to bind (port 0 = ephemeral).
    pub addr: String,
    /// Backend fleet.
    pub backends: BackendMode,
    /// Worker threads per spawned backend.
    pub backend_workers: usize,
    /// Alarm-drain period handed to spawned backends.
    pub observe_every: u64,
    /// Virtual ring points per backend slot.
    pub replicas: usize,
    /// Accept at most this many connections (resumes included), then
    /// stop (None = forever).
    pub max_sessions: Option<u64>,
    /// Health-check period.
    pub health_every: Duration,
    /// Fault injection: sever each *ticketed* client connection after
    /// this many ACKs, simulating client↔router transport loss. Session
    /// state survives, so a resuming client must still observe a
    /// lossless session — this is how the resume path is exercised
    /// deterministically in tests.
    pub drop_client_after_acks: Option<u64>,
    /// Optional admin metrics endpoint (`--metrics-addr`). The router's
    /// exposition includes its own routing counters plus, in spawn mode,
    /// each live backend's fleet counters labeled `backend="<slot>"` —
    /// one scrape sees the whole fleet.
    pub metrics_addr: Option<String>,
    /// Optional structured span sink (`--trace-out`); failover, resume,
    /// and ghost-driver transitions are emitted here.
    pub trace: Option<Arc<TraceSink>>,
    /// Client-leg read timeout (`--idle-timeout`): a connection that
    /// produces no frame for this long is reaped (slowloris defense).
    /// A session wedged with neither client nor backend progress for
    /// twice this duration is failed.
    pub idle_timeout: Duration,
    /// How long a ghost driver (client transport died mid-session) keeps
    /// driving the backend while waiting for a resume. Past it the driver
    /// detaches and exits; the session stays in the table (and, with a
    /// journal dir, on disk) so a later resume still replays it.
    pub ghost_linger: Duration,
    /// Admission budget (`--max-live-sessions`): over this many
    /// concurrently live sessions, *fresh* sessions are refused with a
    /// clean BUSY frame. Resumes are always admitted.
    pub max_live_sessions: Option<u64>,
    /// Admission budget (`--max-buffered-mb`, stored in bytes): when the
    /// aggregate journal spill exceeds it, fresh sessions get BUSY.
    pub max_buffered_bytes: Option<u64>,
    /// Durable journal directory (`--journal-dir`): ticketed sessions
    /// journal their state here with an fsync'd recovery sidecar, so a
    /// router *process* crash is resumable. `None` = ephemeral journals
    /// in the OS temp dir (failover-safe, not crash-safe).
    pub journal_dir: Option<PathBuf>,
    /// Scan `journal_dir` at startup (`--resume-journals`) and rebuild
    /// the session table from the journals a crashed router left behind.
    pub resume_journals: bool,
    /// In-RAM tail capacity per session journal, in events; the spill
    /// threshold that bounds per-session router memory.
    pub journal_tail: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            addr: "127.0.0.1:0".to_owned(),
            backends: BackendMode::Spawn(2),
            backend_workers: 2,
            observe_every: crate::service::OBSERVE_EVERY,
            replicas: DEFAULT_REPLICAS,
            max_sessions: None,
            health_every: Duration::from_millis(100),
            drop_client_after_acks: None,
            metrics_addr: None,
            trace: None,
            idle_timeout: Duration::from_secs(30),
            ghost_linger: Duration::from_secs(60),
            max_live_sessions: None,
            max_buffered_bytes: None,
            journal_dir: None,
            resume_journals: false,
            journal_tail: DEFAULT_JOURNAL_TAIL,
        }
    }
}

// ---- backend pool ----------------------------------------------------------

/// One backend slot's health state machine:
///
/// ```text
///            kill / probe failure
///      Up ───────────────────────────▶ Down
///       ▲ ◀── restore ── Draining      │
///       │        ▲           │         │
///       │        └── drain ──┘         │
///       └──────── revive (respawn or successful re-probe)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Healthy: takes new sessions.
    Up,
    /// Administratively draining: in-flight sessions finish, new ones
    /// route elsewhere.
    Draining,
    /// Dead: routed around until revived.
    Down,
}

struct Slot {
    state: SlotState,
    /// Bumped on every revival so stale death reports are ignored.
    generation: u64,
    addr: Option<SocketAddr>,
    /// The in-process service (spawn mode only).
    handle: Option<ServerHandle>,
}

struct BackendPool {
    slots: Vec<Mutex<Slot>>,
    ring: Ring,
    /// `Some((workers, observe_every))` = spawn mode; `None` = extern.
    spawn: Option<(usize, u64)>,
    kills: AtomicU64,
}

impl BackendPool {
    fn build(opts: &RouterOptions) -> std::io::Result<Self> {
        match &opts.backends {
            BackendMode::Spawn(n) => {
                let n = (*n).max(1);
                let workers = opts.backend_workers.max(1);
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    let handle = spawn_backend(workers, opts.observe_every)?;
                    slots.push(Mutex::new(Slot {
                        state: SlotState::Up,
                        generation: 0,
                        addr: Some(handle.local_addr()),
                        handle: Some(handle),
                    }));
                }
                Ok(BackendPool {
                    ring: Ring::new(n, opts.replicas),
                    slots,
                    spawn: Some((workers, opts.observe_every)),
                    kills: AtomicU64::new(0),
                })
            }
            BackendMode::Extern(addrs) => {
                if addrs.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "router needs at least one backend address",
                    ));
                }
                let mut slots = Vec::with_capacity(addrs.len());
                for a in addrs {
                    let addr = a.to_socket_addrs()?.next().ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("backend address {a} did not resolve"),
                        )
                    })?;
                    slots.push(Mutex::new(Slot {
                        state: SlotState::Up,
                        generation: 0,
                        addr: Some(addr),
                        handle: None,
                    }));
                }
                Ok(BackendPool {
                    ring: Ring::new(addrs.len(), opts.replicas),
                    slots,
                    spawn: None,
                    kills: AtomicU64::new(0),
                })
            }
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn lock_slot(&self, slot: usize) -> MutexGuard<'_, Slot> {
        lock_recover(&self.slots[slot])
    }

    fn addrs(&self) -> Vec<Option<SocketAddr>> {
        (0..self.len()).map(|s| self.lock_slot(s).addr).collect()
    }

    /// Routes `key` to a live slot: `(slot, addr, generation)`.
    fn route(&self, key: u64) -> Option<(usize, SocketAddr, u64)> {
        let idx = self.ring.route(key, |s| {
            let sl = self.lock_slot(s);
            sl.state == SlotState::Up && sl.addr.is_some()
        })?;
        let sl = self.lock_slot(idx);
        if sl.state != SlotState::Up {
            return None; // lost a race with a kill; caller retries
        }
        sl.addr.map(|a| (idx, a, sl.generation))
    }

    /// Reports slot death observed at `generation`; stale reports (the
    /// slot already revived) are ignored.
    fn mark_down(&self, slot: usize, generation: u64) {
        let handle = {
            let mut sl = self.lock_slot(slot);
            if sl.generation != generation || sl.state == SlotState::Down {
                return;
            }
            sl.state = SlotState::Down;
            sl.handle.take()
        };
        if let Some(h) = handle {
            h.abort();
        }
    }

    /// Abruptly kills a spawned backend (in-flight sessions are severed
    /// mid-stream) — the chaos harness's lever. Returns false for extern
    /// slots and already-down slots.
    fn kill(&self, slot: usize) -> bool {
        let handle = {
            let mut sl = self.lock_slot(slot);
            if sl.state == SlotState::Down {
                return false;
            }
            match sl.handle.take() {
                Some(h) => {
                    sl.state = SlotState::Down;
                    h
                }
                None => return false,
            }
        };
        self.kills.fetch_add(1, Ordering::Relaxed);
        handle.abort();
        true
    }

    /// Brings a Down slot back: spawn mode starts a fresh service on a
    /// new ephemeral port; extern mode probes the fixed address and
    /// re-admits the slot when it answers.
    fn revive(&self, slot: usize) -> bool {
        match self.spawn {
            Some((workers, observe_every)) => {
                let mut sl = self.lock_slot(slot);
                if sl.state != SlotState::Down || sl.handle.is_some() {
                    return false;
                }
                match spawn_backend(workers, observe_every) {
                    Ok(h) => {
                        sl.addr = Some(h.local_addr());
                        sl.handle = Some(h);
                        sl.generation += 1;
                        sl.state = SlotState::Up;
                        true
                    }
                    Err(_) => false,
                }
            }
            None => {
                let addr = {
                    let sl = self.lock_slot(slot);
                    if sl.state != SlotState::Down {
                        return false;
                    }
                    match sl.addr {
                        Some(a) => a,
                        None => return false,
                    }
                };
                if TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok() {
                    let mut sl = self.lock_slot(slot);
                    if sl.state == SlotState::Down {
                        sl.generation += 1;
                        sl.state = SlotState::Up;
                        return true;
                    }
                }
                false
            }
        }
    }

    fn set_state(&self, slot: usize, from: SlotState, to: SlotState) -> bool {
        let mut sl = self.lock_slot(slot);
        if sl.state == from {
            sl.state = to;
            true
        } else {
            false
        }
    }

    fn shutdown(&self) {
        for slot in 0..self.len() {
            let handle = self.lock_slot(slot).handle.take();
            if let Some(h) = handle {
                h.shutdown();
            }
        }
    }
}

fn spawn_backend(workers: usize, observe_every: u64) -> std::io::Result<ServerHandle> {
    serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        observe_every,
        ..ServeOptions::default()
    })
}

// ---- session state ---------------------------------------------------------

/// Everything the router remembers about one session — enough to replay
/// it to a fresh backend and to resume a returning client losslessly.
struct SessionBuf {
    /// The opaque HELLO payload, forwarded verbatim to every incarnation.
    hello: Vec<u8>,
    /// The contiguous event prefix received from the client (journal
    /// index == absolute seq): a bounded RAM tail + disk spill, so the
    /// router's per-session memory is O(tail), not O(events).
    journal: Journal,
    /// The client has sent END.
    ended: bool,
    /// Every alarm the analysis has produced, deduplicated across
    /// failovers — also the re-delivery log for resumes.
    alarms: Vec<Detection>,
    /// Stored terminal frames once the analysis finished — replayed to a
    /// client that resumes afterwards.
    summary: Option<Vec<u8>>,
    error: Option<Vec<u8>>,
    /// A driver currently owns this session.
    attached: bool,
    /// A resuming connection asked the current (ghost) driver to let go.
    takeover: bool,
}

impl SessionBuf {
    fn fresh(hello: Vec<u8>, journal: Journal) -> Self {
        SessionBuf {
            hello,
            journal,
            ended: false,
            alarms: Vec::new(),
            summary: None,
            error: None,
            attached: true,
            takeover: false,
        }
    }

    fn done(&self) -> bool {
        self.summary.is_some() || self.error.is_some()
    }

    fn set_summary(&mut self, payload: Vec<u8>) {
        let _ = self.journal.record_summary(&payload);
        self.summary = Some(payload);
    }

    fn set_error(&mut self, payload: Vec<u8>) {
        let _ = self.journal.record_error(&payload);
        self.error = Some(payload);
    }
}

type SessionRef = Arc<Mutex<SessionBuf>>;

fn lock_session(session: &SessionRef) -> MutexGuard<'_, SessionBuf> {
    lock_recover(session)
}

#[derive(Default)]
struct SessionTable {
    map: Mutex<HashMap<u64, SessionRef>>,
}

impl SessionTable {
    fn forget(&self, session: &SessionRef) {
        lock_recover(&self.map).retain(|_, v| !Arc::ptr_eq(v, session));
    }
}

/// Router-wide counters (monotonic; the chaos scheduler keys off
/// `events`).
#[derive(Default)]
struct RouterStats {
    /// Fresh events accepted into session buffers (replays not counted).
    events: AtomicU64,
    /// Sessions whose terminal frame (SUMMARY or ERROR) was produced.
    sessions: AtomicU64,
    /// Backend incarnation changes forced by backend death.
    failovers: AtomicU64,
    /// Successful client resumes.
    resumes: AtomicU64,
    /// Fresh sessions refused with BUSY by the admission controller.
    shed: AtomicU64,
    /// Currently live (admitted, not yet finished) connections.
    live: AtomicU64,
}

/// The router's exposition: its own routing counters, backend liveness,
/// and (spawn mode) each live backend's fleet counters labeled
/// `backend="<slot>"` — one scrape covers the whole fleet.
fn router_samples(pool: &BackendPool, stats: &RouterStats, gauges: &JournalGauges) -> Vec<Sample> {
    let mut out = vec![
        Sample::new(
            "fireguard_router_events_total",
            stats.events.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_sessions_total",
            stats.sessions.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_failovers_total",
            stats.failovers.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_resumes_total",
            stats.resumes.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_kills_total",
            pool.kills.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_journal_bytes",
            gauges.bytes.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_events_spilled_total",
            gauges.spilled_events.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_sessions_shed_total",
            stats.shed.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_live_sessions",
            stats.live.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_lock_poison_total",
            LOCK_POISONS.load(Ordering::Relaxed),
        ),
    ];
    let mut up = 0u64;
    for slot in 0..pool.len() {
        // Clone the counters handle under the slot lock, sample unlocked.
        let (state, counters) = {
            let sl = pool.lock_slot(slot);
            (
                sl.state,
                sl.handle.as_ref().map(|h| Arc::clone(h.counters())),
            )
        };
        if state == SlotState::Up {
            up += 1;
        }
        if let Some(c) = counters {
            let slot_label = slot.to_string();
            out.extend(
                fleet_samples(&c)
                    .into_iter()
                    .map(|s| s.label("backend", &slot_label)),
            );
        }
    }
    out.push(Sample::new("fireguard_router_backends_up", up));
    out
}

// ---- handle ----------------------------------------------------------------

/// A running router: accept loop, health checker, per-session drivers,
/// and the backend pool. Obtained from [`route`].
pub struct RouterHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<BackendPool>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Option<MetricsHandle>,
}

impl RouterHandle {
    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of backend slots.
    pub fn backends(&self) -> usize {
        self.pool.len()
    }

    /// Current backend addresses by slot (`None` while a slot is down
    /// with no address).
    pub fn backend_addrs(&self) -> Vec<Option<SocketAddr>> {
        self.pool.addrs()
    }

    /// Fresh events accepted into session buffers so far — the monotonic
    /// progress clock the chaos kill schedule is keyed to.
    pub fn events_forwarded(&self) -> u64 {
        self.shared.stats.events.load(Ordering::Relaxed)
    }

    /// Sessions that reached a terminal frame.
    pub fn sessions_completed(&self) -> u64 {
        self.shared.stats.sessions.load(Ordering::Relaxed)
    }

    /// Backend failovers performed.
    pub fn failovers(&self) -> u64 {
        self.shared.stats.failovers.load(Ordering::Relaxed)
    }

    /// Client resumes served.
    pub fn resumes(&self) -> u64 {
        self.shared.stats.resumes.load(Ordering::Relaxed)
    }

    /// Backends abruptly killed via [`kill_backend`](Self::kill_backend).
    pub fn kills(&self) -> u64 {
        self.pool.kills.load(Ordering::Relaxed)
    }

    /// Fresh sessions refused with a BUSY frame by the admission
    /// controller.
    pub fn sessions_shed(&self) -> u64 {
        self.shared.stats.shed.load(Ordering::Relaxed)
    }

    /// Bytes currently spilled to session journals on disk.
    pub fn journal_bytes(&self) -> u64 {
        self.shared.gauges.bytes.load(Ordering::Relaxed)
    }

    /// Events spilled from RAM tails to journal files since startup —
    /// nonzero proves the bounded-memory path actually engaged.
    pub fn events_spilled(&self) -> u64 {
        self.shared.gauges.spilled_events.load(Ordering::Relaxed)
    }

    /// The bound metrics endpoint address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsHandle::local_addr)
    }

    /// Abruptly kills the backend in `slot` (spawn mode), severing its
    /// in-flight sessions; the health checker respawns it. Returns
    /// whether a live backend was actually killed.
    pub fn kill_backend(&self, slot: usize) -> bool {
        slot < self.pool.len() && self.pool.kill(slot)
    }

    /// Marks `slot` as draining: in-flight sessions finish, new sessions
    /// route around it. Returns whether the slot was Up.
    pub fn drain_backend(&self, slot: usize) -> bool {
        slot < self.pool.len()
            && self
                .pool
                .set_state(slot, SlotState::Up, SlotState::Draining)
    }

    /// Returns a draining slot to service.
    pub fn restore_backend(&self, slot: usize) -> bool {
        slot < self.pool.len()
            && self
                .pool
                .set_state(slot, SlotState::Draining, SlotState::Up)
    }

    /// Blocks until the accept budget is spent and every connection
    /// drains, then tears the fleet down.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let conn = lock_recover(&self.conns).pop();
            match conn {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        if let Some(m) = self.metrics.take() {
            m.shutdown();
        }
        self.pool.shutdown();
    }

    /// Stops the router within a bound: no new connections, every live
    /// client socket is severed, and each driver exits — a ticketed
    /// session parks with its journal intact, so a later router can
    /// resume it. Then tears the fleet down.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop registers each socket before its driver starts,
        // so once it has exited the severing below reaches every one.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        sever_live(&self.shared.live);
        self.join();
    }
}

/// Shared router state every connection handler needs, bundled once so
/// the accept loop hands each driver a single `Arc`.
struct Shared {
    pool: Arc<BackendPool>,
    /// Set by [`RouterHandle::shutdown`] (and at the end of `join`):
    /// drivers stop waiting on backends and ghosts park.
    stop: Arc<AtomicBool>,
    /// Every connected client socket, so shutdown can sever them.
    live: LiveSessions,
    table: SessionTable,
    stats: RouterStats,
    gauges: JournalGauges,
    anon_ids: AtomicU64,
    drop_after: Option<u64>,
    trace: Option<Arc<TraceSink>>,
    idle_timeout: Duration,
    ghost_linger: Duration,
    max_live_sessions: Option<u64>,
    max_buffered_bytes: Option<u64>,
    journal_dir: Option<PathBuf>,
    journal_tail: usize,
}

impl Shared {
    fn new(opts: &RouterOptions, pool: Arc<BackendPool>) -> Self {
        Shared {
            pool,
            stop: Arc::new(AtomicBool::new(false)),
            live: LiveSessions::default(),
            table: SessionTable::default(),
            stats: RouterStats::default(),
            gauges: JournalGauges::default(),
            anon_ids: AtomicU64::new(0),
            drop_after: opts.drop_client_after_acks,
            trace: opts.trace.clone(),
            idle_timeout: opts.idle_timeout.max(Duration::from_millis(10)),
            ghost_linger: opts.ghost_linger.max(Duration::from_millis(10)),
            max_live_sessions: opts.max_live_sessions,
            max_buffered_bytes: opts.max_buffered_bytes,
            journal_dir: opts.journal_dir.clone(),
            journal_tail: opts.journal_tail,
        }
    }

    /// Emits span `name` when tracing is on; `fields` is built only then.
    fn span(
        &self,
        name: &'static str,
        key: Option<u64>,
        fields: impl FnOnce() -> Vec<(&'static str, FieldVal)>,
    ) {
        if let Some(t) = &self.trace {
            t.emit(name, key, fields());
        }
    }

    /// Opens the journal for a new session (`name` keys the durable
    /// files, so ticketed sessions use their id and anonymous sessions a
    /// non-numeric label recovery skips).
    fn open_journal(&self, name: &str) -> std::io::Result<Journal> {
        Journal::open(
            name,
            self.journal_tail,
            self.journal_dir.as_deref(),
            self.gauges.clone(),
        )
    }
}

/// Binds the router and spawns its accept loop, health checker, and
/// backend fleet.
///
/// # Errors
///
/// Propagates bind/spawn/resolve failures, and journal-directory scan
/// failures when `resume_journals` is set.
pub fn route(opts: RouterOptions) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let pool = Arc::new(BackendPool::build(&opts)?);
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::new(Shared::new(&opts, Arc::clone(&pool)));
    let stop = Arc::clone(&shared.stop);

    // Crash recovery: rebuild the session table from the journals a
    // previous router process left in the durable directory. Each
    // recovered session sits unattached until its client resumes; the
    // resume ACK tells the client where the recovered prefix ends.
    if opts.resume_journals {
        if let Some(dir) = &shared.journal_dir {
            if dir.is_dir() {
                for r in recover_journals(dir, shared.journal_tail, &shared.gauges)? {
                    shared.span("router.recover", Some(mix(r.id)), || {
                        vec![
                            ("events", r.journal.len().into()),
                            ("alarms", (r.alarms.len() as u64).into()),
                        ]
                    });
                    let buf = SessionBuf {
                        hello: r.hello,
                        journal: r.journal,
                        ended: r.ended,
                        alarms: r.alarms,
                        summary: r.summary,
                        error: r.error,
                        attached: false,
                        takeover: false,
                    };
                    lock_recover(&shared.table.map).insert(r.id, Arc::new(Mutex::new(buf)));
                }
            }
        }
    }

    let metrics = match &opts.metrics_addr {
        Some(addr) => {
            let shared = Arc::clone(&shared);
            Some(serve_metrics(
                addr,
                Arc::new(move || router_samples(&shared.pool, &shared.stats, &shared.gauges)),
            )?)
        }
        None => None,
    };

    let health = {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        let every = opts.health_every;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for slot in 0..pool.len() {
                    let (state, addr, generation) = {
                        let sl = pool.lock_slot(slot);
                        (sl.state, sl.addr, sl.generation)
                    };
                    match state {
                        SlotState::Down => {
                            pool.revive(slot);
                        }
                        SlotState::Up | SlotState::Draining => {
                            if let Some(addr) = addr {
                                // A connect probe: cheap, and decisive
                                // for a killed backend whose listener is
                                // gone.
                                match TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                                {
                                    Ok(s) => drop(s),
                                    Err(_) => pool.mark_down(slot, generation),
                                }
                            }
                        }
                    }
                }
                std::thread::sleep(every);
            }
        })
    };

    let accept = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        let max = opts.max_sessions;
        std::thread::spawn(move || {
            let mut accepted = 0u64;
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(max) = max {
                    if accepted >= max {
                        break;
                    }
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        accepted += 1;
                        let id = accepted;
                        if let Ok(dup) = stream.try_clone() {
                            lock_recover(&shared.live).insert(id, dup);
                        }
                        let shared = Arc::clone(&shared);
                        let h = std::thread::spawn(move || {
                            // A panicking driver must not take the router
                            // down (locks it held recover via
                            // lock_recover); log and count the event.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handle_conn(stream, &shared)
                                }));
                            lock_recover(&shared.live).remove(&id);
                            if caught.is_err() {
                                shared.span("router.panic", None, || vec![("driver", 1u64.into())]);
                            }
                        });
                        lock_recover(&conns).push(h);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };

    Ok(RouterHandle {
        local_addr,
        stop,
        pool,
        shared,
        accept: Some(accept),
        health: Some(health),
        conns,
        metrics,
    })
}

// ---- per-connection driver -------------------------------------------------

enum Msg {
    /// A frame from the client.
    Client(u8, Vec<u8>),
    /// The client transport ended cleanly (EOF or read timeout).
    ClientGone,
    /// The client leg produced undecodable bytes (torn frame, oversized
    /// header, checksum mismatch) — wire damage, not a clean close.
    ClientBad(String),
    /// A frame from backend incarnation `inc`.
    Backend(u64, u8, Vec<u8>),
    /// Backend incarnation `inc`'s transport ended.
    BackendGone(u64),
    /// Nothing arrived within the driver's wait budget.
    Idle,
}

fn send_client<W: Write>(w: &mut FrameWriter<W>, tag: u8, payload: &[u8]) -> bool {
    w.write(tag, payload).and_then(|()| w.flush()).is_ok()
}

fn client_error<W: Write>(w: &mut FrameWriter<W>, msg: &str) {
    let _ = w.write(ERROR, msg.as_bytes());
    let _ = w.flush();
}

/// RAII live-connection counter: admission control compares against it,
/// and it must decrement on *every* exit path, including panics.
struct LiveGuard<'a>(&'a AtomicU64);

impl<'a> LiveGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> (Self, u64) {
        let live = counter.fetch_add(1, Ordering::Relaxed) + 1;
        (LiveGuard(counter), live)
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The admission controller's verdict for a *fresh* session (resumes are
/// always admitted — a session the router accepted is never orphaned by
/// its own overload policy). `live` includes the connection asking.
fn admit_fresh(shared: &Shared, live: u64) -> Result<(), String> {
    if let Some(max) = shared.max_live_sessions {
        if live > max {
            return Err(format!("router busy: {live} live sessions (max {max})"));
        }
    }
    if let Some(max) = shared.max_buffered_bytes {
        let buffered = shared.gauges.bytes.load(Ordering::Relaxed);
        if buffered > max {
            return Err(format!(
                "router busy: {buffered} journal bytes buffered (max {max})"
            ));
        }
    }
    Ok(())
}

fn shed(shared: &Shared, writer: &mut FrameWriter<BufWriter<TcpStream>>, reason: &str) {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    shared.span("router.shed", None, || vec![("reason", reason.into())]);
    let _ = writer.write(BUSY, reason.as_bytes());
    let _ = writer.flush();
}

/// Drives one client connection end to end. Runs on its own thread; all
/// failure modes end in a best-effort ERROR (or BUSY) frame, never a
/// panic.
fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let mut reader = match stream.try_clone() {
        Ok(s) => FrameReader::new(BufReader::new(s), false),
        Err(_) => return,
    };
    let mut writer = match stream.try_clone() {
        Ok(s) => FrameWriter::new(BufWriter::new(s), false),
        Err(_) => return,
    };
    let (_live, live_now) = LiveGuard::enter(&shared.stats.live);

    // Frame 1: SESSION (ticketed, resumable) or HELLO (anonymous
    // passthrough — byte-transparent for existing clients). The
    // handshake frames always travel plain; once the HELLO's capability
    // bits are known, both directions switch to the negotiated framing.
    let (key, session, ticketed, resume_from) = match reader.read() {
        Ok(Some((SESSION, payload))) => {
            let ticket = match SessionTicket::decode(&payload) {
                Ok(t) => t,
                Err(e) => return client_error(&mut writer, &format!("bad SESSION ticket: {e}")),
            };
            if ticket.resume {
                match attach_resume(&shared.table, ticket.id) {
                    Ok(session) => (mix(ticket.id), session, true, Some(ticket.alarms_received)),
                    Err(msg) => return client_error(&mut writer, &msg),
                }
            } else {
                if let Err(reason) = admit_fresh(shared, live_now) {
                    return shed(shared, &mut writer, &reason);
                }
                // Frame 2 must be the HELLO for the new session.
                let hello = match reader.read() {
                    Ok(Some((HELLO, p))) => p,
                    Ok(Some((tag, _))) => {
                        return client_error(
                            &mut writer,
                            &format!("expected HELLO after SESSION, got frame tag {tag}"),
                        );
                    }
                    Ok(None) => return,
                    Err(e) => return client_error(&mut writer, &format!("bad frame: {e}")),
                };
                let mut journal = match shared.open_journal(&ticket.id.to_string()) {
                    Ok(j) => j,
                    Err(e) => return client_error(&mut writer, &format!("session journal: {e}")),
                };
                let _ = journal.record_hello(&hello);
                let session = Arc::new(Mutex::new(SessionBuf::fresh(hello, journal)));
                {
                    let mut map = lock_recover(&shared.table.map);
                    if map.contains_key(&ticket.id) {
                        drop(map);
                        return client_error(
                            &mut writer,
                            &format!("session id {} already registered", ticket.id),
                        );
                    }
                    map.insert(ticket.id, Arc::clone(&session));
                }
                (mix(ticket.id), session, true, None)
            }
        }
        Ok(Some((HELLO, hello))) => {
            // Anonymous: no ticket, no ACKs, no resume — pure transparent
            // routing (still gets buffered-replay failover for free). The
            // journal is always ephemeral: with no ticket there is nothing
            // a post-crash router could hand back.
            if let Err(reason) = admit_fresh(shared, live_now) {
                return shed(shared, &mut writer, &reason);
            }
            let id = shared.anon_ids.fetch_add(1, Ordering::Relaxed);
            let journal = match Journal::open(
                &format!("anon-{id}"),
                shared.journal_tail,
                None,
                shared.gauges.clone(),
            ) {
                Ok(j) => j,
                Err(e) => return client_error(&mut writer, &format!("session journal: {e}")),
            };
            let session = Arc::new(Mutex::new(SessionBuf::fresh(hello, journal)));
            (mix(0x0A0A_0A0A ^ id), session, false, None)
        }
        Ok(Some((tag, _))) => {
            return client_error(&mut writer, &format!("expected HELLO, got frame tag {tag}"));
        }
        Ok(None) => return,
        Err(e) => return client_error(&mut writer, &format!("bad first frame: {e}")),
    };

    // Both legs of a session speak the framing its HELLO negotiated —
    // resumes included (the stored HELLO remembers).
    let checked = {
        let s = lock_session(&session);
        hello_caps(&s.hello) & CAP_FRAME_CHECKSUM != 0
    };
    reader.set_checked(checked);
    writer.set_checked(checked);

    let d = Driver::new(shared, session, key, ticketed, checked);
    run_driver(d, stream, reader, writer, resume_from);
}

/// Attaches to an existing session for resume, asking a ghost driver to
/// let go if one still owns it.
fn attach_resume(table: &SessionTable, id: u64) -> Result<SessionRef, String> {
    let session = {
        let map = lock_recover(&table.map);
        match map.get(&id) {
            Some(s) => Arc::clone(s),
            None => return Err(format!("unknown session id {id}")),
        }
    };
    let deadline = Instant::now() + ATTACH_PATIENCE;
    loop {
        {
            let mut s = lock_session(&session);
            if !s.attached {
                s.attached = true;
                s.takeover = false;
                drop(s);
                return Ok(session);
            }
            s.takeover = true;
        }
        if Instant::now() >= deadline {
            return Err(format!("session busy: id {id} still attached"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn detach(session: &SessionRef) {
    lock_session(session).attached = false;
}

// ---- session driver: the state machine -------------------------------------

/// A connection leg as the driver writes it: a frame sink that can also
/// be shut mid-session — the backend leg half-closes once the backend
/// has said its verdict, and the `drop_client_after_acks` fault
/// injection cuts the client leg.
trait Leg: Write {
    fn shut(&self, how: Shutdown);
}

impl Leg for BufWriter<TcpStream> {
    fn shut(&self, how: Shutdown) {
        let _ = self.get_ref().shutdown(how);
    }
}

/// What the socket shell does after one [`Driver`] transition.
#[derive(Debug, PartialEq)]
enum Next {
    /// Keep pumping the inbox.
    Continue,
    /// The client leg is damaged and the driver went ghost: sever the leg
    /// quietly (the client resumes from its last ACK) and keep driving
    /// the backend. Carries the fault for the `router.client_fault` span.
    Ghost(String),
    /// The backend leg failed: release this incarnation and replay the
    /// journal to a fresh one. Carries the cause for the
    /// `router.failover` span.
    Failover(&'static str),
    /// The session leaves this driver.
    End(End),
}

/// How a session leaves its driver. The shell's teardown matches on this
/// in exactly one place.
#[derive(Debug, PartialEq)]
enum End {
    /// The verdict is out: half-close the client leg, drain it for the
    /// terminal ACK, and forget the session only if that ACK arrived.
    Finished,
    /// Trouble that proves nothing about the session: sever the client
    /// quietly, keep journal and table entry for the next resume.
    Park(&'static str),
    /// Unrecoverable: record the error verdict, send it to a live client,
    /// forget the session.
    Fatal(String),
    /// Let go and keep the table entry: a resuming connection takes the
    /// session over.
    HandOver,
    /// The client left a session that needs nothing more from it: let go
    /// and forget it.
    Detached,
}

/// One session's driver: pumps client frames into the session journal
/// and backend frames out to the client across backend incarnations.
/// [`Driver::on`] is its one transition function and touches no socket
/// (ARCHITECTURE.md, "Session driver", has the diagram):
///
/// ```text
/// Live   client-leg fault or hangup, ticketed   → Ghost (keeps driving the backend)
/// Live   client-leg fault, anonymous            → End::Fatal
/// Live   hangup, anonymous or verdict out       → End::Detached
/// Live   idle wedge                             → End::Park | End::Fatal
/// any    backend leg fails                      → Failover (replay, same state)
/// any    backend closes after the verdict       → End::Finished
/// Ghost  takeover by a resume                   → End::HandOver
/// Ghost  linger spent, router shutdown          → End::Park
/// ```
struct Driver<'a> {
    shared: &'a Shared,
    session: SessionRef,
    /// Consistent-hash key; also keys the driver's spans.
    key: u64,
    /// Ticketed sessions can resume, anonymous ones cannot: the two
    /// router columns of the fault matrix.
    ticketed: bool,
    /// Both legs speak the checked framing the HELLO negotiated.
    checked: bool,
    /// When the client leg died; `None` while it lives. A ghost keeps
    /// driving the backend so already-streamed events still yield their
    /// detections, until a resume takes over, `ghost_linger` runs out,
    /// or the router stops.
    ghost_since: Option<Instant>,
    /// ACKs sent on this connection (the fault injection counts them).
    acks_sent: u64,
    /// The client confirmed the verdict arrived (terminal ACK). A
    /// successful SUMMARY write through a faulting wire proves nothing;
    /// only this flag (or the same frame surfacing in the teardown's
    /// drain) lets a finished ticketed session be forgotten.
    verdict_acked: bool,
    /// Client-leg decoder and backend-leg encoder: codec state is per
    /// connection, so the encoder restarts with every incarnation.
    dec: EventDecoder,
    enc: EventEncoder,
    /// Backend incarnation; frames from older ones are stale.
    inc: u64,
    /// Failovers since the last decoded backend frame.
    failovers: u32,
    /// Alarms this incarnation has reported; the first `alarms.len()` of
    /// them are deterministic repeats of the log.
    seen: u64,
    /// A SUMMARY is held back until the backend closes cleanly: a summary
    /// chased by a retryable stream error is a *partial* result from a
    /// damaged backend leg and must never reach the client — failover
    /// replays and produces the real one.
    pending_summary: Option<Vec<u8>>,
    /// END already went to this incarnation.
    end_sent: bool,
}

impl<'a> Driver<'a> {
    fn new(
        shared: &'a Shared,
        session: SessionRef,
        key: u64,
        ticketed: bool,
        checked: bool,
    ) -> Self {
        Driver {
            shared,
            session,
            key,
            ticketed,
            checked,
            ghost_since: None,
            acks_sent: 0,
            verdict_acked: false,
            dec: EventDecoder::new(),
            enc: EventEncoder::new(),
            inc: 0,
            failovers: 0,
            seen: 0,
            pending_summary: None,
            end_sent: false,
        }
    }

    fn client_alive(&self) -> bool {
        self.ghost_since.is_none()
    }

    fn go_ghost(&mut self) {
        self.ghost_since.get_or_insert_with(Instant::now);
    }

    fn done(&self) -> bool {
        lock_session(&self.session).done()
    }

    fn buffered(&self) -> u64 {
        lock_session(&self.session).journal.len()
    }

    fn span(&self, name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, FieldVal)>) {
        self.shared.span(name, Some(self.key), fields);
    }

    /// How long the shell waits on the inbox before feeding [`Msg::Idle`]:
    /// twice the per-read idle budget while the client lives (both legs
    /// must be silent that long before the session counts as wedged), a
    /// short tick while a ghost re-checks takeover and linger.
    fn wait(&self) -> Duration {
        if self.client_alive() {
            self.shared.idle_timeout * 2
        } else {
            Duration::from_millis(25)
        }
    }

    /// Sends one frame to a live client; a failed write loses the client.
    fn tell_client<C: Leg>(&mut self, client: &mut FrameWriter<C>, tag: u8, payload: &[u8]) {
        if self.client_alive() && !send_client(client, tag, payload) {
            self.go_ghost();
        }
    }

    /// Fault matrix, infrastructure rows (no routable backend, failover
    /// budget spent, idle wedge): a sick fleet moment proves nothing about
    /// a ticketed session, whose journal is intact, so it parks until the
    /// next resume; an anonymous session cannot resume and fails with
    /// `msg`.
    fn infra_fault(&self, reason: &'static str, msg: &str) -> End {
        if self.ticketed {
            End::Park(reason)
        } else {
            End::Fatal(msg.to_owned())
        }
    }

    /// Fault matrix, client-leg rows (undecodable EVENTS, seq gap,
    /// unexpected tag, wire damage): the damage proves nothing about who
    /// lied, so a ticketed session goes ghost and its client resumes; an
    /// anonymous one fails with `{prefix}{detail}`.
    fn client_fault(&mut self, detail: String, prefix: &str) -> Next {
        if !self.ticketed {
            return Next::End(End::Fatal(format!("{prefix}{detail}")));
        }
        self.go_ghost();
        Next::Ghost(detail)
    }

    /// Backend-leg damage: the deterministic engines re-raise everything
    /// on replay, so log it and fail over.
    fn backend_fault(&self, error: String, reason: &'static str) -> Next {
        self.span("router.backend_fault", || vec![("error", error.into())]);
        Next::Failover(reason)
    }

    /// The resume preamble: ACK where the replay starts and re-deliver the
    /// alarm tail the client missed. `Some` when the connection ends here:
    /// the preamble write failed, or the session finished while the client
    /// was away and its stored verdict was re-sent from the buffer.
    fn resume<C: Leg>(&mut self, alarms_received: u64, client: &mut FrameWriter<C>) -> Option<End> {
        self.shared.stats.resumes.fetch_add(1, Ordering::Relaxed);
        self.span("router.resume", || {
            vec![("alarms_received", alarms_received.into())]
        });
        let (ack, tail, verdict) = {
            let s = lock_session(&self.session);
            let from = (alarms_received as usize).min(s.alarms.len());
            (
                proto::encode_ack(s.journal.len()),
                s.alarms[from..].to_vec(),
                s.done().then(|| (s.summary.clone(), s.error.clone())),
            )
        };
        let mut ok = send_client(client, ACK, &ack);
        if ok && !tail.is_empty() {
            ok = send_client(client, ALARMS, &proto::encode_alarms(&tail));
        }
        if !ok {
            return Some(End::HandOver);
        }
        let (summary, error) = verdict?;
        for (tag, payload) in [(SUMMARY, summary), (ERROR, error)] {
            if let Some(p) = payload {
                self.tell_client(client, tag, &p);
            }
        }
        Some(End::Finished)
    }

    /// Starts the next backend incarnation with fresh per-incarnation
    /// state; returns the number the shell tags its inbox messages with.
    fn incarnate(&mut self) -> u64 {
        self.inc += 1;
        self.enc = EventEncoder::new();
        self.end_sent = false;
        self.seen = 0;
        self.pending_summary = None;
        self.inc
    }

    /// Replays the journaled prefix to a fresh incarnation. The HELLO is
    /// plain — checked framing starts after it, per the handshake
    /// contract — and spilled batches are decoded from disk and
    /// re-encoded so the backend sees one continuous delta stream.
    fn replay<B: Leg>(&mut self, backend: &mut FrameWriter<B>) -> Next {
        let mut s = lock_session(&self.session);
        let mut ok = backend.write(HELLO, &s.hello).is_ok();
        backend.set_checked(self.checked);
        if ok {
            let enc = &mut self.enc;
            ok = s
                .journal
                .replay(|chunk| {
                    for part in chunk.chunks(REPLAY_BATCH) {
                        backend.write(EVENTS, &enc.encode_batch(part))?;
                    }
                    Ok(())
                })
                .is_ok();
        }
        if ok && s.ended {
            ok = backend.write(END, &[]).is_ok();
            self.end_sent = true;
        }
        if ok && backend.flush().is_ok() {
            Next::Continue
        } else {
            Next::Failover("replay failed")
        }
    }

    /// The transition function: one inbox message in, one [`Next`] out.
    /// Frames go to the two legs; the shell performs what `Next` names.
    fn on<C: Leg, B: Leg>(
        &mut self,
        msg: Msg,
        client: &mut FrameWriter<C>,
        backend: &mut FrameWriter<B>,
    ) -> Next {
        if let Some(since) = self.ghost_since {
            // A ghost yields to a resuming connection as soon as one asks;
            // past `ghost_linger`, or at router shutdown, it parks: the
            // backend is released, the journaled state stays for a resume.
            if lock_session(&self.session).takeover {
                return Next::End(End::HandOver);
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                return Next::End(End::Park("router shutdown"));
            }
            if since.elapsed() >= self.shared.ghost_linger {
                return Next::End(End::Park("ghost linger"));
            }
            // Frames from a severed client leg are untrustworthy; drop
            // them and let the resume re-deliver.
            if matches!(
                msg,
                Msg::Idle | Msg::Client(..) | Msg::ClientBad(_) | Msg::ClientGone
            ) {
                return Next::Continue;
            }
        }
        match msg {
            // Neither client nor backend frames for the full budget: the
            // session is wedged (a resume un-wedges both legs).
            Msg::Idle => Next::End(
                self.infra_fault("router session idle timeout", "router session idle timeout"),
            ),
            Msg::Client(EVENTS, payload) => self.on_events(&payload, client, backend),
            Msg::Client(END, _) => {
                {
                    let mut s = lock_session(&self.session);
                    s.ended = true;
                    let _ = s.journal.record_ended();
                }
                if self.end_sent {
                    return Next::Continue;
                }
                self.end_sent = true;
                match backend.write(END, &[]).and_then(|()| backend.flush()) {
                    Ok(()) => Next::Continue,
                    Err(_) => Next::Failover("backend write failed"),
                }
            }
            Msg::Client(ACK, _) => {
                // The client's terminal delivery ACK — the verdict made it
                // across the wire. (Early or duplicated ACKs are harmless:
                // the flag only matters once the session is done.)
                self.verdict_acked = true;
                Next::Continue
            }
            // An impossible tag on a negotiated connection is wire damage.
            Msg::Client(tag, _) => self.client_fault(format!("unexpected frame tag {tag}"), ""),
            // A finished ticketed session: trailing garbage is
            // indistinguishable from a hangup, and a finished journal must
            // never grow an error record.
            Msg::ClientBad(_) if self.ticketed && self.done() => Next::End(End::Detached),
            Msg::ClientBad(e) => self.client_fault(e, "bad frame: "),
            Msg::ClientGone => {
                // Anonymous sessions cannot resume; done sessions need
                // nothing more from a client.
                if !self.ticketed || self.done() {
                    return Next::End(End::Detached);
                }
                self.go_ghost();
                self.span("router.ghost", || {
                    vec![("events_buffered", self.buffered().into())]
                });
                Next::Continue
            }
            Msg::Backend(i, ..) | Msg::BackendGone(i) if i != self.inc => Next::Continue,
            Msg::Backend(_, ALARMS, payload) => self.on_alarms(&payload, client),
            Msg::Backend(_, SUMMARY, payload) => {
                self.failovers = 0;
                self.pending_summary = Some(payload);
                // The backend is draining toward close; shut our write side
                // so its drain sees EOF *now* instead of waiting out its
                // read timeout. A trailing ERROR (if any) was written before
                // the drain began and still arrives.
                backend.get_mut().shut(Shutdown::Write);
                Next::Continue
            }
            Msg::Backend(_, ERROR, payload) => self.on_backend_error(payload, client, backend),
            Msg::Backend(_, tag, _) => self.backend_fault(
                format!("unexpected frame tag {tag}"),
                "unexpected backend frame",
            ),
            Msg::BackendGone(_) => {
                // A clean close commits the held summary: the backend said
                // everything it meant to. Without a verdict it died
                // mid-session: fail over and replay.
                self.commit_summary(client);
                if self.done() {
                    Next::End(End::Finished)
                } else {
                    Next::Failover("backend gone")
                }
            }
        }
    }

    fn on_events<C: Leg, B: Leg>(
        &mut self,
        payload: &[u8],
        client: &mut FrameWriter<C>,
        backend: &mut FrameWriter<B>,
    ) -> Next {
        let batch = match self.dec.decode_batch(payload) {
            Ok(b) => b,
            Err(e) => return self.client_fault(e.to_string(), "bad EVENTS frame: "),
        };
        // Append fresh events; silently drop the resume overlap (seqs
        // already journaled). A gap means the wire dropped something.
        let mut fresh: Vec<TraceInst> = Vec::new();
        let mut gap = None;
        {
            let mut s = lock_session(&self.session);
            for t in batch {
                let n = s.journal.len();
                if t.seq < n {
                    continue;
                }
                if t.seq > n {
                    gap = Some((t.seq, n));
                    break;
                }
                if let Err(e) = s.journal.push(t) {
                    return Next::End(End::Fatal(format!("session journal write failed: {e}")));
                }
                fresh.push(t);
            }
        }
        let mut next = Next::Continue;
        if let Some((got, want)) = gap {
            next = self.client_fault(format!("event seq gap: got {got}, expected {want}"), "");
            if matches!(next, Next::End(_)) {
                return next;
            }
        }
        if !fresh.is_empty() {
            self.shared
                .stats
                .events
                .fetch_add(fresh.len() as u64, Ordering::Relaxed);
            let sent = backend
                .write(EVENTS, &self.enc.encode_batch(&fresh))
                .and_then(|()| backend.flush());
            // After a gap the ghost transition wins: a failed write means
            // the backend connection is dead, so its reader reports
            // BackendGone next and the failover follows from there.
            if sent.is_err() && next == Next::Continue {
                return Next::Failover("backend write failed");
            }
        }
        if self.ticketed && self.client_alive() {
            let buffered = self.buffered();
            if send_client(client, ACK, &proto::encode_ack(buffered)) {
                self.acks_sent += 1;
                if self.shared.drop_after == Some(self.acks_sent) {
                    // Fault injection: sever the client link abruptly; the
                    // session state survives for resume.
                    client.get_mut().shut(Shutdown::Both);
                }
            } else {
                self.go_ghost();
            }
        }
        next
    }

    fn on_alarms<C: Leg>(&mut self, payload: &[u8], client: &mut FrameWriter<C>) -> Next {
        let ds = match proto::decode_alarms(payload) {
            Ok(d) => d,
            Err(e) => return self.backend_fault(format!("bad ALARMS: {e}"), "bad ALARMS"),
        };
        // A decoded ALARMS frame is a live round-trip: this incarnation
        // connected, replayed, and spoke protocol. Reset the failover
        // budget so it bounds consecutive *silent* failovers (a hot loop),
        // not total failovers over a long session's lifetime.
        self.failovers = 0;
        // Deduplicate across failovers: analysis is deterministic, so a
        // replayed incarnation re-raises the logged prefix bit-identically;
        // only the tail past the log is new. Fresh alarms hit the durable
        // index *before* they are released to the client, so a post-crash
        // recovery never re-raises a delivered alarm out of order.
        let mut fresh: Vec<Detection> = Vec::new();
        {
            let mut s = lock_session(&self.session);
            for d in ds {
                self.seen += 1;
                if self.seen > s.alarms.len() as u64 {
                    s.alarms.push(d);
                    fresh.push(d);
                }
            }
            if !fresh.is_empty() {
                let _ = s.journal.record_alarms(&fresh);
            }
        }
        if !fresh.is_empty() && self.client_alive() {
            self.tell_client(client, ALARMS, &proto::encode_alarms(&fresh));
        }
        Next::Continue
    }

    fn on_backend_error<C: Leg, B: Leg>(
        &mut self,
        payload: Vec<u8>,
        client: &mut FrameWriter<C>,
        backend: &mut FrameWriter<B>,
    ) -> Next {
        if payload.starts_with(RETRYABLE_ERROR_PREFIX.as_bytes()) {
            // The backend saw transport damage on our leg (corruption,
            // truncation, a dropped frame). Its summary — if any — is
            // partial: discard it and fail over; the replay heals.
            let error = String::from_utf8_lossy(&payload).into_owned();
            return self.backend_fault(error, "retryable backend error");
        }
        // Terminal error: commit the pending summary first (short-stream
        // sessions send SUMMARY then ERROR), then the error itself.
        self.commit_summary(client);
        let had_summary = {
            let mut s = lock_session(&self.session);
            let had = s.summary.is_some();
            s.set_error(payload.clone());
            had
        };
        if !had_summary {
            self.shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
        }
        self.tell_client(client, ERROR, &payload);
        backend.get_mut().shut(Shutdown::Write);
        Next::Continue
    }

    fn commit_summary<C: Leg>(&mut self, client: &mut FrameWriter<C>) {
        if let Some(p) = self.pending_summary.take() {
            lock_session(&self.session).set_summary(p.clone());
            self.shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
            self.tell_client(client, SUMMARY, &p);
        }
    }

    /// Counts the failover the shell just performed on `slot`. Decoded
    /// backend frames reset the count, so the budget bounds consecutive
    /// silent failovers (a connect/replay hot loop); past it the session
    /// leaves by the fault matrix's infrastructure row.
    fn failed_over(&mut self, slot: usize, reason: &'static str) -> Option<End> {
        self.shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
        self.failovers += 1;
        self.span("router.failover", || {
            vec![
                ("slot", (slot as u64).into()),
                ("nth", u64::from(self.failovers).into()),
                ("reason", reason.into()),
            ]
        });
        (self.failovers > MAX_FAILOVERS).then(|| {
            self.infra_fault(
                "failover budget exhausted",
                "session failed over too many times",
            )
        })
    }

    /// The session half of the teardown for `end` — verdict record, ERROR
    /// frame, park span, table entry, ownership. The shell wraps the
    /// socket half around it.
    fn settle<C: Leg>(&mut self, end: &End, client: &mut FrameWriter<C>) {
        let shared = self.shared;
        match end {
            End::Finished | End::HandOver => {}
            End::Park(reason) => {
                self.span("router.park", || {
                    vec![
                        ("reason", (*reason).into()),
                        ("events_buffered", self.buffered().into()),
                    ]
                });
            }
            End::Fatal(msg) => {
                let first = {
                    let mut s = lock_session(&self.session);
                    let first = !s.done();
                    if s.error.is_none() {
                        s.set_error(msg.as_bytes().to_vec());
                    }
                    first
                };
                if first {
                    shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
                }
                if self.client_alive() {
                    client_error(client, msg);
                }
                shared.table.forget(&self.session);
            }
            End::Detached => {
                if self.ticketed {
                    shared.table.forget(&self.session);
                }
            }
        }
        detach(&self.session);
    }
}

// ---- session driver: the socket shell --------------------------------------

/// Runs one session's [`Driver`] over real sockets: spawns the inbox
/// readers, serves the resume preamble, routes, connects and replays each
/// backend incarnation, feeds the inbox through [`Driver::on`], and tears
/// the session down in one place.
fn run_driver(
    mut d: Driver<'_>,
    client_stream: TcpStream,
    reader: FrameReader<BufReader<TcpStream>>,
    mut client: FrameWriter<BufWriter<TcpStream>>,
    resume_from: Option<u64>,
) {
    // The driver inbox. Unbounded by design: the router buffers the
    // whole stream anyway, and a bounded inbox could deadlock the
    // driver↔backend↔reader cycle (driver blocked writing EVENTS, the
    // backend blocked writing ALARMS, the reader blocked enqueueing).
    let (tx, rx) = mpsc::channel::<Msg>();
    let client_reader = spawn_client_reader(reader, tx.clone());
    let mut backend = None;
    let end = match resume_from.and_then(|n| d.resume(n, &mut client)) {
        Some(end) => end,
        None => pump(&mut d, &tx, &rx, &client_stream, &mut client, &mut backend),
    };

    // Teardown — every session exit passes here: release the backend
    // leg, settle the session, then close the client leg and collect its
    // reader.
    if let Some(b) = backend {
        let _ = b.shutdown(Shutdown::Both);
    }
    d.settle(&end, &mut client);
    // Clean completion mirrors the backend's half-close discipline so the
    // client's final read sees EOF; the reader then drains the client's
    // remaining frames until EOF, so anything it queued — the terminal
    // ACK racing the verdict included — is in the inbox after the join.
    // A successful write only proves the frames left this process; the
    // ACK proves delivery. Without it the entry stays, so the next resume
    // collects the verdict from the buffer instead of drawing "unknown
    // session id".
    let finished = end == End::Finished;
    let _ = client_stream.shutdown(if finished {
        Shutdown::Write
    } else {
        Shutdown::Both
    });
    let _ = client_reader.join();
    if finished {
        if d.ticketed
            && (d.verdict_acked || rx.try_iter().any(|m| matches!(m, Msg::Client(ACK, _))))
        {
            d.shared.table.forget(&d.session);
        }
        let _ = client_stream.shutdown(Shutdown::Both);
    }
}

/// Drives backend incarnations until the session leaves: route and
/// connect, replay, then feed the inbox through [`Driver::on`]. A
/// failover releases the incarnation and starts the next; `backend`
/// holds the live one for the teardown.
fn pump(
    d: &mut Driver<'_>,
    tx: &mpsc::Sender<Msg>,
    rx: &mpsc::Receiver<Msg>,
    client_stream: &TcpStream,
    client: &mut FrameWriter<BufWriter<TcpStream>>,
    backend: &mut Option<TcpStream>,
) -> End {
    let shared = d.shared;
    loop {
        let (slot, generation, stream) = match connect(shared, d.key) {
            Ok(c) => c,
            Err(reason) => return d.infra_fault(reason, reason),
        };
        let inc = d.incarnate();
        let _ = stream.set_nodelay(true);
        let (Ok(raw), Ok(r)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        // This incarnation's reader — spawned BEFORE the replay so alarm
        // frames raised mid-replay drain into the inbox instead of
        // filling the socket and deadlocking the replay write.
        spawn_backend_reader(r, inc, d.checked, tx.clone());
        *backend = Some(raw);
        let mut bw = FrameWriter::new(BufWriter::new(stream), false);
        let mut next = d.replay(&mut bw);
        loop {
            match next {
                Next::Continue => {}
                Next::Ghost(error) => {
                    let _ = client_stream.shutdown(Shutdown::Both);
                    shared.span("router.client_fault", Some(d.key), || {
                        vec![("error", error.into())]
                    });
                }
                Next::Failover(reason) => {
                    if let Some(b) = backend.take() {
                        let _ = b.shutdown(Shutdown::Both);
                    }
                    shared.pool.mark_down(slot, generation);
                    shared.pool.revive(slot);
                    match d.failed_over(slot, reason) {
                        Some(end) => return end,
                        None => break,
                    }
                }
                Next::End(end) => return end,
            }
            // A timeout feeds `Idle`; the inbox never disconnects, since
            // this function holds a sender itself.
            let msg = rx.recv_timeout(d.wait()).unwrap_or(Msg::Idle);
            next = d.on(msg, client, &mut bw);
        }
    }
}

/// Routes `key` and connects, patiently: the health checker may be
/// mid-way through reviving the whole fleet. `Err` says why the session
/// cannot wait any longer.
fn connect(shared: &Shared, key: u64) -> Result<(usize, u64, TcpStream), &'static str> {
    let deadline = Instant::now() + ROUTE_PATIENCE;
    loop {
        if let Some((slot, addr, generation)) = shared.pool.route(key) {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(s) => return Ok((slot, generation, s)),
                Err(_) => {
                    shared.pool.mark_down(slot, generation);
                    shared.pool.revive(slot);
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Err("router shutdown");
        }
        if Instant::now() >= deadline {
            return Err("no live backends");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn spawn_client_reader(
    mut r: FrameReader<BufReader<TcpStream>>,
    tx: mpsc::Sender<Msg>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match r.read() {
            Ok(Some((tag, payload))) => {
                if tx.send(Msg::Client(tag, payload)).is_err() {
                    return;
                }
            }
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => {
                let _ = tx.send(Msg::ClientGone);
                return;
            }
            // Torn frame, oversized header, checksum mismatch: the client
            // leg is no longer trustworthy — but the driver must know it
            // was *damage*, not a hangup, so an anonymous session still
            // draws a clean ERROR.
            Err(e) => {
                let _ = tx.send(Msg::ClientBad(e.to_string()));
                return;
            }
        }
    })
}

fn spawn_backend_reader(stream: TcpStream, inc: u64, checked: bool, tx: mpsc::Sender<Msg>) {
    std::thread::spawn(move || {
        let mut r = FrameReader::new(BufReader::new(stream), checked);
        loop {
            match r.read() {
                Ok(Some((tag, payload))) => {
                    if tx.send(Msg::Backend(inc, tag, payload)).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(Msg::BackendGone(inc));
                    return;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests;
