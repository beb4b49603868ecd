//! The client side of a streaming session: connect, negotiate, stream a
//! pre-captured event vector, and collect the online alarms + summary.
//!
//! Sending and receiving run on separate threads (events out, frames in),
//! so a long session can never deadlock on full TCP buffers in both
//! directions: alarms are consumed while events are still being written.

use crate::proto::{
    read_frame, write_frame, FrameReader, FrameWriter, SessionConfig, SessionTicket, Summary, ACK,
    ALARMS, BUSY, CAP_FRAME_CHECKSUM, END, ERROR, EVENTS, HELLO, SESSION, SUMMARY,
};
use fireguard_soc::Detection;
use fireguard_trace::codec::EventEncoder;
use fireguard_trace::{SimRng, TraceInst};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events per EVENTS frame (amortizes framing without growing latency).
pub const DEFAULT_BATCH: usize = 512;

/// Everything a finished session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Detections streamed online (ALARMS frames), in arrival order.
    pub alarms: Vec<Detection>,
    /// The final session summary.
    pub summary: Summary,
    /// Events streamed to the server.
    pub events_sent: u64,
    /// Wall-clock duration of the whole session.
    pub wall: Duration,
}

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or transport failure.
    Io(std::io::Error),
    /// A frame that would not decode.
    Codec(fireguard_trace::codec::CodecError),
    /// The server refused or aborted the session (ERROR frame).
    Server(String),
    /// The server violated the protocol (e.g. closed before SUMMARY).
    Protocol(String),
    /// The session config failed validation before anything was sent.
    Config(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Codec(e) => write!(f, "codec error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Config(m) => write!(f, "invalid session config: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<fireguard_trace::codec::CodecError> for ClientError {
    fn from(e: fireguard_trace::codec::CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Runs one complete session against `addr`: HELLO, the full event
/// stream in `batch`-sized frames, END, then collects ALARMS until the
/// SUMMARY arrives.
///
/// # Errors
///
/// Any [`ClientError`]; an ERROR frame from the server maps to
/// [`ClientError::Server`].
pub fn run_session(
    addr: &str,
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    batch: usize,
) -> Result<SessionOutcome, ClientError> {
    // Validate-and-encode before touching the network: a config the
    // server would refuse anyway never opens a connection.
    let hello = cfg.encode().map_err(ClientError::Config)?;

    let started = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let batch = batch.max(1);
    let events_sent = events.len() as u64;
    let sender = {
        let events = Arc::clone(&events);
        let stream = stream.try_clone()?;
        std::thread::spawn(move || -> Result<(), std::io::Error> {
            let mut w = BufWriter::new(stream);
            write_frame(&mut w, HELLO, &hello)?;
            let mut enc = EventEncoder::new();
            for chunk in events.chunks(batch) {
                write_frame(&mut w, EVENTS, &enc.encode_batch(chunk))?;
            }
            write_frame(&mut w, END, &[])?;
            w.flush()
        })
    };

    let mut alarms = Vec::new();
    let mut summary = None;
    let mut server_error = None;
    loop {
        match read_frame(&mut reader)? {
            Some((ALARMS, payload)) => alarms.extend(crate::proto::decode_alarms(&payload)?),
            Some((SUMMARY, payload)) => {
                summary = Some(Summary::decode(&payload)?);
                // An ERROR frame may still follow a partial summary; poll
                // one more frame so the caller learns the session broke.
                if let Some((ERROR, msg)) = read_frame(&mut reader)? {
                    server_error = Some(String::from_utf8_lossy(&msg).into_owned());
                }
                break;
            }
            Some((ERROR, msg)) => {
                server_error = Some(String::from_utf8_lossy(&msg).into_owned());
                break;
            }
            Some((BUSY, msg)) => {
                // Admission control said no — a clean, deliberate refusal
                // (a router under load, not a broken one).
                server_error = Some(String::from_utf8_lossy(&msg).into_owned());
                break;
            }
            Some((tag, _)) => {
                return Err(ClientError::Protocol(format!("unexpected frame tag {tag}")));
            }
            None => break,
        }
    }
    // The server may stop reading as soon as its commit target is reached,
    // so the sender can legitimately die on a broken pipe — only surface
    // its error if the session as a whole failed. A panicked sender is a
    // session error, not a client-process abort.
    let send_result = match sender.join() {
        Ok(r) => r,
        Err(_) => {
            return Err(ClientError::Protocol(
                "sender thread panicked mid-session".to_owned(),
            ));
        }
    };
    if let Some(msg) = server_error {
        return Err(ClientError::Server(msg));
    }
    let summary = match summary {
        Some(s) => s,
        None => {
            if let Err(e) = send_result {
                return Err(ClientError::Io(e));
            }
            return Err(ClientError::Protocol(
                "connection closed before SUMMARY".to_owned(),
            ));
        }
    };
    Ok(SessionOutcome {
        alarms,
        summary,
        events_sent,
        wall: started.elapsed(),
    })
}

// ---- routed (resumable) sessions -------------------------------------------

/// How a routed session identifies and protects itself.
#[derive(Debug, Clone, Copy)]
pub struct RoutedOptions {
    /// Fleet-unique session id (consistent-hash key at the router).
    pub session_id: u64,
    /// Events per EVENTS frame.
    pub batch: usize,
    /// Reconnect-and-resume attempts before giving up.
    pub max_reconnects: u32,
}

impl RoutedOptions {
    /// Defaults for `session_id`: [`DEFAULT_BATCH`], 8 reconnects.
    pub fn new(session_id: u64) -> Self {
        RoutedOptions {
            session_id,
            batch: DEFAULT_BATCH,
            max_reconnects: 8,
        }
    }
}

/// A finished routed session: the plain outcome plus how bumpy the ride
/// was.
#[derive(Debug, Clone)]
pub struct RoutedOutcome {
    /// The session outcome — alarm-for-alarm identical to what an
    /// uninterrupted direct session would have produced.
    pub outcome: SessionOutcome,
    /// Transport deaths survived by resuming (0 = clean run).
    pub reconnects: u32,
    /// Per-reconnect recovery latency: transport death to the resumed
    /// connection's ACK. One entry per *successful* resume; a resume that
    /// itself died extends the same gap rather than starting a new one.
    pub reconnect_latencies: Vec<Duration>,
}

/// One connection attempt's verdict.
enum Attempt {
    /// SUMMARY (and possibly a trailing ERROR) arrived — terminal.
    Finished(Summary, Option<String>),
    /// The transport died (or the session was momentarily busy); resume.
    Retry,
    /// Load-shed with a BUSY frame *before* the session registered; the
    /// next attempt must be a fresh open, not a resume.
    Shed,
    /// The server refused the session outright — terminal.
    Refused(String),
}

/// Capped exponential backoff with deterministic, seeded jitter: after
/// `streak` consecutive failed attempts the client sleeps a uniform draw
/// from `[cap/2, cap]` where `cap = min(5ms << streak, 500ms)`. The streak
/// restarts whenever a resume's ACK lands, so a session that makes
/// progress between transport deaths keeps retrying fast, while one that
/// cannot reach the router backs off to the cap. Seeding by
/// `(session_id, attempt)`, where `attempt` counts every reconnect, keeps
/// chaos runs reproducible while decorrelating concurrent sessions (no
/// thundering herd on a router restart).
fn reconnect_backoff(session_id: u64, attempt: u32, streak: u32) -> Duration {
    const BASE_MS: u64 = 5;
    const CAP_MS: u64 = 500;
    let cap = BASE_MS.checked_shl(streak).unwrap_or(CAP_MS).min(CAP_MS);
    let mut rng =
        SimRng::seed_from_u64(session_id ^ (u64::from(attempt) << 32) ^ 0xBAC0_FF5E_0DE1_A75D);
    Duration::from_millis(rng.range_u64(cap / 2, cap + 1))
}

/// Runs one complete *resumable* session through a router: opens with a
/// [`SessionTicket`], streams events, and — when the transport dies
/// mid-session — reconnects and resumes from the router's last ACK,
/// replaying only the unacknowledged tail. The alarm stream is lossless
/// and duplicate-free across any number of reconnects (the resume ticket
/// reports how many alarms arrived, and the router re-sends the rest).
///
/// Requires a router peer: a plain [`serve`](crate::serve) answers the
/// SESSION frame with an ERROR.
///
/// # Errors
///
/// Any [`ClientError`]; transport failures surface only after
/// `max_reconnects` resumes also failed.
pub fn run_routed_session(
    addr: &str,
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    opts: RoutedOptions,
) -> Result<RoutedOutcome, ClientError> {
    // Routed sessions always negotiate per-frame checksums: the wire
    // between client, router, and backend is exactly where failover and
    // resume make silent corruption most dangerous (a duplicated or
    // damaged delta batch decodes to *plausible* garbage).
    let hello = Arc::new(
        cfg.encode_with_caps(CAP_FRAME_CHECKSUM)
            .map_err(ClientError::Config)?,
    );
    let started = Instant::now();
    let batch = opts.batch.max(1);

    let mut alarms: Vec<Detection> = Vec::new();
    let mut reconnects = 0u32;
    // Consecutive failed attempts since the last resume's ACK: the
    // backoff exponent.
    let mut streak = 0u32;
    let mut first = true;
    // A fresh re-open happened, so an earlier registration may still be
    // in flight.
    let mut reopened = false;
    // Recovery-latency clock: set when a transport dies, cleared when a
    // resume's ACK lands — the gap is one reconnect latency sample.
    let mut disconnected_at: Option<Instant> = None;
    let mut reconnect_latencies: Vec<Duration> = Vec::new();
    loop {
        let mut resumed_at = None;
        let attempt = routed_attempt(
            addr,
            &hello,
            &events,
            opts.session_id,
            batch,
            first,
            &mut alarms,
            &mut resumed_at,
        );
        if resumed_at.is_some() {
            streak = 0;
        }
        if let (Some(death), Some(ack)) = (disconnected_at, resumed_at) {
            reconnect_latencies.push(ack.saturating_duration_since(death));
            disconnected_at = None;
        }
        match attempt {
            Ok(Attempt::Finished(summary, trailing_error)) => {
                if let Some(msg) = trailing_error {
                    return Err(ClientError::Server(msg));
                }
                return Ok(RoutedOutcome {
                    outcome: SessionOutcome {
                        alarms,
                        summary,
                        events_sent: events.len() as u64,
                        wall: started.elapsed(),
                    },
                    reconnects,
                    reconnect_latencies,
                });
            }
            Ok(Attempt::Refused(msg)) => {
                // A resume the router does not recognize, with nothing
                // delivered yet, means the *registration* was lost on the
                // wire (the opening SESSION+HELLO never survived to the
                // router). Nothing observable happened: start over fresh.
                let lost = !first && alarms.is_empty() && msg.starts_with("unknown session id");
                // Or it was only late: an earlier registration of ours
                // reached the router after the resume that found nothing,
                // so the fresh re-open collides with our own session
                // (ids are fleet-unique). Resume it instead.
                let late = first && reopened && msg.ends_with("already registered");
                if lost || late {
                    if reconnects >= opts.max_reconnects {
                        return Err(ClientError::Server(msg));
                    }
                    first = lost;
                    reopened |= lost;
                    reconnects += 1;
                    streak += 1;
                    std::thread::sleep(reconnect_backoff(opts.session_id, reconnects, streak));
                    continue;
                }
                return Err(ClientError::Server(msg));
            }
            Ok(Attempt::Shed) => {
                // BUSY arrives before the session registers, so the next
                // attempt must open fresh (`first` stays as it was).
                if reconnects >= opts.max_reconnects {
                    return Err(ClientError::Server(format!(
                        "session {} shed by admission control after {} attempts",
                        opts.session_id, reconnects
                    )));
                }
                reconnects += 1;
                streak += 1;
                std::thread::sleep(reconnect_backoff(opts.session_id, reconnects, streak));
            }
            Ok(Attempt::Retry) => {
                first = false;
                if reconnects >= opts.max_reconnects {
                    return Err(ClientError::Protocol(format!(
                        "session {} gave up after {} reconnects",
                        opts.session_id, reconnects
                    )));
                }
                reconnects += 1;
                streak += 1;
                disconnected_at.get_or_insert_with(Instant::now);
                std::thread::sleep(reconnect_backoff(opts.session_id, reconnects, streak));
            }
            Err(e) => {
                // Connect-level failures are retryable too (the router
                // may be briefly unreachable); protocol violations on an
                // open connection are not.
                first = false;
                if reconnects >= opts.max_reconnects {
                    return Err(e);
                }
                reconnects += 1;
                streak += 1;
                disconnected_at.get_or_insert_with(Instant::now);
                std::thread::sleep(reconnect_backoff(opts.session_id, reconnects, streak));
            }
        }
    }
}

/// One connection's worth of a routed session: ticket, (re)stream, and
/// collect frames until SUMMARY or transport death. `alarms` accumulates
/// across attempts — its length doubles as the resume ticket's
/// `alarms_received`.
#[allow(clippy::too_many_arguments)]
fn routed_attempt(
    addr: &str,
    hello: &Arc<Vec<u8>>,
    events: &Arc<Vec<TraceInst>>,
    session_id: u64,
    batch: usize,
    first: bool,
    alarms: &mut Vec<Detection>,
    resumed_at: &mut Option<Instant>,
) -> Result<Attempt, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Everything the router sends after the handshake is checksummed
    // (the routed HELLO always carries CAP_FRAME_CHECKSUM); ERROR and
    // BUSY are exempt by protocol, so pre-handshake refusals still parse.
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone()?), true);

    let ticket = SessionTicket {
        id: session_id,
        resume: !first,
        alarms_received: alarms.len() as u64,
    };

    // Where the (re)play starts: a fresh session streams everything; a
    // resume first hears the router's ACK for what it already buffered.
    let start = if first {
        let mut w = BufWriter::new(stream.try_clone()?);
        write_frame(&mut w, SESSION, &ticket.encode())?;
        write_frame(&mut w, HELLO, hello)?;
        w.flush()?;
        0usize
    } else {
        {
            let mut w = BufWriter::new(stream.try_clone()?);
            write_frame(&mut w, SESSION, &ticket.encode())?;
            w.flush()?;
        }
        match reader.read() {
            Ok(Some((ACK, payload))) => {
                *resumed_at = Some(Instant::now());
                crate::proto::decode_ack(&payload)? as usize
            }
            Ok(Some((ERROR, msg))) => {
                let msg = String::from_utf8_lossy(&msg).into_owned();
                // A ghost driver may still be letting go; that's a
                // timing accident, not a refusal.
                if msg.starts_with("session busy") {
                    return Ok(Attempt::Retry);
                }
                return Ok(Attempt::Refused(msg));
            }
            Ok(Some((BUSY, _))) => return Ok(Attempt::Shed),
            Ok(Some((tag, _))) => {
                return Err(ClientError::Protocol(format!(
                    "expected ACK on resume, got frame tag {tag}"
                )));
            }
            Ok(None) | Err(_) => return Ok(Attempt::Retry),
        }
    };

    // The write side is shared with the sender thread: the terminal
    // delivery ACK (below) must ride the *same* checked writer so the
    // per-connection frame index stays continuous.
    let writer = Arc::new(Mutex::new(FrameWriter::new(
        BufWriter::new(stream.try_clone()?),
        true,
    )));
    let sender = {
        let events = Arc::clone(events);
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || -> Result<(), std::io::Error> {
            // The handshake frames (SESSION, HELLO) were plain; the event
            // stream is checksummed from its first frame.
            let mut enc = EventEncoder::new();
            for chunk in events[start.min(events.len())..].chunks(batch) {
                let bytes = enc.encode_batch(chunk);
                lock_writer(&writer).write(EVENTS, &bytes)?;
            }
            let mut w = lock_writer(&writer);
            w.write(END, &[])?;
            w.flush()
        })
    };

    let verdict = loop {
        match reader.read() {
            Ok(Some((ALARMS, payload))) => alarms.extend(crate::proto::decode_alarms(&payload)?),
            Ok(Some((ACK, payload))) => {
                // Progress bookkeeping only; correctness needs no action.
                let _ = crate::proto::decode_ack(&payload)?;
            }
            Ok(Some((SUMMARY, payload))) => {
                let summary = Summary::decode(&payload)?;
                let trailing = match reader.read() {
                    Ok(Some((ERROR, msg))) => Some(String::from_utf8_lossy(&msg).into_owned()),
                    _ => None,
                };
                break Attempt::Finished(summary, trailing);
            }
            Ok(Some((ERROR, msg))) => {
                break Attempt::Refused(String::from_utf8_lossy(&msg).into_owned());
            }
            Ok(Some((BUSY, _))) => break Attempt::Shed,
            Ok(Some((tag, _))) => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                let _ = sender.join();
                return Err(ClientError::Protocol(format!("unexpected frame tag {tag}")));
            }
            // EOF or a torn frame (including a checksum mismatch): the
            // transport died — or lied — mid-session.
            Ok(None) | Err(_) => break Attempt::Retry,
        }
    };
    if matches!(verdict, Attempt::Finished(..)) {
        // Terminal delivery ACK: through a faulting wire, the router's
        // successful SUMMARY write proves nothing — it holds the session
        // resumable until this frame confirms the verdict arrived.
        let mut w = lock_writer(&writer);
        let _ = w.write(ACK, &[]).and_then(|()| w.flush());
    }
    // Unblock and collect the sender regardless of how the read side
    // ended; its errors don't matter — the reader's verdict decides.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = sender.join();
    Ok(verdict)
}

/// Poison-recovering writer lock: a panicked sender must not wedge the
/// session teardown.
fn lock_writer(
    w: &Mutex<FrameWriter<BufWriter<TcpStream>>>,
) -> std::sync::MutexGuard<'_, FrameWriter<BufWriter<TcpStream>>> {
    w.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{write_frame, ERROR, SESSION};
    use fireguard_soc::{ExperimentConfig, KernelId};
    use std::net::TcpListener;

    /// A registration that reaches the router after the resume that
    /// looked for it: the resume draws "unknown session id", the fresh
    /// re-open then collides with the late registration, and the client
    /// must resume its own session rather than give up. A scripted router
    /// plays the four connections.
    #[test]
    fn late_registration_is_resumed_not_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let router = std::thread::spawn(move || {
            let replies = [
                None, // the first connection dies after its handshake
                Some("unknown session id 8"),
                Some("session id 8 already registered"),
                Some("stop here"),
            ];
            let mut resumes = Vec::new();
            for reply in replies {
                let (s, _) = listener.accept().expect("accept");
                let mut r = FrameReader::new(BufReader::new(s.try_clone().expect("clone")), false);
                let (tag, payload) = r.read().expect("frame").expect("ticket");
                assert_eq!(tag, SESSION);
                resumes.push(SessionTicket::decode(&payload).expect("ticket").resume);
                if let Some(msg) = reply {
                    write_frame(&mut &s, ERROR, msg.as_bytes()).expect("reply");
                }
            }
            resumes
        });
        let exp = ExperimentConfig::new("ferret").kernel(KernelId::SHADOW_STACK, 4);
        let cfg = SessionConfig::from_experiment(&exp, 0);
        let err = run_routed_session(&addr, &cfg, Arc::new(Vec::new()), RoutedOptions::new(8))
            .expect_err("the scripted router never finishes a session");
        assert!(
            matches!(&err, ClientError::Server(m) if m == "stop here"),
            "{err}"
        );
        assert_eq!(router.join().expect("router"), [false, true, false, true]);
    }
}
