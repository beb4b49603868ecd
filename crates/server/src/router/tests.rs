//! Socket-free tests of the session driver: the ARCHITECTURE.md fault
//! matrix as a table over [`Driver::on`], the failover budget, and a
//! seeded property test of alarm deduplication across backend failovers
//! and client resumes. Both legs are in-memory `Vec<u8>` frame sinks.

use super::*;
use fireguard_trace::{TraceGenerator, WorkloadProfile};
use proptest::prelude::*;

impl Leg for Vec<u8> {
    fn shut(&self, _: Shutdown) {}
}

type Wire = FrameWriter<Vec<u8>>;

fn wire() -> Wire {
    FrameWriter::new(Vec::new(), false)
}

/// The frames written to `w`, draining it.
fn frames(w: &mut Wire) -> Vec<(u8, Vec<u8>)> {
    let bytes = std::mem::take(w.get_mut());
    let mut r = FrameReader::new(bytes.as_slice(), false);
    let mut out = Vec::new();
    while let Some(f) = r.read().expect("driver frames decode") {
        out.push(f);
    }
    out
}

fn tags(w: &mut Wire) -> Vec<u8> {
    frames(w).into_iter().map(|(tag, _)| tag).collect()
}

/// Router state over an extern pool that is never dialed.
fn shared() -> Shared {
    let opts = RouterOptions {
        backends: BackendMode::Extern(vec!["127.0.0.1:9".to_owned()]),
        ..RouterOptions::default()
    };
    Shared::new(
        &opts,
        Arc::new(BackendPool::build(&opts).expect("extern pool")),
    )
}

const ID: u64 = 1;

fn in_table(shared: &Shared) -> bool {
    lock_recover(&shared.table.map).contains_key(&ID)
}

/// A live driver on backend incarnation 1, its replay already sent; a
/// ticketed session is registered in the table under [`ID`].
fn driver(shared: &Shared, ticketed: bool) -> Driver<'_> {
    let journal =
        Journal::open("driver-test", 4096, None, shared.gauges.clone()).expect("journal opens");
    let session = Arc::new(Mutex::new(SessionBuf::fresh(b"hello".to_vec(), journal)));
    if ticketed {
        lock_recover(&shared.table.map).insert(ID, Arc::clone(&session));
    }
    let mut d = Driver::new(shared, session, 7, ticketed, false);
    assert_eq!(d.incarnate(), 1);
    assert_eq!(d.replay(&mut wire()), Next::Continue);
    d
}

/// An EVENTS payload carrying the generated events with these seqs.
fn events(seqs: &[u64]) -> Vec<u8> {
    let all: Vec<TraceInst> = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 1)
        .take(8)
        .collect();
    let picked: Vec<TraceInst> = seqs.iter().map(|&s| all[s as usize]).collect();
    EventEncoder::new().encode_batch(&picked)
}

fn detection(i: usize) -> Detection {
    Detection {
        seq: 10 * i as u64,
        latency_ns: i as f64 + 0.5,
        attack: i % 3 == 0,
        kernel_slot: i % 4,
    }
}

// ---- the fault matrix -------------------------------------------------------

/// What one router column does with a row's fault.
#[derive(Debug, PartialEq)]
struct Outcome {
    next: Next,
    /// Frame tags on the client leg, teardown included.
    client: Vec<u8>,
    /// Frame tags on the backend leg.
    backend: Vec<u8>,
    /// The session is still in the table, i.e. resumable.
    kept: bool,
}

fn outcome(next: Next, client: &[u8], backend: &[u8], kept: bool) -> Outcome {
    Outcome {
        next,
        client: client.to_vec(),
        backend: backend.to_vec(),
        kept,
    }
}

struct Row {
    fault: &'static str,
    /// Drives a live driver into the row's precondition.
    setup: fn(&mut Driver<'_>),
    msg: Msg,
    anonymous: Outcome,
    ticketed: Outcome,
}

fn live(_: &mut Driver<'_>) {}

/// Done but still attached: the backend sent its terminal ERROR.
fn done(d: &mut Driver<'_>) {
    let next = d.on(
        Msg::Backend(1, ERROR, b"boom".to_vec()),
        &mut wire(),
        &mut wire(),
    );
    assert_eq!(next, Next::Continue);
}

fn summary_pending(d: &mut Driver<'_>) {
    let next = d.on(
        Msg::Backend(1, SUMMARY, b"sum".to_vec()),
        &mut wire(),
        &mut wire(),
    );
    assert_eq!(next, Next::Continue);
}

fn ghost(d: &mut Driver<'_>) {
    d.ghost_since = Some(Instant::now());
}

fn ghost_lingered(d: &mut Driver<'_>) {
    d.ghost_since = Some(Instant::now() - d.shared.ghost_linger);
}

fn ghost_taken_over(d: &mut Driver<'_>) {
    ghost(d);
    lock_session(&d.session).takeover = true;
}

fn ghost_at_shutdown(d: &mut Driver<'_>) {
    ghost(d);
    d.shared.stop.store(true, Ordering::SeqCst);
}

fn fatal(msg: &str) -> Next {
    Next::End(End::Fatal(msg.to_owned()))
}

fn rows() -> Vec<Row> {
    let garbage = vec![0xFF; 3];
    let decode_err = EventDecoder::new()
        .decode_batch(&garbage)
        .expect_err("garbage must not decode")
        .to_string();
    let gap = "event seq gap: got 5, expected 2";
    let tag = format!("unexpected frame tag {HELLO}");
    let idle = "router session idle timeout";
    let mut retryable = RETRYABLE_ERROR_PREFIX.as_bytes().to_vec();
    retryable.extend_from_slice(b"checksum mismatch");
    vec![
        Row {
            fault: "healthy EVENTS",
            setup: live,
            msg: Msg::Client(EVENTS, events(&[0, 1])),
            anonymous: outcome(Next::Continue, &[], &[EVENTS], false),
            ticketed: outcome(Next::Continue, &[ACK], &[EVENTS], true),
        },
        Row {
            fault: "undecodable EVENTS",
            setup: live,
            msg: Msg::Client(EVENTS, garbage),
            anonymous: outcome(
                fatal(&format!("bad EVENTS frame: {decode_err}")),
                &[ERROR],
                &[],
                false,
            ),
            ticketed: outcome(Next::Ghost(decode_err), &[], &[], true),
        },
        Row {
            fault: "seq gap (the prefix before it is forwarded)",
            setup: live,
            msg: Msg::Client(EVENTS, events(&[0, 1, 5])),
            anonymous: outcome(fatal(gap), &[ERROR], &[], false),
            ticketed: outcome(Next::Ghost(gap.to_owned()), &[], &[EVENTS], true),
        },
        Row {
            fault: "unexpected client tag",
            setup: live,
            msg: Msg::Client(HELLO, Vec::new()),
            anonymous: outcome(fatal(&tag), &[ERROR], &[], false),
            ticketed: outcome(Next::Ghost(tag.clone()), &[], &[], true),
        },
        Row {
            fault: "ClientBad before done",
            setup: live,
            msg: Msg::ClientBad("torn frame".to_owned()),
            anonymous: outcome(fatal("bad frame: torn frame"), &[ERROR], &[], false),
            ticketed: outcome(Next::Ghost("torn frame".to_owned()), &[], &[], true),
        },
        Row {
            fault: "ClientBad after done",
            setup: done,
            msg: Msg::ClientBad("torn frame".to_owned()),
            anonymous: outcome(fatal("bad frame: torn frame"), &[ERROR], &[], false),
            ticketed: outcome(Next::End(End::Detached), &[], &[], false),
        },
        Row {
            fault: "ClientGone before done",
            setup: live,
            msg: Msg::ClientGone,
            anonymous: outcome(Next::End(End::Detached), &[], &[], false),
            ticketed: outcome(Next::Continue, &[], &[], true),
        },
        Row {
            fault: "ClientGone after done",
            setup: done,
            msg: Msg::ClientGone,
            anonymous: outcome(Next::End(End::Detached), &[], &[], false),
            ticketed: outcome(Next::End(End::Detached), &[], &[], false),
        },
        Row {
            fault: "backend gone mid-session",
            setup: live,
            msg: Msg::BackendGone(1),
            anonymous: outcome(Next::Failover("backend gone"), &[], &[], false),
            ticketed: outcome(Next::Failover("backend gone"), &[], &[], true),
        },
        Row {
            fault: "backend closes after its SUMMARY",
            setup: summary_pending,
            msg: Msg::BackendGone(1),
            anonymous: outcome(Next::End(End::Finished), &[SUMMARY], &[], false),
            ticketed: outcome(Next::End(End::Finished), &[SUMMARY], &[], true),
        },
        Row {
            fault: "retryable ERROR chasing a SUMMARY",
            setup: summary_pending,
            msg: Msg::Backend(1, ERROR, retryable),
            anonymous: outcome(Next::Failover("retryable backend error"), &[], &[], false),
            ticketed: outcome(Next::Failover("retryable backend error"), &[], &[], true),
        },
        Row {
            fault: "terminal backend ERROR",
            setup: live,
            msg: Msg::Backend(1, ERROR, b"boom".to_vec()),
            anonymous: outcome(Next::Continue, &[ERROR], &[], false),
            ticketed: outcome(Next::Continue, &[ERROR], &[], true),
        },
        Row {
            fault: "garbled ALARMS",
            setup: live,
            msg: Msg::Backend(1, ALARMS, vec![0xFF; 5]),
            anonymous: outcome(Next::Failover("bad ALARMS"), &[], &[], false),
            ticketed: outcome(Next::Failover("bad ALARMS"), &[], &[], true),
        },
        Row {
            fault: "unexpected backend tag",
            setup: live,
            msg: Msg::Backend(1, HELLO, Vec::new()),
            anonymous: outcome(Next::Failover("unexpected backend frame"), &[], &[], false),
            ticketed: outcome(Next::Failover("unexpected backend frame"), &[], &[], true),
        },
        Row {
            fault: "stale incarnation",
            setup: live,
            msg: Msg::BackendGone(0),
            anonymous: outcome(Next::Continue, &[], &[], false),
            ticketed: outcome(Next::Continue, &[], &[], true),
        },
        Row {
            fault: "idle wedge",
            setup: live,
            msg: Msg::Idle,
            anonymous: outcome(fatal(idle), &[ERROR], &[], false),
            ticketed: outcome(Next::End(End::Park(idle)), &[], &[], true),
        },
        Row {
            fault: "ghost tick",
            setup: ghost,
            msg: Msg::Idle,
            anonymous: outcome(Next::Continue, &[], &[], false),
            ticketed: outcome(Next::Continue, &[], &[], true),
        },
        Row {
            fault: "ghost drops client frames",
            setup: ghost,
            msg: Msg::Client(EVENTS, events(&[0])),
            anonymous: outcome(Next::Continue, &[], &[], false),
            ticketed: outcome(Next::Continue, &[], &[], true),
        },
        Row {
            fault: "ghost linger",
            setup: ghost_lingered,
            msg: Msg::Idle,
            anonymous: outcome(Next::End(End::Park("ghost linger")), &[], &[], false),
            ticketed: outcome(Next::End(End::Park("ghost linger")), &[], &[], true),
        },
        Row {
            fault: "ghost takeover",
            setup: ghost_taken_over,
            msg: Msg::Backend(1, ALARMS, proto::encode_alarms(&[detection(0)])),
            anonymous: outcome(Next::End(End::HandOver), &[], &[], false),
            ticketed: outcome(Next::End(End::HandOver), &[], &[], true),
        },
        Row {
            fault: "router shutdown while ghost",
            setup: ghost_at_shutdown,
            msg: Msg::Idle,
            anonymous: outcome(Next::End(End::Park("router shutdown")), &[], &[], false),
            ticketed: outcome(Next::End(End::Park("router shutdown")), &[], &[], true),
        },
    ]
}

#[test]
fn fault_matrix() {
    for ticketed in [false, true] {
        for row in rows() {
            let shared = shared();
            let mut d = driver(&shared, ticketed);
            (row.setup)(&mut d);
            let (mut client, mut backend) = (wire(), wire());
            let next = d.on(row.msg, &mut client, &mut backend);
            if let Next::End(end) = &next {
                d.settle(end, &mut client);
            }
            let got = Outcome {
                next,
                client: tags(&mut client),
                backend: tags(&mut backend),
                kept: in_table(&shared),
            };
            let (want, column) = if ticketed {
                (row.ticketed, "ticketed")
            } else {
                (row.anonymous, "anonymous")
            };
            assert_eq!(got, want, "{} ({column})", row.fault);
        }
    }
}

/// The infrastructure rows the shell decides: no routable backend and a
/// spent failover budget. Decoded backend frames restart the budget.
#[test]
fn infrastructure_faults_park_ticketed_and_fail_anonymous() {
    for ticketed in [false, true] {
        let shared = shared();
        let mut d = driver(&shared, ticketed);
        let (park, fail) = if ticketed {
            (
                End::Park("no live backends"),
                End::Park("failover budget exhausted"),
            )
        } else {
            (
                End::Fatal("no live backends".to_owned()),
                End::Fatal("session failed over too many times".to_owned()),
            )
        };
        assert_eq!(d.infra_fault("no live backends", "no live backends"), park);
        for _ in 0..MAX_FAILOVERS {
            assert_eq!(d.failed_over(0, "backend gone"), None);
        }
        let round_trip = Msg::Backend(1, ALARMS, proto::encode_alarms(&[]));
        assert_eq!(d.on(round_trip, &mut wire(), &mut wire()), Next::Continue);
        for _ in 0..MAX_FAILOVERS {
            assert_eq!(d.failed_over(0, "backend gone"), None);
        }
        assert_eq!(d.failed_over(0, "backend gone"), Some(fail));
        assert_eq!(shared.stats.failovers.load(Ordering::Relaxed), 65);
    }
}

// ---- alarm deduplication across incarnations --------------------------------

fn alarms_in(frames: &[(u8, Vec<u8>)]) -> Vec<Detection> {
    frames
        .iter()
        .filter(|(tag, _)| *tag == ALARMS)
        .flat_map(|(_, p)| proto::decode_alarms(p).expect("ALARMS decode"))
        .collect()
}

fn keys(ds: &[Detection]) -> Vec<(u64, u64, bool, usize)> {
    ds.iter()
        .map(|d| (d.seq, d.latency_ns.to_bits(), d.attack, d.kernel_slot))
        .collect()
}

/// The current incarnation re-raises the deterministic alarm sequence
/// over `range`, `batch` alarms per frame.
fn raise(d: &mut Driver<'_>, range: std::ops::Range<usize>, batch: usize, client: &mut Wire) {
    let all: Vec<Detection> = range.map(detection).collect();
    for chunk in all.chunks(batch) {
        let msg = Msg::Backend(d.inc, ALARMS, proto::encode_alarms(chunk));
        assert_eq!(d.on(msg, client, &mut wire()), Next::Continue);
    }
}

fn reincarnate(d: &mut Driver<'_>) {
    d.incarnate();
    assert_eq!(d.replay(&mut wire()), Next::Continue);
}

/// A reconnecting client that holds `received` alarms resumes on a
/// fresh driver.
fn resume(shared: &Shared, received: usize) -> (Driver<'_>, Wire, Option<End>) {
    let session = attach_resume(&shared.table, ID).expect("resume attaches");
    let mut d = Driver::new(shared, session, 7, true, false);
    let mut client = wire();
    let end = d.resume(received as u64, &mut client);
    (d, client, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the failover points and however many alarms each resume
    /// reports, the client-visible alarm sequence is the
    /// single-incarnation sequence: none lost, none duplicated.
    #[test]
    fn alarms_survive_failovers_and_resumes_exactly_once(
        n in 1usize..40,
        batch in 1usize..6,
        steps in prop::collection::vec((any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
        last_leg_lost in any::<bool>(),
        last_keep in any::<u64>(),
    ) {
        let shared = shared();
        let mut d = driver(&shared, true);
        let mut client = wire();
        let mut got: Vec<Detection> = Vec::new();
        for (client_dies, stop, death, keep) in steps {
            // This incarnation raises alarms [0, stop) before its leg ends.
            let stop = (stop % (n as u64 + 1)) as usize;
            if !client_dies {
                raise(&mut d, 0..stop, batch, &mut client);
                let gone = d.on(Msg::BackendGone(d.inc), &mut client, &mut wire());
                prop_assert_eq!(gone, Next::Failover("backend gone"));
                prop_assert_eq!(d.failed_over(0, "backend gone"), None);
                reincarnate(&mut d);
                continue;
            }
            // The client leg dies after `death` alarms and the ghost hears
            // the rest; in flight the leg lost a suffix, so the client
            // kept `keep` of the alarms it was sent.
            let death = (death % (stop as u64 + 1)) as usize;
            raise(&mut d, 0..death, batch, &mut client);
            prop_assert_eq!(d.on(Msg::ClientGone, &mut client, &mut wire()), Next::Continue);
            raise(&mut d, death..stop, batch, &mut client);
            let sent = alarms_in(&frames(&mut client));
            got.extend_from_slice(&sent[..(keep % (sent.len() as u64 + 1)) as usize]);
            lock_session(&d.session).takeover = true;
            prop_assert_eq!(d.on(Msg::Idle, &mut client, &mut wire()), Next::End(End::HandOver));
            d.settle(&End::HandOver, &mut client);
            let end;
            (d, client, end) = resume(&shared, got.len());
            prop_assert_eq!(end, None);
            reincarnate(&mut d);
        }
        raise(&mut d, 0..n, batch, &mut client);
        let summary = Msg::Backend(d.inc, SUMMARY, b"sum".to_vec());
        prop_assert_eq!(d.on(summary, &mut client, &mut wire()), Next::Continue);
        prop_assert_eq!(d.on(Msg::BackendGone(d.inc), &mut client, &mut wire()), Next::End(End::Finished));
        d.settle(&End::Finished, &mut client);
        let mut last = frames(&mut client);
        if last_leg_lost {
            // The verdict never arrived: the resume is served from the
            // buffer, alarm tail and SUMMARY included.
            let sent = alarms_in(&last);
            got.extend_from_slice(&sent[..(last_keep % (sent.len() as u64 + 1)) as usize]);
            let (_, mut leg, end) = resume(&shared, got.len());
            prop_assert_eq!(end, Some(End::Finished));
            last = frames(&mut leg);
            prop_assert_eq!(last[0].0, ACK);
        }
        got.extend(alarms_in(&last));
        prop_assert_eq!(last.iter().filter(|(tag, _)| *tag == SUMMARY).count(), 1);
        prop_assert_eq!(keys(&got), keys(&(0..n).map(detection).collect::<Vec<_>>()));
    }
}
