//! The journal records mutations in the order the state applied them:
//! replaying a log onto the state it started from rebuilds exactly the live
//! state, even when handlers for one key race each other.
//!
//! * A record held back on its way into the journal — the widest window a
//!   racing handler can find — still reaches the log ahead of every later
//!   mutation of the same key: a leave after the join it undoes, a sweep
//!   after the hello whose session it reclaims, a registration after the
//!   hello whose session id it guessed.
//! * One registered device driven from many threads at once — concurrent
//!   Rights Object requests plus concurrent hellos, while another thread
//!   snapshots the live service — gets every RO id once, keeps one pending
//!   session, and recovers to the identical state.
//!
//! Run under `--release` in CI.

use oma_drm2::drm::journal::{RiEvent, RiJournal, RiStateImage};
use oma_drm2::drm::roap::{DeviceHello, RiHello, RoRequest, NONCE_LEN};
use oma_drm2::drm::{
    ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapClient,
};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::RiStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

/// How long a parked record waits for the record it is parked behind. A
/// service that orders the two keeps the later one out until the parked one
/// has recorded, so the wait always runs out there.
const PARK_LIMIT: Duration = Duration::from_millis(300);

/// Matches one kind of [`RiEvent`].
type Kind = fn(&RiEvent) -> bool;

#[derive(Default)]
struct Parking {
    records: Vec<(RiEvent, [u8; 32])>,
    parked: bool,
}

/// An in-memory journal that parks each record of kind `park` until a
/// record of kind `until` has been recorded (or [`PARK_LIMIT`] passes).
struct ParkingJournal {
    park: Kind,
    until: Kind,
    state: Mutex<Parking>,
    changed: Condvar,
}

impl ParkingJournal {
    fn new(park: Kind, until: Kind) -> Arc<Self> {
        Arc::new(ParkingJournal {
            park,
            until,
            state: Mutex::default(),
            changed: Condvar::new(),
        })
    }

    fn wait_for_parked(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(30), |s| !s.parked)
            .unwrap();
        assert!(state.parked && !timeout.timed_out(), "nothing was parked");
    }

    fn records(&self) -> Vec<(RiEvent, [u8; 32])> {
        self.state.lock().unwrap().records.clone()
    }

    /// The service `start` becomes when the log is replayed onto it.
    fn replay_onto(&self, start: RiStateImage) -> RiService {
        let replayed = RiService::from_image(start);
        for (event, rng_after) in self.records() {
            replayed.replay(&event, rng_after);
        }
        replayed
    }

    /// Each record's kind, in log order: `"parked"`, `"awaited"` (the kind
    /// a parked record waits for) or `"other"`.
    fn kinds(&self) -> Vec<&'static str> {
        let kind = |e: &RiEvent| match ((self.park)(e), (self.until)(e)) {
            (true, _) => "parked",
            (false, true) => "awaited",
            (false, false) => "other",
        };
        self.records().iter().map(|(e, _)| kind(e)).collect()
    }
}

impl RiJournal for ParkingJournal {
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
        let mut state = self.state.lock().unwrap();
        if (self.park)(event) {
            state.parked = true;
            self.changed.notify_all();
            let until = self.until;
            state = self
                .changed
                .wait_timeout_while(state, PARK_LIMIT, |s| {
                    !s.records.iter().any(|(e, _)| until(e))
                })
                .unwrap()
                .0;
        }
        state.records.push((event.clone(), rng_checkpoint()));
        self.changed.notify_all();
    }

    fn flush(&self) -> Result<(), DrmError> {
        Ok(())
    }

    fn snapshot(&self, _capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError> {
        Ok(())
    }
}

fn service(seed: u64) -> (CertificationAuthority, RiService, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = RiService::new("ri", 384, &mut ca, &mut rng);
    (ca, service, rng)
}

#[test]
fn a_leave_racing_a_join_reaches_the_log_after_it() {
    let (mut ca, service, mut rng) = service(0x1e_a7e);
    let family = service.create_domain("family", 4);
    let mut agent = DrmAgent::new("dev-x", 384, &mut ca, &mut rng);
    agent
        .register(&RoapClient::in_proc(&service), Timestamp::new(0))
        .unwrap();
    let journal = ParkingJournal::new(
        |e| matches!(e, RiEvent::DomainJoined { .. }),
        |e| matches!(e, RiEvent::DomainLeft { .. }),
    );
    service.set_journal(Arc::clone(&journal) as Arc<dyn RiJournal>);
    let pre_join = service.state_image();

    let request = agent
        .join_request(service.id(), &family, Timestamp::new(0))
        .unwrap();
    std::thread::scope(|scope| {
        let join = scope.spawn(|| service.process_join_domain(&request, Timestamp::new(0)));
        journal.wait_for_parked();
        assert_eq!(service.process_leave_domain("dev-x", &family), Ok(()));
        assert!(join.join().unwrap().is_ok(), "the join was acknowledged");
    });
    assert_eq!(
        service.domain_member_count(&family),
        Some(0),
        "the leave came last in the live table"
    );
    assert_eq!(
        journal.replay_onto(pre_join).state_image(),
        service.state_image(),
        "replaying the log must rebuild the live state"
    );
    assert_eq!(
        journal.kinds(),
        ["parked", "awaited"],
        "log order is table order"
    );
}

#[test]
fn a_sweep_racing_a_hello_reaches_the_log_after_it() {
    let (_ca, service, _rng) = service(0x5_ee9);
    service.set_session_ttl(10);
    let journal = ParkingJournal::new(
        |e| matches!(e, RiEvent::SessionOpened { .. }),
        |e| matches!(e, RiEvent::SessionsSwept { .. }),
    );
    service.set_journal(Arc::clone(&journal) as Arc<dyn RiJournal>);
    let start = service.state_image();

    // A clockless hello opens its session at t = 0, so a clocked sweep
    // reclaims it the moment it can see it.
    std::thread::scope(|scope| {
        let hello = scope.spawn(|| service.hello(&DeviceHello::new("dev-x")));
        journal.wait_for_parked();
        assert_eq!(service.sweep_sessions(Timestamp::new(1_000)), 1);
        hello.join().unwrap();
    });
    assert_eq!(
        service.pending_session_count(),
        0,
        "the sweep came last in the live table"
    );
    assert_eq!(
        journal.replay_onto(start).state_image(),
        service.state_image(),
        "replaying the log must rebuild the live state"
    );
    assert_eq!(
        journal.kinds(),
        ["parked", "awaited"],
        "log order is table order"
    );
}

#[test]
fn a_registration_on_a_guessed_session_reaches_the_log_after_its_hello() {
    let now = Timestamp::new(0);
    let (mut ca, service, mut rng) = service(0x9e_55);
    let mut agent = DrmAgent::new("dev-x", 384, &mut ca, &mut rng);
    let journal = ParkingJournal::new(
        |e| matches!(e, RiEvent::SessionOpened { .. }),
        |e| matches!(e, RiEvent::DeviceRegistered { .. }),
    );
    service.set_journal(Arc::clone(&journal) as Arc<dyn RiJournal>);
    let start = service.state_image();

    // Session ids are sequential, and the RI nonce is not signed, so a peer
    // can register on the id the next hello will get before that hello has
    // been answered.
    let guessed = RiHello {
        ri_id: service.id().to_string(),
        session_id: start.tables.next_session,
        ri_nonce: vec![0; NONCE_LEN],
        selected_algorithms: Vec::new(),
        trusted_authorities: Vec::new(),
    };
    let request = agent.registration_request(&guessed, now).unwrap();
    std::thread::scope(|scope| {
        let hello = scope.spawn(|| service.hello(&DeviceHello::new("dev-x")));
        journal.wait_for_parked();
        assert!(service.process_registration(&request, now).is_ok());
        assert_eq!(hello.join().unwrap().session_id, guessed.session_id);
    });
    assert!(service.is_registered("dev-x"));
    assert_eq!(
        service.pending_session_count(),
        0,
        "the registration came last in the live table"
    );
    assert_eq!(
        journal.replay_onto(start).state_image(),
        service.state_image(),
        "replaying the log must rebuild the live state"
    );
    assert_eq!(
        journal.kinds(),
        ["parked", "awaited"],
        "log order is table order"
    );
}

#[test]
fn one_device_from_many_threads_recovers_exactly() {
    const N: usize = 16;
    let now = Timestamp::new(0);
    let mut rng = StdRng::seed_from_u64(0x5a_3e);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = RiService::new("ri", 384, &mut ca, &mut rng);
    let store = Arc::new(RiStore::in_memory());
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image()).unwrap();
    let (dcf, cek) = ContentIssuer::new("ci").package(b"track", "cid:x", &mut rng);
    service.add_content(
        "cid:x",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let mut agent = DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
    agent.register(&RoapClient::in_proc(&service), now).unwrap();
    let requests: Vec<RoRequest> = (0..N)
        .map(|_| agent.ro_request(service.id(), "cid:x", None, now).unwrap())
        .collect();

    // Every thread is released at once, so the requests contend — with
    // each other and with a thread snapshotting the live service until
    // they are done.
    let start = Barrier::new(2 * N + 1);
    let done = AtomicBool::new(false);
    let snapshots = AtomicUsize::new(0);
    let (mut ro_ids, hellos) = std::thread::scope(|scope| {
        let (service, start) = (&service, &start);
        let snapshotter = scope.spawn(|| {
            start.wait();
            loop {
                service.snapshot_to(&*store).unwrap();
                snapshots.fetch_add(1, Ordering::Relaxed);
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        let ros: Vec<_> = requests
            .iter()
            .map(|request| {
                scope.spawn(move || {
                    start.wait();
                    let response = service.process_ro_request(request, now).unwrap();
                    response.ro_id().as_str().to_string()
                })
            })
            .collect();
        let hellos: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(move || {
                    start.wait();
                    service.hello(&DeviceHello::new("dev-a")).session_id
                })
            })
            .collect();
        let outcome = (
            ros.into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            hellos
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        );
        done.store(true, Ordering::Relaxed);
        snapshotter.join().unwrap();
        outcome
    });
    assert!(snapshots.into_inner() > 0);

    ro_ids.sort();
    let mut expected: Vec<String> = (0..N).map(|i| format!("ro:ri:dev:dev-a:{i}")).collect();
    expected.sort();
    assert_eq!(ro_ids, expected, "every sequence issued exactly once");
    assert_eq!(service.issued_ro_count(), N as u64);

    let image = service.state_image();
    let sessions: Vec<u64> = image.tables.sessions.keys().copied().collect();
    assert_eq!(sessions.len(), 1, "one pending session per device");
    assert_eq!(
        sessions.first().copied(),
        hellos.iter().copied().max(),
        "the newest hello holds the slot"
    );
    assert_eq!(
        RiService::recover(&*store).unwrap().state_image(),
        image,
        "recovery rebuilds the live state exactly"
    );
}
