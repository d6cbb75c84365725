//! The journal records mutations in the order the tables applied them:
//! replaying a log onto the state it started from rebuilds exactly the live
//! state, even when handlers for one key race each other.
//!
//! * A leave-domain that lands while a join is still doing its RSA work is
//!   logged *after* that join, so replay never re-admits a device the live
//!   service removed.
//! * One registered device driven from many threads at once — concurrent
//!   Rights Object requests plus concurrent hellos — gets every RO id once,
//!   keeps one pending session, and recovers to the identical state: each
//!   atomic decision and its apply are one step.
//!
//! Run under `--release` in CI.

use oma_drm2::drm::journal::{RiEvent, RiJournal, RiStateImage};
use oma_drm2::drm::roap::{DeviceHello, RoRequest};
use oma_drm2::drm::{
    ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapClient,
};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::RiStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

/// How long a parked join record waits for a leave before it gives up. A
/// service that orders the two keeps the leave out until the join has
/// recorded, so the wait always runs out there.
const PARK_LIMIT: Duration = Duration::from_millis(300);

#[derive(Default)]
struct Parking {
    records: Vec<(RiEvent, [u8; 32])>,
    join_parked: bool,
}

/// An in-memory journal that parks a `DomainJoined` record until a
/// `DomainLeft` has been recorded (or [`PARK_LIMIT`] passes): the widest
/// window a leave can find while a join is between its apply and its record.
#[derive(Default)]
struct ParkingJournal {
    state: Mutex<Parking>,
    changed: Condvar,
}

impl ParkingJournal {
    fn wait_for_parked_join(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(30), |s| !s.join_parked)
            .unwrap();
        assert!(
            state.join_parked && !timeout.timed_out(),
            "join never recorded"
        );
    }

    fn records(&self) -> Vec<(RiEvent, [u8; 32])> {
        self.state.lock().unwrap().records.clone()
    }
}

impl RiJournal for ParkingJournal {
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
        let mut state = self.state.lock().unwrap();
        if matches!(event, RiEvent::DomainJoined { .. }) {
            state.join_parked = true;
            self.changed.notify_all();
            state = self
                .changed
                .wait_timeout_while(state, PARK_LIMIT, |s| {
                    !s.records
                        .iter()
                        .any(|(e, _)| matches!(e, RiEvent::DomainLeft { .. }))
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

#[test]
fn a_leave_racing_a_join_reaches_the_log_after_it() {
    let mut rng = StdRng::seed_from_u64(0x1e_a7e);
    let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
    let service = RiService::new("ri", 384, &mut ca, &mut rng);
    let family = service.create_domain("family", 4);
    let mut agent = DrmAgent::new("dev-x", 384, &mut ca, &mut rng);
    agent
        .register(&RoapClient::in_proc(&service), Timestamp::new(0))
        .unwrap();
    let journal = Arc::new(ParkingJournal::default());
    service.set_journal(Arc::clone(&journal) as Arc<dyn RiJournal>);
    let pre_join = service.state_image();

    let request = agent
        .join_request(service.id(), &family, Timestamp::new(0))
        .unwrap();
    std::thread::scope(|scope| {
        let join = scope.spawn(|| service.process_join_domain(&request, Timestamp::new(0)));
        journal.wait_for_parked_join();
        assert_eq!(service.process_leave_domain("dev-x", &family), Ok(()));
        assert!(join.join().unwrap().is_ok(), "the join was acknowledged");
    });
    assert_eq!(
        service.domain_member_count(&family),
        Some(0),
        "the leave came last in the live table"
    );

    let replayed = RiService::from_image(pre_join);
    for (event, rng_after) in journal.records() {
        replayed.replay(&event, rng_after);
    }
    assert_eq!(
        replayed.state_image(),
        service.state_image(),
        "replaying the log must rebuild the live state"
    );
    let kinds: Vec<_> = journal
        .records()
        .iter()
        .map(|(event, _)| match event {
            RiEvent::DomainJoined { .. } => "joined",
            RiEvent::DomainLeft { .. } => "left",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds, ["joined", "left"], "log order is table order");
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

    // Every thread is released at once, so the requests contend.
    let start = Barrier::new(2 * N);
    let (mut ro_ids, hellos) = std::thread::scope(|scope| {
        let (service, start) = (&service, &start);
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
        (
            ros.into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            hellos
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        )
    });

    ro_ids.sort();
    let mut expected: Vec<String> = (0..N).map(|i| format!("ro:ri:dev:dev-a:{i}")).collect();
    expected.sort();
    assert_eq!(ro_ids, expected, "every sequence issued exactly once");
    assert_eq!(service.issued_ro_count(), N as u64);

    let image = service.state_image();
    assert_eq!(image.sessions.len(), 1, "one pending session per device");
    assert_eq!(
        Some(image.sessions[0].session_id),
        hellos.iter().copied().max(),
        "the newest hello holds the slot"
    );
    assert_eq!(
        RiService::recover(&*store).unwrap().state_image(),
        image,
        "recovery rebuilds the live state exactly"
    );
}
