//! Stateful property tests for REL enforcement.
//!
//! A random program of `consume` calls is interleaved across several devices
//! that each installed Rights Objects from the same templates. The system is
//! checked against a simple reference model:
//!
//! * a count-constrained template never yields more successful consumptions
//!   per device than its count, and every consumption after exhaustion fails
//!   with `ConstraintViolated`,
//! * a datetime-constrained template never allows a consumption outside its
//!   window — in particular never after expiry,
//! * devices are independent: one device's consumption must not spend
//!   another device's count.

use oma_drm2::drm::{
    ContentIssuer, Dcf, DrmAgent, DrmError, Permission, RiService, RightsObjectId, RightsTemplate,
    RoapClient,
};
use oma_drm2::pki::{CertificationAuthority, Timestamp, ValidityPeriod};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BITS: usize = 384;
const DEVICES: usize = 2;
const WINDOW_START: u64 = 500;
const WINDOW_END: u64 = 2_000;

struct Device {
    agent: DrmAgent,
    counted_ro: RightsObjectId,
    timed_ro: RightsObjectId,
    remaining: u32,
}

struct World {
    devices: Vec<Device>,
    counted_dcf: Dcf,
    timed_dcf: Dcf,
}

fn world(seed: u64, count: u32) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new("ri", BITS, &mut ca, &mut rng);
    let client = RoapClient::in_proc(&service);
    let ci = ContentIssuer::new("ci");
    let now = Timestamp::new(WINDOW_START);

    let (counted_dcf, counted_cek) = ci.package(b"counted content", "cid:counted", &mut rng);
    service.add_content(
        "cid:counted",
        counted_cek,
        &counted_dcf,
        RightsTemplate::counted(Permission::Play, count),
    );
    let (timed_dcf, timed_cek) = ci.package(b"timed content", "cid:timed", &mut rng);
    service.add_content(
        "cid:timed",
        timed_cek,
        &timed_dcf,
        RightsTemplate::timed(
            Permission::Play,
            ValidityPeriod::new(Timestamp::new(WINDOW_START), Timestamp::new(WINDOW_END)),
        ),
    );

    let devices = (0..DEVICES)
        .map(|i| {
            let mut agent = DrmAgent::new(&format!("phone-{i}"), BITS, &mut ca, &mut rng);
            agent.register(&client, now).unwrap();
            let response = agent
                .acquire_rights(&client, service.id(), "cid:counted", now)
                .unwrap();
            let counted_ro = agent.install_rights(&response, now).unwrap();
            let response = agent
                .acquire_rights(&client, service.id(), "cid:timed", now)
                .unwrap();
            let timed_ro = agent.install_rights(&response, now).unwrap();
            Device {
                agent,
                counted_ro,
                timed_ro,
                remaining: count,
            }
        })
        .collect();
    World {
        devices,
        counted_dcf,
        timed_dcf,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_interleavings_never_overspend_or_outlive_rights(
        count in 1u32..4,
        ops in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let World {
            mut devices,
            counted_dcf,
            timed_dcf,
        } = world(0x7e57 ^ (count as u64), count);
        let mut successes = [0u32; DEVICES];

        for op in ops {
            let device = (op as usize) % DEVICES;
            let timed = op & 0x40 != 0;
            let past_expiry = op & 0x80 != 0;
            let d = &mut devices[device];

            if timed {
                let t = if past_expiry {
                    WINDOW_END + 1 + (op & 0x3f) as u64
                } else {
                    WINDOW_START + (op & 0x3f) as u64
                };
                let result =
                    d.agent
                        .consume(&d.timed_ro, &timed_dcf, Permission::Play, Timestamp::new(t));
                if past_expiry {
                    prop_assert_eq!(
                        result,
                        Err(DrmError::ConstraintViolated),
                        "datetime RO must never be consumable after expiry (t={})",
                        t
                    );
                } else {
                    prop_assert!(result.is_ok(), "inside the window consumption succeeds");
                }
            } else {
                let result = d.agent.consume(
                    &d.counted_ro,
                    &counted_dcf,
                    Permission::Play,
                    Timestamp::new(WINDOW_START),
                );
                if d.remaining > 0 {
                    prop_assert!(result.is_ok(), "count not exhausted yet");
                    d.remaining -= 1;
                    successes[device] += 1;
                } else {
                    prop_assert_eq!(result, Err(DrmError::ConstraintViolated));
                }
            }
        }

        for (device, spent) in successes.iter().enumerate() {
            prop_assert!(
                *spent <= count,
                "device {} consumed {} times against a count of {}",
                device,
                spent,
                count
            );
            let d = &devices[device];
            prop_assert_eq!(
                d.agent.remaining_count(&d.counted_ro, Permission::Play),
                if *spent == 0 { None } else { Some(count - spent) },
                "device-side state must mirror the model"
            );
        }
    }
}
