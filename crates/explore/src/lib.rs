//! A model-checking-style explorer for the ROAP session machines.
//!
//! The codebase is deterministic end to end: every random draw comes from a
//! seeded engine, and [`RiService::state_image`] /
//! [`RiService::from_image`] round-trip the *entire* service — tables and
//! random stream — byte-exactly. This crate exploits that determinism the
//! way a model checker would: [`explore`] drives N concurrent device
//! sessions against one service and enumerates, depth-first, every
//! interleaving of message deliveries the schedule budget allows, plus
//! message **duplication**, **drop** and **reorder** faults. After every
//! delivery the service's observable state is checked against the typed
//! reference model ([`RiSessionState`]) and two protocol invariants:
//!
//! * **no-duplicate-RO-id** — no two `RoResponse`s in a trace ever carry
//!   the same Rights-Object id, no matter how requests are replayed or
//!   interleaved;
//! * **replay protection** — a `RegistrationRequest` delivered twice must
//!   yield a `RegistrationResponse` at most once; the second delivery is
//!   answered `UnknownSession`.
//!
//! States are hashed (the service's encoded tables + device model states +
//! network buffer) and revisits pruned, so the explorer covers the
//! reachable state space instead of the trace tree. When an invariant fails, the full
//! action trace from the initial state is reported as a counterexample.
//!
//! The sibling [`fuzz`] module attacks the same machines from the other
//! side: a corpus of syntactically valid but semantically wrong PDUs, each
//! asserting the specific [`RoapStatus`] the server must answer.
//!
//! [`RiService::state_image`]: oma_drm::RiService::state_image
//! [`RiService::from_image`]: oma_drm::RiService::from_image
//! [`RoapStatus`]: oma_drm::wire::RoapStatus

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;

use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::sha1::{Sha1, DIGEST_SIZE};
use oma_crypto::CryptoEngine;
use oma_drm::roap::{DeviceHello, RegistrationRequest, RoRequest, NONCE_LEN};
use oma_drm::session::{PduKind, RiSessionState};
use oma_drm::wire::{RoapPdu, RoapStatus};
use oma_drm::{ContentIssuer, Permission, RiService, RightsTemplate, RoapError};
use oma_pki::{Certificate, CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt;
use std::time::{Duration, Instant};

/// RSA modulus size of the explorer's throwaway identities — small keys
/// keep state expansion fast; the protocol logic under test is key-size
/// independent.
const BITS: usize = 384;

/// The fixed protocol timestamp of every explored exchange (certificates
/// are valid and OCSP responses fresh at this instant).
const NOW: u64 = 1_000;

/// Content id every device acquires rights for.
const CONTENT_ID: &str = "cid:explore";

/// Which fault classes the scheduler may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Faults {
    /// Deliver a frame and keep it in the network for a later replay.
    pub duplicate: bool,
    /// Remove a frame without delivering it (the device retries with a
    /// fresh nonce).
    pub drop: bool,
    /// Deliver buffered frames in any order. When off, the network is a
    /// global FIFO queue and only scheduling interleavings are explored.
    pub reorder: bool,
}

impl Faults {
    /// All fault classes on — the CI configuration.
    pub fn all() -> Faults {
        Faults {
            duplicate: true,
            drop: true,
            reorder: true,
        }
    }

    /// No faults: pure scheduling interleavings.
    pub fn none() -> Faults {
        Faults {
            duplicate: false,
            drop: false,
            reorder: false,
        }
    }
}

impl fmt::Display for Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.reorder {
            names.push("reorder");
        }
        if self.duplicate {
            names.push("duplicate");
        }
        if self.drop {
            names.push("drop");
        }
        if names.is_empty() {
            names.push("none");
        }
        f.write_str(&names.join("+"))
    }
}

/// Parameters of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of concurrent device sessions.
    pub sessions: usize,
    /// Seed of the world (service identity, device keys, nonces).
    pub seed: u64,
    /// Fault classes the scheduler may inject.
    pub faults: Faults,
    /// RO acquisitions per device after registration.
    pub acquisitions: usize,
    /// Maximum actions along one trace (DFS depth bound).
    pub max_depth: usize,
    /// Total state budget: exploration stops expanding once this many
    /// states have been visited.
    pub max_states: u64,
    /// Wall-clock budget; exploration stops expanding once exceeded.
    pub time_budget: Duration,
}

impl ExploreConfig {
    /// The CI smoke configuration: 3 sessions × all fault classes under a
    /// small deterministic budget.
    pub fn smoke() -> ExploreConfig {
        ExploreConfig {
            sessions: 3,
            seed: 42,
            faults: Faults::all(),
            acquisitions: 1,
            max_depth: 40,
            max_states: 20_000,
            time_budget: Duration::from_secs(30),
        }
    }
}

/// One invariant violation, with the action trace that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: String,
    /// What exactly went wrong.
    pub detail: String,
    /// The counterexample: every scheduler action from the initial state.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  counterexample ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "    {i:>3}. {step}")?;
        }
        Ok(())
    }
}

/// The outcome of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// States visited (actions applied), including revisits that were then
    /// pruned.
    pub states_explored: u64,
    /// Distinct states by digest.
    pub distinct_states: u64,
    /// Revisited states cut by the hash prune.
    pub pruned: u64,
    /// Traces that ran to quiescence (all scripts done, network empty).
    pub completed_traces: u64,
    /// Deepest trace reached.
    pub max_depth_reached: usize,
    /// Whether a budget (states, depth or time) truncated the search.
    pub truncated: bool,
    /// Invariant violations found (empty on a healthy protocol).
    pub violations: Vec<Violation>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl ExploreReport {
    /// States visited per second — the `session` group's bench metric.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states_explored as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explored {} states ({} distinct, {} pruned) in {:.2?} — {:.0} states/s",
            self.states_explored,
            self.distinct_states,
            self.pruned,
            self.elapsed,
            self.states_per_sec(),
        )?;
        writeln!(
            f,
            "completed traces: {}, max depth: {}, truncated: {}",
            self.completed_traces, self.max_depth_reached, self.truncated
        )?;
        if self.violations.is_empty() {
            writeln!(f, "no invariant violations")?;
        } else {
            for v in &self.violations {
                write!(f, "{v}")?;
            }
        }
        Ok(())
    }
}

/// A device identity the explorer drives directly (keys, certificate and
/// nonces are explorer-owned, so frame construction is a pure function of
/// the node state — no hidden RNG).
struct Device {
    id: String,
    keys: RsaKeyPair,
    certificate: Certificate,
}

/// The per-device protocol script: registration followed by a number of
/// acquisitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Hello,
    Register,
    Acquire(usize),
}

/// Mutable per-device exploration state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeviceNode {
    /// Next script step to send.
    script_pos: usize,
    /// Rebuild counter: bumped on drops and rejected exchanges so retried
    /// frames carry fresh nonces.
    attempt: u32,
    /// Whether a frame of this device is in flight (yet undelivered).
    waiting: bool,
    /// The newest session id the device has been challenged with.
    latest_session: Option<u64>,
    /// Reference-model state mirroring `service.session_state(device)`.
    model: RiSessionState,
}

/// One frame in the network buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    /// Monotonic send sequence (FIFO order when reorder is off).
    seq: u64,
    device: usize,
    kind: PduKind,
    /// Session id a registration frame targets (0 otherwise).
    session_id: u64,
    bytes: Vec<u8>,
    /// True once the frame was delivered and retained as a replay ghost.
    replayed: bool,
}

/// A scheduler action.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    /// Device builds and enqueues its next request.
    Send(usize),
    /// Deliver frame (by buffer index) and remove it.
    Deliver(usize),
    /// Deliver frame and keep it as a replay ghost (duplication fault).
    Duplicate(usize),
    /// Remove frame without delivering (drop fault).
    Drop(usize),
}

/// Everything that varies along a trace.
#[derive(Clone)]
struct Node {
    devices: Vec<DeviceNode>,
    network: Vec<Frame>,
    next_seq: u64,
    /// RO ids observed across the trace (no-duplicate-RO-id invariant).
    ro_ids: Vec<String>,
}

struct Explorer {
    service: RiService,
    devices: Vec<Device>,
    config: ExploreConfig,
    visited: HashSet<[u8; DIGEST_SIZE]>,
    script: Vec<Step>,
    trace: Vec<String>,
    report: ExploreReport,
    started: Instant,
}

/// Runs one bounded exploration and reports what was covered and whether
/// any invariant broke.
pub fn explore(config: &ExploreConfig) -> ExploreReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let service = RiService::new("ri.explore", BITS, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.explore");
    let (dcf, cek) = ci.package(b"explored content payload", CONTENT_ID, &mut rng);
    service.add_content(
        CONTENT_ID,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let devices: Vec<Device> = (0..config.sessions)
        .map(|i| {
            let id = format!("dev-{i:02}");
            let keys = RsaKeyPair::generate(BITS, &mut rng);
            let certificate = ca.issue(
                &id,
                EntityRole::DrmAgent,
                keys.public().clone(),
                ValidityPeriod::starting_at(Timestamp::new(0), 1_000_000),
            );
            Device {
                id,
                keys,
                certificate,
            }
        })
        .collect();

    let mut script = vec![Step::Hello, Step::Register];
    for k in 0..config.acquisitions {
        script.push(Step::Acquire(k));
    }

    let mut explorer = Explorer::new(service, devices, config, script);

    let root = Node {
        devices: vec![
            DeviceNode {
                script_pos: 0,
                attempt: 0,
                waiting: false,
                latest_session: None,
                model: RiSessionState::Idle,
            };
            config.sessions
        ],
        network: Vec::new(),
        next_seq: 0,
        ro_ids: Vec::new(),
    };
    explorer.dfs(&root, 0);
    explorer.report.elapsed = explorer.started.elapsed();
    explorer.report
}

impl Explorer {
    fn new(
        service: RiService,
        devices: Vec<Device>,
        config: &ExploreConfig,
        script: Vec<Step>,
    ) -> Explorer {
        Explorer {
            service,
            devices,
            config: config.clone(),
            visited: HashSet::new(),
            script,
            trace: Vec::new(),
            report: ExploreReport {
                states_explored: 0,
                distinct_states: 0,
                pruned: 0,
                completed_traces: 0,
                max_depth_reached: 0,
                truncated: false,
                violations: Vec::new(),
                elapsed: Duration::ZERO,
            },
            started: Instant::now(),
        }
    }

    fn budget_left(&self) -> bool {
        self.report.states_explored < self.config.max_states
            && self.started.elapsed() < self.config.time_budget
            && self.report.violations.is_empty()
    }

    /// Deterministic engine for one frame build: nonces and PSS salts are
    /// pure functions of (seed, device, step, attempt).
    fn build_engine(&self, device: usize, step: usize, attempt: u32) -> CryptoEngine {
        let mix = self
            .config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((device as u64) << 40)
            .wrapping_add((step as u64) << 20)
            .wrapping_add(attempt as u64);
        CryptoEngine::with_seed(mix)
    }

    /// The enabled actions at `node`, in a deterministic order.
    fn enabled(&self, node: &Node) -> Vec<Action> {
        let mut actions = Vec::new();
        for (d, dev) in node.devices.iter().enumerate() {
            if !dev.waiting && dev.script_pos < self.script.len() {
                // Registration needs a challenge in hand; the hello step
                // provides it.
                actions.push(Action::Send(d));
            }
        }
        let deliverable: Vec<usize> = if self.config.faults.reorder {
            (0..node.network.len()).collect()
        } else {
            // FIFO network: only the oldest buffered frame may move.
            node.network
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.seq)
                .map(|(i, _)| vec![i])
                .unwrap_or_default()
        };
        for i in deliverable {
            let frame = &node.network[i];
            actions.push(Action::Deliver(i));
            if self.config.faults.duplicate && !frame.replayed {
                actions.push(Action::Duplicate(i));
            }
            if self.config.faults.drop && !frame.replayed {
                actions.push(Action::Drop(i));
            }
        }
        actions
    }

    fn dfs(&mut self, node: &Node, depth: usize) {
        self.report.max_depth_reached = self.report.max_depth_reached.max(depth);
        let actions = self.enabled(node);
        if actions.is_empty() {
            self.report.completed_traces += 1;
            return;
        }
        if depth >= self.config.max_depth {
            self.report.truncated = true;
            return;
        }
        // Children mutate the live service. The service a call leaves
        // behind is its caller's to restore, so this node takes its image
        // only when a later sibling will start from it.
        let last = actions.len() - 1;
        let mut image = (last > 0).then(|| self.service.state_image());
        for (i, action) in actions.into_iter().enumerate() {
            if !self.budget_left() {
                self.report.truncated = true;
                return;
            }
            let mut child = node.clone();
            let label = self.apply(&mut child, &action);
            self.trace.push(label);
            self.report.states_explored += 1;
            let digest = self.digest(&child);
            if self.visited.insert(digest) {
                self.report.distinct_states += 1;
                self.dfs(&child, depth + 1);
            } else {
                self.report.pruned += 1;
            }
            self.trace.pop();
            if i < last {
                let image = if i + 1 == last {
                    image.take()
                } else {
                    image.clone()
                };
                self.service = RiService::from_image(image.expect("taken for siblings"));
            }
        }
    }

    /// Applies `action` to the live service and `node`, returning the
    /// human-readable trace label. Invariant violations are recorded on
    /// `self.report`.
    fn apply(&mut self, node: &mut Node, action: &Action) -> String {
        match *action {
            Action::Send(d) => {
                let dev = &node.devices[d];
                let step = self.script[dev.script_pos];
                let frame = self.build_frame(d, dev, step);
                let label = format!(
                    "send    {} {} (attempt {})",
                    self.devices[d].id, frame.kind, dev.attempt
                );
                let mut frame = frame;
                frame.seq = node.next_seq;
                node.next_seq += 1;
                node.devices[d].waiting = true;
                node.network.push(frame);
                label
            }
            Action::Deliver(i) => {
                let frame = node.network.remove(i);
                self.deliver(node, frame, false)
            }
            Action::Duplicate(i) => {
                let mut ghost = node.network[i].clone();
                let label = {
                    let frame = node.network.remove(i);
                    self.deliver(node, frame, true)
                };
                ghost.replayed = true;
                node.network.push(ghost);
                label
            }
            Action::Drop(i) => {
                let frame = node.network.remove(i);
                let dev = &mut node.devices[frame.device];
                // The device gives up on the lost exchange and will rebuild
                // the same step with a fresh nonce.
                dev.waiting = false;
                dev.attempt += 1;
                format!("drop    {} {}", self.devices[frame.device].id, frame.kind)
            }
        }
    }

    /// Builds the request frame for `step` of device `d` from the device's
    /// current knowledge.
    fn build_frame(&self, d: usize, dev: &DeviceNode, step: Step) -> Frame {
        let device = &self.devices[d];
        let engine = self.build_engine(d, dev.script_pos, dev.attempt);
        let now = Timestamp::new(NOW);
        match step {
            Step::Hello => Frame {
                seq: 0,
                device: d,
                kind: PduKind::DeviceHello,
                session_id: 0,
                bytes: RoapPdu::DeviceHello(DeviceHello::new(&device.id)).encode(),
                replayed: false,
            },
            Step::Register => {
                let session_id = dev
                    .latest_session
                    .expect("script orders hello before registration");
                let device_nonce = engine.random_nonce(NONCE_LEN);
                let signed = RegistrationRequest::signed_bytes(
                    session_id,
                    &device.id,
                    &device_nonce,
                    now,
                    &device.certificate,
                );
                let signature = engine
                    .pss_sign(device.keys.private(), &signed)
                    .expect("explorer keys sign");
                let request = RegistrationRequest {
                    session_id,
                    device_id: device.id.clone(),
                    device_nonce,
                    request_time: now,
                    certificate: device.certificate.clone(),
                    signature,
                };
                Frame {
                    seq: 0,
                    device: d,
                    kind: PduKind::RegistrationRequest,
                    session_id,
                    bytes: RoapPdu::RegistrationRequest(request).encode(),
                    replayed: false,
                }
            }
            Step::Acquire(_) => {
                let device_nonce = engine.random_nonce(NONCE_LEN);
                let signed = RoRequest::signed_bytes(
                    &device.id,
                    "ri.explore",
                    CONTENT_ID,
                    None,
                    &device_nonce,
                    now,
                );
                let signature = engine
                    .pss_sign(device.keys.private(), &signed)
                    .expect("explorer keys sign");
                let request = RoRequest {
                    device_id: device.id.clone(),
                    ri_id: "ri.explore".to_string(),
                    content_id: CONTENT_ID.to_string(),
                    domain_id: None,
                    device_nonce,
                    request_time: now,
                    signature,
                };
                Frame {
                    seq: 0,
                    device: d,
                    kind: PduKind::RoRequest,
                    session_id: 0,
                    bytes: RoapPdu::RoRequest(request).encode(),
                    replayed: false,
                }
            }
        }
    }

    /// Delivers `frame` to the service and checks the response against the
    /// reference model. `keep` marks a duplication fault (the caller
    /// retains a ghost copy).
    fn deliver(&mut self, node: &mut Node, frame: Frame, keep: bool) -> String {
        let device_name = self.devices[frame.device].id.clone();
        let mode = if frame.replayed {
            " [replay]"
        } else if keep {
            " [duplicate]"
        } else {
            ""
        };
        let label = format!("deliver {} {}{}", device_name, frame.kind, mode);

        // The reference model's verdict, computed before touching the
        // service.
        let dev = &node.devices[frame.device];
        let expected: Result<RiSessionState, RoapError> = match frame.kind {
            PduKind::DeviceHello => dev.model.step(PduKind::DeviceHello),
            PduKind::RegistrationRequest => {
                if dev.model.challenge_pending() && dev.latest_session == Some(frame.session_id) {
                    dev.model.step(PduKind::RegistrationRequest)
                } else {
                    // Stale or replayed pass 3: the challenge it answers is
                    // gone (consumed or superseded).
                    Err(RoapError::UnknownSession)
                }
            }
            other => dev.model.step(other),
        };

        let response_bytes = self.service.dispatch_at(&frame.bytes, Timestamp::new(NOW));
        let response = RoapPdu::decode(&response_bytes).expect("service answers well-formed PDUs");

        // Advance the device on the first delivery of its outstanding frame
        // (replay ghosts no longer carry device progress).
        let advance = !frame.replayed;
        let dev = &mut node.devices[frame.device];
        if advance {
            dev.waiting = false;
        }

        match (&expected, &response) {
            (Ok(next), RoapPdu::RiHello(hello)) if frame.kind == PduKind::DeviceHello => {
                dev.model = *next;
                // Supersession: the newest challenge is the only live one.
                dev.latest_session = Some(hello.session_id);
                if advance {
                    dev.script_pos += 1;
                }
            }
            (Ok(next), RoapPdu::RegistrationResponse(_))
                if frame.kind == PduKind::RegistrationRequest =>
            {
                dev.model = *next;
                dev.latest_session = None;
                if advance {
                    dev.script_pos += 1;
                }
            }
            (Ok(next), RoapPdu::RoResponse(ro)) if frame.kind == PduKind::RoRequest => {
                dev.model = *next;
                if advance {
                    dev.script_pos += 1;
                }
                let id = ro.rights_object.id().as_str().to_string();
                if node.ro_ids.contains(&id) {
                    self.violate(
                        "no-duplicate-RO-id",
                        format!("rights object id {id} issued twice"),
                    );
                }
                node.ro_ids.push(id);
            }
            (Err(code), RoapPdu::Status(status)) => {
                if *status != RoapStatus::Roap(*code) {
                    self.violate(
                        "reference-model-agreement",
                        format!(
                            "model expected rejection {code:?}, service answered {status:?} \
                             for {} {}",
                            device_name, frame.kind
                        ),
                    );
                }
                // A rejected outstanding exchange makes the device rebuild
                // the step with a fresh attempt.
                if advance {
                    dev.attempt += 1;
                }
            }
            _ => {
                self.violate(
                    "reference-model-agreement",
                    format!(
                        "model expected {:?}, service answered tag {} for {} {}",
                        expected,
                        response.tag(),
                        device_name,
                        frame.kind
                    ),
                );
            }
        }

        // Replay protection, stated directly: a replayed registration frame
        // must never complete a second registration.
        if frame.replayed
            && frame.kind == PduKind::RegistrationRequest
            && matches!(response, RoapPdu::RegistrationResponse(_))
        {
            self.violate(
                "replay-protection",
                format!("replayed pass 3 of {device_name} was accepted twice"),
            );
        }

        // Machine agreement: the service's derived state must match the
        // model after every delivery.
        let model = node.devices[frame.device].model;
        let actual = self.service.session_state(&device_name);
        if actual != model {
            self.violate(
                "reference-model-agreement",
                format!("service has {device_name} in {actual}, model says {model}"),
            );
        }
        label
    }

    fn violate(&mut self, invariant: &str, detail: String) {
        self.report.violations.push(Violation {
            invariant: invariant.to_string(),
            detail,
            trace: self.trace.clone(),
        });
    }

    /// Digest of one node: the service's encoded tables (its identity is
    /// constant within an exploration), device states and network buffer.
    /// Hashing the whole encoding keeps every table field — and the length
    /// prefix of every string — in the digest, so two states that differ
    /// anywhere in the service are never pruned as one.
    fn digest(&self, node: &Node) -> [u8; DIGEST_SIZE] {
        let mut tables = Vec::new();
        self.service.encode_tables(&mut tables);
        let mut hasher = Sha1::new();
        hasher.update(&tables);
        for dev in &node.devices {
            hasher.update(&[
                dev.script_pos as u8,
                dev.attempt as u8,
                dev.waiting as u8,
                match dev.model {
                    RiSessionState::Idle => 0,
                    RiSessionState::ChallengeIssued => 1,
                    RiSessionState::Registered => 2,
                    RiSessionState::Reregistering => 3,
                },
            ]);
            hasher.update(&dev.latest_session.unwrap_or(u64::MAX).to_be_bytes());
        }
        for frame in &node.network {
            hasher.update(&[frame.replayed as u8]);
            hasher.update(&frame.bytes);
        }
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_drm::{Domain, DomainId};

    #[test]
    fn faults_display_names_every_class() {
        assert_eq!(Faults::all().to_string(), "reorder+duplicate+drop");
        assert_eq!(Faults::none().to_string(), "none");
    }

    #[test]
    fn single_session_no_faults_explores_cleanly() {
        let config = ExploreConfig {
            sessions: 1,
            seed: 7,
            faults: Faults::none(),
            acquisitions: 1,
            max_depth: 16,
            max_states: 1_000,
            time_budget: Duration::from_secs(20),
        };
        let report = explore(&config);
        assert!(report.violations.is_empty(), "{report}");
        assert!(report.completed_traces >= 1);
        assert!(!report.truncated);
        assert!(report.states_explored >= 6);
    }

    #[test]
    fn digest_separates_services_that_differ_in_one_domain_member() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
        let base = RiService::new("ri.explore", BITS, &mut ca, &mut rng).state_image();
        let config = ExploreConfig {
            sessions: 0,
            seed: 3,
            faults: Faults::none(),
            acquisitions: 0,
            max_depth: 1,
            max_states: 1,
            time_budget: Duration::from_secs(1),
        };
        let root = Node {
            devices: Vec::new(),
            network: Vec::new(),
            next_seq: 0,
            ro_ids: Vec::new(),
        };
        let digest_with_member = |member: &str| {
            let mut image = base.clone();
            let family = DomainId::new("family");
            let domain = Domain::restore(family.clone(), [7; 16], 0, [member.to_string()], 4);
            image.tables.domains.insert(family, domain);
            let service = RiService::from_image(image);
            Explorer::new(service, Vec::new(), &config, Vec::new()).digest(&root)
        };
        assert_eq!(digest_with_member("dev-00"), digest_with_member("dev-00"));
        assert_ne!(digest_with_member("dev-00"), digest_with_member("dev-01"));
    }

    #[test]
    fn duplicate_faults_exercise_replay_protection() {
        let config = ExploreConfig {
            sessions: 1,
            seed: 11,
            faults: Faults {
                duplicate: true,
                drop: false,
                reorder: true,
            },
            acquisitions: 1,
            max_depth: 20,
            max_states: 5_000,
            time_budget: Duration::from_secs(30),
        };
        let report = explore(&config);
        assert!(report.violations.is_empty(), "{report}");
        // Duplication multiplies the state space beyond the fault-free run.
        assert!(report.distinct_states > 10);
    }
}
