//! The DRM Agent: the trusted logical entity inside the user's terminal.
//!
//! The agent drives the four phases of the consumption life-cycle and is the
//! only actor whose cryptographic footprint matters for the paper's cost
//! model. Every operation runs through the agent's instrumented
//! [`CryptoEngine`]; callers (in particular `oma-perf`) snapshot the engine
//! trace around each phase to obtain the per-phase operation lists.

use crate::client::{RoapClient, RoapTransport};
use crate::dcf::Dcf;
use crate::domain::DomainId;
use crate::error::DrmError;
use crate::rel::Permission;
use crate::ro::{KeyProtection, ProtectedRightsObject, RightsObjectId};
use crate::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse, RoapError, NONCE_LEN,
};
use crate::session::{AgentEvent, AgentSessionState};
use crate::storage::{DeviceStorage, InstalledRightsObject};
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::CryptoEngine;
use oma_pki::{
    verify::verify_certificate_role, Certificate, CertificationAuthority, EntityRole, Timestamp,
    ValidityPeriod,
};
use rand::RngCore;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum age of an OCSP response the agent accepts (one week).
pub const OCSP_MAX_AGE_SECONDS: u64 = 7 * 24 * 3600;

use crate::CERT_VALIDITY_SECONDS;

/// The trusted relationship a DRM Agent keeps per Rights Issuer after a
/// successful registration ("RI Context" in the standard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiContext {
    /// Rights Issuer identifier.
    pub ri_id: String,
    /// The verified Rights Issuer certificate.
    pub ri_certificate: Certificate,
    /// When the registration completed.
    pub registered_at: Timestamp,
    /// The ROAP session id used during registration.
    pub session_id: u64,
}

/// The DRM Agent actor.
#[derive(Debug)]
pub struct DrmAgent {
    device_id: String,
    keys: RsaKeyPair,
    certificate: Certificate,
    ca_root: Certificate,
    engine: CryptoEngine,
    storage: DeviceStorage,
    ri_contexts: HashMap<String, RiContext>,
}

impl DrmAgent {
    /// Creates a DRM Agent: generates the device RSA key pair and the
    /// device storage key `K_DEV`, and obtains a device certificate from
    /// `ca`. The agent's cryptography runs on the pure-software backend;
    /// use [`DrmAgent::with_backend`] to model a terminal with hardware
    /// crypto macros.
    pub fn new<R: RngCore + ?Sized>(
        device_id: &str,
        modulus_bits: usize,
        ca: &mut CertificationAuthority,
        rng: &mut R,
    ) -> Self {
        Self::with_backend(
            device_id,
            modulus_bits,
            ca,
            Arc::new(SoftwareBackend::new()),
            rng,
        )
    }

    /// Creates a DRM Agent whose cryptography executes on `backend` — the
    /// terminal architecture under evaluation. `oma-perf` maps each
    /// `Architecture` variant onto a backend and measures the protocol on
    /// it.
    pub fn with_backend<R: RngCore + ?Sized>(
        device_id: &str,
        modulus_bits: usize,
        ca: &mut CertificationAuthority,
        backend: Arc<dyn CryptoBackend>,
        rng: &mut R,
    ) -> Self {
        let keys = RsaKeyPair::generate(modulus_bits, rng);
        let certificate = ca.issue(
            device_id,
            EntityRole::DrmAgent,
            keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), CERT_VALIDITY_SECONDS),
        );
        let ca_root = ca.root_certificate().clone();
        Self::with_credentials(device_id, keys, certificate, ca_root, backend, rng)
    }

    /// Assembles an agent from pre-provisioned credentials: a key pair and a
    /// matching device certificate obtained earlier. This lets callers
    /// generate the (expensive) RSA key pair outside any lock guarding a
    /// shared [`CertificationAuthority`] — the `oma-load` fleet harness
    /// provisions its devices this way so worker threads never serialise on
    /// key generation.
    pub fn with_credentials<R: RngCore + ?Sized>(
        device_id: &str,
        keys: RsaKeyPair,
        certificate: Certificate,
        ca_root: Certificate,
        backend: Arc<dyn CryptoBackend>,
        rng: &mut R,
    ) -> Self {
        let engine = CryptoEngine::with_backend(backend, rng.next_u64());
        let mut kdev = [0u8; 16];
        rng.fill_bytes(&mut kdev);
        DrmAgent {
            device_id: device_id.to_string(),
            keys,
            certificate,
            ca_root,
            engine,
            storage: DeviceStorage::new(kdev),
            ri_contexts: HashMap::new(),
        }
    }

    /// The device identifier.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// The device certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// The instrumented crypto engine. `oma-perf` snapshots its trace around
    /// each protocol phase.
    pub fn engine(&self) -> &CryptoEngine {
        &self.engine
    }

    /// Whether a trusted relationship with `ri_id` exists.
    pub fn is_registered_with(&self, ri_id: &str) -> bool {
        self.ri_contexts.contains_key(ri_id)
    }

    /// The typed session-machine state of the relationship with `ri_id`:
    /// [`AgentSessionState::Registered`] once an RI Context is pinned,
    /// [`AgentSessionState::Idle`] otherwise. The in-flight exchange states
    /// (`HelloSent`, `ChallengeReceived`, ...) are scoped to one protocol
    /// call — [`DrmAgent::register`] and [`DrmAgent::acquire_rights`] step
    /// the machine through them and only the `Registered` outcome persists,
    /// as the RI Context.
    pub fn session_state(&self, ri_id: &str) -> AgentSessionState {
        if self.ri_contexts.contains_key(ri_id) {
            AgentSessionState::Registered
        } else {
            AgentSessionState::Idle
        }
    }

    /// The RI Context for `ri_id`, if registered.
    pub fn ri_context(&self, ri_id: &str) -> Option<&RiContext> {
        self.ri_contexts.get(ri_id)
    }

    /// Identifiers of all installed Rights Objects.
    pub fn installed_rights(&self) -> Vec<RightsObjectId> {
        self.storage.installed_ids().cloned().collect()
    }

    /// Installed Rights Objects covering `content_id`.
    pub fn rights_for_content(&self, content_id: &str) -> Vec<RightsObjectId> {
        self.storage
            .find_for_content(content_id)
            .map(|ro| ro.payload.id.clone())
            .collect()
    }

    /// Remaining use count for `permission` under an installed Rights
    /// Object, if it is count-constrained.
    pub fn remaining_count(&self, ro_id: &RightsObjectId, permission: Permission) -> Option<u32> {
        self.storage
            .get(ro_id)
            .and_then(|ro| ro.usage.get(&permission))
            .and_then(|state| state.remaining_count())
    }

    /// Domains this device has joined.
    pub fn joined_domains(&self) -> Vec<DomainId> {
        self.storage.domains().cloned().collect()
    }

    // ----- phase 1: registration -------------------------------------------------

    /// Runs the 4-pass ROAP registration protocol (paper §2.4.1) over a
    /// [`RoapClient`], establishing an RI Context. Every message crosses the
    /// client's transport as encoded PDU frames; an agent in the same
    /// process as its Rights Issuer passes `&RoapClient::in_proc(&service)`.
    ///
    /// # Errors
    ///
    /// [`DrmError::Roap`] when the Rights Issuer rejects the registration,
    /// [`DrmError::Pki`] when the Rights Issuer certificate or its OCSP
    /// response does not verify, and [`DrmError::Transport`] when the
    /// transport fails.
    pub fn register<T: RoapTransport>(
        &mut self,
        client: &RoapClient<T>,
        now: Timestamp,
    ) -> Result<(), DrmError> {
        // The driver is a walk of the typed agent machine: each protocol
        // action is a machine step, and a misordered exchange would be
        // rejected with the machine's stable code instead of limping on.
        let state = AgentSessionState::Idle.step(AgentEvent::SendHello)?;
        // Pass 1 and 2: the hello exchange negotiates algorithms; it involves
        // no cryptography.
        let hello = client.hello(&DeviceHello::new(&self.device_id))?;
        let state = state.step(AgentEvent::ChallengeReceived)?;
        // Pass 3: signed RegistrationRequest.
        let request = self.registration_request(&hello, now)?;
        let state = state.step(AgentEvent::SendRegistration)?;
        let response = client.register(&request)?;
        // Pass 4: verify the RegistrationResponse.
        self.complete_registration(&hello, &request, &response, now)?;
        debug_assert_eq!(
            state.step(AgentEvent::ResponseVerified),
            Ok(AgentSessionState::Registered)
        );
        Ok(())
    }

    /// Builds the signed `RegistrationRequest` answering `hello` (pass 3 of
    /// registration) without sending it — the sans-io form batching drivers
    /// use to assemble many requests before one bulk exchange.
    ///
    /// # Errors
    ///
    /// [`DrmError::Crypto`] when signing fails (device key too small).
    pub fn registration_request(
        &mut self,
        hello: &RiHello,
        now: Timestamp,
    ) -> Result<RegistrationRequest, DrmError> {
        let device_nonce = self.engine.random_nonce(NONCE_LEN);
        let signed = RegistrationRequest::signed_bytes(
            hello.session_id,
            &self.device_id,
            &device_nonce,
            now,
            &self.certificate,
        );
        let signature = self.engine.pss_sign(self.keys.private(), &signed)?;
        Ok(RegistrationRequest {
            session_id: hello.session_id,
            device_id: self.device_id.clone(),
            device_nonce,
            request_time: now,
            certificate: self.certificate.clone(),
            signature,
        })
    }

    /// Verifies the `RegistrationResponse` to `request` (pass 4) and, on
    /// success, establishes the RI Context: checks the nonce and identity
    /// echoes, the response signature, the Rights Issuer certificate chain
    /// and the freshness of its OCSP response.
    ///
    /// # Errors
    ///
    /// [`DrmError::Roap`] for echo or signature failures, [`DrmError::Pki`]
    /// for certificate or OCSP failures.
    pub fn complete_registration(
        &mut self,
        hello: &RiHello,
        request: &RegistrationRequest,
        response: &RegistrationResponse,
        now: Timestamp,
    ) -> Result<(), DrmError> {
        if response.device_nonce != request.device_nonce || response.ri_id != hello.ri_id {
            return Err(DrmError::Roap(RoapError::Malformed));
        }
        // Pin the claimed RI identity to the certificate: on a real wire the
        // hello and the response come from the same (untrusted) peer, so the
        // only authority binding `ri_id` to a key is the CA-attested subject.
        if response.ri_certificate.subject() != response.ri_id {
            return Err(DrmError::Roap(RoapError::CertificateInvalid));
        }
        let signed = RegistrationResponse::signed_bytes(
            response.session_id,
            &response.ri_id,
            &response.device_nonce,
            &response.ri_certificate,
            &response.ocsp_response,
        );
        if !self.engine.pss_verify(
            response.ri_certificate.public_key(),
            &signed,
            &response.signature,
        ) {
            return Err(DrmError::Roap(RoapError::SignatureInvalid));
        }
        verify_certificate_role(
            &self.engine,
            &response.ri_certificate,
            &self.ca_root,
            EntityRole::RightsIssuer,
            now,
        )?;
        response.ocsp_response.verify(
            &self.engine,
            &response.ri_certificate,
            &self.ca_root,
            None,
            now,
            OCSP_MAX_AGE_SECONDS,
        )?;

        self.ri_contexts.insert(
            response.ri_id.clone(),
            RiContext {
                ri_id: response.ri_id.clone(),
                ri_certificate: response.ri_certificate.clone(),
                registered_at: now,
                session_id: response.session_id,
            },
        );
        Ok(())
    }

    // ----- phase 2: acquisition ----------------------------------------------------

    /// Acquires a Device Rights Object for `content_id` (paper §2.4.2) over
    /// a [`RoapClient`]. `ri_id` names the Rights Issuer (known from the
    /// registration that established the RI Context).
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without a prior registration,
    /// [`DrmError::Roap`] when the Rights Issuer rejects the request or its
    /// response does not verify, and [`DrmError::Transport`] when the
    /// transport fails.
    pub fn acquire_rights<T: RoapTransport>(
        &mut self,
        client: &RoapClient<T>,
        ri_id: &str,
        content_id: &str,
        now: Timestamp,
    ) -> Result<RoResponse, DrmError> {
        // Machine step: acquisition is only legal from a registered state;
        // an unregistered relationship is rejected before anything is
        // signed or sent.
        let state = self
            .session_state(ri_id)
            .step(AgentEvent::SendRoRequest)
            .map_err(|_| DrmError::NotRegistered)?;
        let request = self.ro_request(ri_id, content_id, None, now)?;
        let response = client.request_ro(&request)?;
        self.verify_ro_response(&request, &response)?;
        debug_assert_eq!(
            state
                .step(AgentEvent::RoVerified)
                .map(AgentSessionState::settle),
            Ok(AgentSessionState::Registered)
        );
        Ok(response)
    }

    /// Acquires a Domain Rights Object for `content_id` targeting
    /// `domain_id` over a [`RoapClient`]. The device must have joined the
    /// domain first.
    ///
    /// # Errors
    ///
    /// Same as [`DrmAgent::acquire_rights`], plus
    /// [`DrmError::NotInDomain`] when the device has not joined `domain_id`.
    pub fn acquire_domain_rights<T: RoapTransport>(
        &mut self,
        client: &RoapClient<T>,
        ri_id: &str,
        content_id: &str,
        domain_id: &DomainId,
        now: Timestamp,
    ) -> Result<RoResponse, DrmError> {
        if self.storage.domain_key(domain_id).is_none() {
            return Err(DrmError::NotInDomain);
        }
        // Machine step: same registered-state gate as
        // [`DrmAgent::acquire_rights`].
        let state = self
            .session_state(ri_id)
            .step(AgentEvent::SendRoRequest)
            .map_err(|_| DrmError::NotRegistered)?;
        let request = self.ro_request(ri_id, content_id, Some(domain_id.clone()), now)?;
        let response = client.request_ro(&request)?;
        self.verify_ro_response(&request, &response)?;
        debug_assert_eq!(
            state
                .step(AgentEvent::RoVerified)
                .map(AgentSessionState::settle),
            Ok(AgentSessionState::Registered)
        );
        Ok(response)
    }

    /// Builds a signed `RORequest` without sending it — the sans-io form
    /// batching drivers use. Device-RO when `domain_id` is `None`, Domain-RO
    /// otherwise (the caller is responsible for the membership check that
    /// [`DrmAgent::acquire_domain_rights`] performs).
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without an RI Context for `ri_id`,
    /// [`DrmError::Crypto`] when signing fails.
    pub fn ro_request(
        &mut self,
        ri_id: &str,
        content_id: &str,
        domain_id: Option<DomainId>,
        now: Timestamp,
    ) -> Result<RoRequest, DrmError> {
        // Machine step: the RI-context map is the `Registered` witness —
        // the machine rejects acquisition from any other state before the
        // nonce is drawn or anything is signed.
        if self
            .session_state(ri_id)
            .step(AgentEvent::SendRoRequest)
            .is_err()
        {
            return Err(DrmError::NotRegistered);
        }
        let context_ri_id = ri_id.to_string();
        let device_nonce = self.engine.random_nonce(NONCE_LEN);
        let signed = RoRequest::signed_bytes(
            &self.device_id,
            &context_ri_id,
            content_id,
            domain_id.as_ref(),
            &device_nonce,
            now,
        );
        let signature = self.engine.pss_sign(self.keys.private(), &signed)?;
        Ok(RoRequest {
            device_id: self.device_id.clone(),
            ri_id: context_ri_id,
            content_id: content_id.to_string(),
            domain_id,
            device_nonce,
            request_time: now,
            signature,
        })
    }

    /// Agent-side verification of the `ROResponse` to `request`: the nonce
    /// echo and the Rights Issuer signature, checked against the RI Context
    /// established at registration.
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without an RI Context,
    /// [`DrmError::Roap`] when the echo or signature is wrong.
    pub fn verify_ro_response(
        &self,
        request: &RoRequest,
        response: &RoResponse,
    ) -> Result<(), DrmError> {
        let context = self
            .ri_contexts
            .get(&request.ri_id)
            .ok_or(DrmError::NotRegistered)?;
        response.verify(&self.engine, &context.ri_certificate, &request.device_nonce)?;
        Ok(())
    }

    // ----- phase 3: installation ----------------------------------------------------

    /// Installs the Rights Object carried by a verified `ROResponse`
    /// (paper §2.4.3 and Figure 3): unwraps `K_MAC ‖ K_REK`, checks the RO
    /// MAC (and signature for Domain ROs), then re-wraps the keys under the
    /// device key `K_DEV` so later accesses need only symmetric operations.
    ///
    /// # Errors
    ///
    /// [`DrmError::RightsObjectIntegrity`] when the MAC check fails,
    /// [`DrmError::RightsObjectSignature`] when the mandatory Domain RO
    /// signature is missing or invalid, [`DrmError::NotInDomain`] when the
    /// device lacks the domain key, and [`DrmError::Crypto`] when key
    /// unwrapping fails (wrong recipient).
    pub fn install_rights(
        &mut self,
        response: &RoResponse,
        now: Timestamp,
    ) -> Result<RightsObjectId, DrmError> {
        self.install_protected_ro(&response.rights_object, &response.ri_id, now)
    }

    /// Installs a protected Rights Object obtained outside a `ROResponse`
    /// (e.g. a Domain RO copied from another member device).
    ///
    /// # Errors
    ///
    /// See [`DrmAgent::install_rights`]; additionally
    /// [`DrmError::NotRegistered`] if no RI Context exists for `ri_id`.
    pub fn install_protected_ro(
        &mut self,
        ro: &ProtectedRightsObject,
        ri_id: &str,
        _now: Timestamp,
    ) -> Result<RightsObjectId, DrmError> {
        let context = self
            .ri_contexts
            .get(ri_id)
            .cloned()
            .ok_or(DrmError::NotRegistered)?;

        // Recover K_MAC || K_REK.
        let (kmac, krek, domain_id) = match &ro.key_protection {
            KeyProtection::Device(wrapped) => {
                let (kmac, krek) = self.engine.kem_unwrap(self.keys.private(), wrapped)?;
                (kmac, krek, None)
            }
            KeyProtection::Domain {
                domain_id,
                generation,
                wrapped,
            } => {
                let (stored_generation, key) = self
                    .storage
                    .domain_key(domain_id)
                    .ok_or(DrmError::NotInDomain)?;
                if stored_generation != *generation {
                    return Err(DrmError::NotInDomain);
                }
                let key = *key;
                let material = self.engine.aes_unwrap(&key, wrapped)?;
                if material.len() != 32 {
                    return Err(DrmError::Crypto(
                        oma_crypto::CryptoError::MalformedPlaintext(
                            "domain-wrapped key material must be 32 bytes",
                        ),
                    ));
                }
                let mut kmac = [0u8; 16];
                let mut krek = [0u8; 16];
                kmac.copy_from_slice(&material[..16]);
                krek.copy_from_slice(&material[16..]);
                (kmac, krek, Some(domain_id.clone()))
            }
        };

        // Integrity and authenticity.
        let payload_bytes = ro.payload.to_bytes();
        if !self.engine.hmac_sha1_verify(&kmac, &payload_bytes, &ro.mac) {
            return Err(DrmError::RightsObjectIntegrity);
        }
        match (&ro.signature, ro.key_protection.is_domain()) {
            (Some(signature), _) => {
                if !self.engine.pss_verify(
                    context.ri_certificate.public_key(),
                    &payload_bytes,
                    signature,
                ) {
                    return Err(DrmError::RightsObjectSignature);
                }
            }
            (None, true) => return Err(DrmError::RightsObjectSignature),
            (None, false) => {}
        }

        // Re-wrap K_MAC || K_REK under the device key (C2dev of Figure 3).
        let mut key_material = [0u8; 32];
        key_material[..16].copy_from_slice(&kmac);
        key_material[16..].copy_from_slice(&krek);
        let c2dev = self.engine.aes_wrap(self.storage.kdev(), &key_material)?;

        let id = ro.payload.id.clone();
        self.storage.install(InstalledRightsObject {
            payload: ro.payload.clone(),
            mac: ro.mac,
            c2dev,
            domain_id,
            usage: HashMap::new(),
        });
        Ok(id)
    }

    // ----- phase 4: consumption -------------------------------------------------------

    /// Consumes protected content: performs the per-access processing steps
    /// of paper §2.4.4 and returns the decrypted plaintext.
    ///
    /// Steps, in order: unwrap `C2dev` with `K_DEV`; verify the RO MAC;
    /// verify the DCF hash; enforce the REL constraint for `permission`;
    /// unwrap `K_CEK` with `K_REK`; AES-CBC-decrypt the payload.
    ///
    /// # Errors
    ///
    /// [`DrmError::RightsObjectNotInstalled`], [`DrmError::ContentMismatch`],
    /// [`DrmError::RightsObjectIntegrity`], [`DrmError::DcfIntegrity`],
    /// [`DrmError::PermissionNotGranted`], [`DrmError::ConstraintViolated`],
    /// or [`DrmError::Crypto`] for key-unwrap failures.
    pub fn consume(
        &mut self,
        ro_id: &RightsObjectId,
        dcf: &Dcf,
        permission: Permission,
        now: Timestamp,
    ) -> Result<Vec<u8>, DrmError> {
        let kdev = *self.storage.kdev();
        let installed = self
            .storage
            .get(ro_id)
            .ok_or(DrmError::RightsObjectNotInstalled)?;

        if installed.payload.content_id != dcf.content_id() {
            return Err(DrmError::ContentMismatch);
        }

        // Step 1: decrypt C2dev using K_DEV.
        let material = self.engine.aes_unwrap(&kdev, &installed.c2dev)?;
        let mut kmac = [0u8; 16];
        let mut krek = [0u8; 16];
        kmac.copy_from_slice(&material[..16]);
        krek.copy_from_slice(&material[16..]);

        // Step 2: verify RO integrity via its MAC.
        let payload_bytes = installed.payload.to_bytes();
        if !self
            .engine
            .hmac_sha1_verify(&kmac, &payload_bytes, &installed.mac)
        {
            return Err(DrmError::RightsObjectIntegrity);
        }

        // Step 3: verify DCF integrity against the hash inside the RO.
        let dcf_hash = dcf.hash_with(&self.engine);
        if dcf_hash != installed.payload.dcf_hash {
            return Err(DrmError::DcfIntegrity);
        }

        // Step 4: enforce the usage rights.
        let constraint = installed
            .payload
            .rights
            .constraint_for(permission)
            .ok_or(DrmError::PermissionNotGranted)?;
        let encrypted_cek = installed.payload.encrypted_cek.clone();
        let iv = *dcf.iv();
        {
            let installed = self
                .storage
                .get_mut(ro_id)
                .ok_or(DrmError::RightsObjectNotInstalled)?;
            installed
                .usage_mut(permission)
                .check_and_consume(constraint, now)
                .map_err(|_| DrmError::ConstraintViolated)?;
        }

        // Step 5: unwrap K_CEK with K_REK and decrypt the content.
        let cek = self.engine.aes_unwrap(&krek, &encrypted_cek)?;
        let plaintext = self
            .engine
            .aes_cbc_decrypt(&cek, &iv, dcf.encrypted_payload())?;
        Ok(plaintext)
    }

    // ----- domains ----------------------------------------------------------------------

    /// Joins a domain over a [`RoapClient`], obtaining and storing the
    /// shared domain key.
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without a prior registration,
    /// [`DrmError::Roap`] when the Rights Issuer rejects the join or its
    /// response does not verify, and [`DrmError::Transport`] when the
    /// transport fails.
    pub fn join_domain<T: RoapTransport>(
        &mut self,
        client: &RoapClient<T>,
        ri_id: &str,
        domain_id: &DomainId,
        now: Timestamp,
    ) -> Result<(), DrmError> {
        let request = self.join_request(ri_id, domain_id, now)?;
        let response = client.join_domain(&request)?;
        self.complete_join(&request, &response)
    }

    /// Builds a signed `JoinDomainRequest` without sending it (sans-io form).
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without an RI Context for `ri_id`,
    /// [`DrmError::Crypto`] when signing fails.
    pub fn join_request(
        &mut self,
        ri_id: &str,
        domain_id: &DomainId,
        now: Timestamp,
    ) -> Result<JoinDomainRequest, DrmError> {
        // Machine step: domain join requires the `Registered` state, same
        // gate as `ro_request`.
        if self
            .session_state(ri_id)
            .step(AgentEvent::SendRoRequest)
            .is_err()
        {
            return Err(DrmError::NotRegistered);
        }
        let context_ri_id = ri_id.to_string();
        let device_nonce = self.engine.random_nonce(NONCE_LEN);
        let signed = JoinDomainRequest::signed_bytes(
            &self.device_id,
            &context_ri_id,
            domain_id,
            &device_nonce,
            now,
        );
        let signature = self.engine.pss_sign(self.keys.private(), &signed)?;
        Ok(JoinDomainRequest {
            device_id: self.device_id.clone(),
            ri_id: context_ri_id,
            domain_id: domain_id.clone(),
            device_nonce,
            request_time: now,
            signature,
        })
    }

    /// Verifies the `JoinDomainResponse` to `request`, decrypts the domain
    /// key and stores it: the echoes, the Rights Issuer signature, then one
    /// RSA private-key operation to recover the key.
    ///
    /// # Errors
    ///
    /// [`DrmError::NotRegistered`] without an RI Context, [`DrmError::Roap`]
    /// for echo or signature failures, [`DrmError::Crypto`] when the key
    /// fails to decrypt.
    pub fn complete_join(
        &mut self,
        request: &JoinDomainRequest,
        response: &JoinDomainResponse,
    ) -> Result<(), DrmError> {
        let context = self
            .ri_contexts
            .get(&request.ri_id)
            .cloned()
            .ok_or(DrmError::NotRegistered)?;
        if response.device_nonce != request.device_nonce || response.domain_id != request.domain_id
        {
            return Err(DrmError::Roap(RoapError::Malformed));
        }
        let signed = JoinDomainResponse::signed_bytes(
            &response.device_id,
            &response.ri_id,
            &response.domain_id,
            response.generation,
            &response.encrypted_domain_key,
            &response.device_nonce,
        );
        if !self.engine.pss_verify(
            context.ri_certificate.public_key(),
            &signed,
            &response.signature,
        ) {
            return Err(DrmError::Roap(RoapError::SignatureInvalid));
        }
        let decrypted = self
            .engine
            .rsa_decrypt(self.keys.private(), &response.encrypted_domain_key)?;
        if decrypted.len() < 16 {
            return Err(DrmError::Crypto(
                oma_crypto::CryptoError::MalformedPlaintext("domain key too short"),
            ));
        }
        let mut key = [0u8; 16];
        key.copy_from_slice(&decrypted[decrypted.len() - 16..]);
        self.storage
            .store_domain_key(request.domain_id.clone(), response.generation, key);
        Ok(())
    }

    /// Leaves a domain: forgets the domain key locally and notifies the
    /// Rights Issuer over a [`RoapClient`]. The local domain key is removed
    /// even when the Rights Issuer reports a failure.
    ///
    /// # Errors
    ///
    /// Propagates the Rights Issuer's failure reason —
    /// [`DrmError::Roap`]/[`RoapError::UnknownDomain`] for an unknown domain
    /// or [`DrmError::NotInDomain`] when the device was not a member — and
    /// [`DrmError::Transport`] when the transport fails. The local domain
    /// key is removed in every case.
    pub fn leave_domain<T: RoapTransport>(
        &mut self,
        client: &RoapClient<T>,
        domain_id: &DomainId,
    ) -> Result<(), DrmError> {
        self.storage.remove_domain_key(domain_id);
        client.leave_domain(&self.device_id, domain_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::RightsTemplate;
    use crate::service::RiService;
    use crate::ContentIssuer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        ca: CertificationAuthority,
        ri: RiService,
        agent: DrmAgent,
        dcf: Dcf,
    }

    fn world(template: RightsTemplate) -> World {
        let mut rng = StdRng::seed_from_u64(0x0acace);
        let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
        let ri = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
        let agent = DrmAgent::new("phone-001", 512, &mut ca, &mut rng);
        let ci = ContentIssuer::new("ci.example.com");
        let (dcf, cek) = ci.package(b"some protected audio content", "cid:track", &mut rng);
        ri.add_content("cid:track", cek, &dcf, template);
        World { ca, ri, agent, dcf }
    }

    #[test]
    fn full_lifecycle_device_ro() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        assert!(!w.agent.is_registered_with("ri.example.com"));
        w.agent.register(&client, now).unwrap();
        assert!(w.agent.is_registered_with("ri.example.com"));
        assert!(w.ri.is_registered("phone-001"));
        assert_eq!(
            w.agent.ri_context("ri.example.com").unwrap().ri_id,
            "ri.example.com"
        );

        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let ro_id = w.agent.install_rights(&response, now).unwrap();
        assert_eq!(w.agent.installed_rights(), vec![ro_id.clone()]);
        assert_eq!(w.agent.rights_for_content("cid:track"), vec![ro_id.clone()]);

        let plaintext = w
            .agent
            .consume(&ro_id, &w.dcf, Permission::Play, now)
            .unwrap();
        assert_eq!(plaintext, b"some protected audio content");
        // Unconstrained play works repeatedly.
        assert!(w
            .agent
            .consume(&ro_id, &w.dcf, Permission::Play, now.plus(5))
            .is_ok());
    }

    #[test]
    fn acquisition_requires_registration() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let now = Timestamp::new(1_000);
        assert_eq!(
            w.agent
                .acquire_rights(&RoapClient::in_proc(&w.ri), w.ri.id(), "cid:track", now),
            Err(DrmError::NotRegistered)
        );
    }

    #[test]
    fn unknown_content_rejected_by_ri() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        assert_eq!(
            w.agent.acquire_rights(&client, w.ri.id(), "cid:other", now),
            Err(DrmError::Roap(RoapError::UnknownRightsObject))
        );
    }

    #[test]
    fn count_constraint_enforced_across_consumptions() {
        let mut w = world(RightsTemplate::counted(Permission::Play, 2));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let ro_id = w.agent.install_rights(&response, now).unwrap();
        assert_eq!(
            w.agent.remaining_count(&ro_id, Permission::Play),
            None,
            "state starts lazily"
        );
        assert!(w
            .agent
            .consume(&ro_id, &w.dcf, Permission::Play, now)
            .is_ok());
        assert_eq!(w.agent.remaining_count(&ro_id, Permission::Play), Some(1));
        assert!(w
            .agent
            .consume(&ro_id, &w.dcf, Permission::Play, now)
            .is_ok());
        assert_eq!(
            w.agent.consume(&ro_id, &w.dcf, Permission::Play, now),
            Err(DrmError::ConstraintViolated)
        );
    }

    #[test]
    fn wrong_permission_rejected() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let ro_id = w.agent.install_rights(&response, now).unwrap();
        assert_eq!(
            w.agent.consume(&ro_id, &w.dcf, Permission::Print, now),
            Err(DrmError::PermissionNotGranted)
        );
    }

    #[test]
    fn tampered_dcf_detected() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let ro_id = w.agent.install_rights(&response, now).unwrap();
        let tampered = w.dcf.tampered();
        assert_eq!(
            w.agent.consume(&ro_id, &tampered, Permission::Play, now),
            Err(DrmError::DcfIntegrity)
        );
    }

    #[test]
    fn tampered_rights_object_detected_at_install() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        let mut response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        // Flip a MAC bit.
        response.rights_object.mac[0] ^= 1;
        assert_eq!(
            w.agent
                .install_protected_ro(&response.rights_object, "ri.example.com", now),
            Err(DrmError::RightsObjectIntegrity)
        );
    }

    #[test]
    fn rights_object_for_other_device_cannot_be_installed() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        let mut rng = StdRng::seed_from_u64(77);
        let mut other = DrmAgent::new("phone-002", 512, &mut w.ca, &mut rng);
        w.agent.register(&client, now).unwrap();
        other.register(&client, now).unwrap();
        // The RO is addressed to `agent`, not `other`.
        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let result = other.install_protected_ro(&response.rights_object, "ri.example.com", now);
        assert!(result.is_err(), "foreign device must not unwrap the keys");
    }

    #[test]
    fn revoked_rights_issuer_is_rejected_at_registration() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let now = Timestamp::new(1_000);
        w.ca.revoke(w.ri.certificate().serial());
        w.ri.refresh_ocsp(&w.ca, now);
        let err = w
            .agent
            .register(&RoapClient::in_proc(&w.ri), now)
            .unwrap_err();
        assert_eq!(err, DrmError::Pki(oma_pki::PkiError::CertificateRevoked));
        assert!(!w.agent.is_registered_with("ri.example.com"));
    }

    #[test]
    fn stale_ocsp_requires_refresh() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        // The RI fetched its OCSP response at t=0; far in the future it is stale.
        let far_future = Timestamp::new(OCSP_MAX_AGE_SECONDS + 10_000);
        let err = w.agent.register(&client, far_future).unwrap_err();
        assert_eq!(err, DrmError::Pki(oma_pki::PkiError::OcspResponseStale));
        w.ri.refresh_ocsp(&w.ca, far_future);
        assert!(w.agent.register(&client, far_future).is_ok());
    }

    #[test]
    fn domain_lifecycle_share_license_between_devices() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        let mut rng = StdRng::seed_from_u64(88);
        let mut player = DrmAgent::new("mp3-player", 512, &mut w.ca, &mut rng);

        w.agent.register(&client, now).unwrap();
        player.register(&client, now).unwrap();

        let domain = w.ri.create_domain("family", 4);
        w.agent
            .join_domain(&client, w.ri.id(), &domain, now)
            .unwrap();
        player
            .join_domain(&client, w.ri.id(), &domain, now)
            .unwrap();
        assert_eq!(w.ri.domain_member_count(&domain), Some(2));
        assert_eq!(w.agent.joined_domains(), vec![domain.clone()]);

        // The phone acquires a Domain RO; the player installs the very same RO.
        let response = w
            .agent
            .acquire_domain_rights(&client, w.ri.id(), "cid:track", &domain, now)
            .unwrap();
        assert!(response.rights_object.is_domain_ro());
        let ro_id = w.agent.install_rights(&response, now).unwrap();
        let ro_id_player = player
            .install_protected_ro(&response.rights_object, "ri.example.com", now)
            .unwrap();
        assert_eq!(ro_id, ro_id_player);

        assert_eq!(
            w.agent
                .consume(&ro_id, &w.dcf, Permission::Play, now)
                .unwrap(),
            b"some protected audio content"
        );
        assert_eq!(
            player
                .consume(&ro_id_player, &w.dcf, Permission::Play, now)
                .unwrap(),
            b"some protected audio content"
        );

        // A device outside the domain cannot install the Domain RO.
        let mut outsider = DrmAgent::new("outsider", 512, &mut w.ca, &mut rng);
        outsider.register(&client, now).unwrap();
        assert_eq!(
            outsider.install_protected_ro(&response.rights_object, "ri.example.com", now),
            Err(DrmError::NotInDomain)
        );

        // Leaving the domain removes the key.
        w.agent.leave_domain(&client, &domain).unwrap();
        assert!(w.agent.joined_domains().is_empty());
        assert_eq!(w.ri.domain_member_count(&domain), Some(1));
        // Leaving again fails with the specific reason.
        assert_eq!(
            w.agent.leave_domain(&client, &domain),
            Err(DrmError::NotInDomain)
        );
    }

    #[test]
    fn domain_rights_require_membership() {
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.register(&client, now).unwrap();
        let domain = w.ri.create_domain("family", 4);
        assert_eq!(
            w.agent
                .acquire_domain_rights(&client, w.ri.id(), "cid:track", &domain, now),
            Err(DrmError::NotInDomain)
        );
    }

    #[test]
    fn engine_trace_accumulates_per_phase() {
        use oma_crypto::Algorithm;
        let mut w = world(RightsTemplate::unlimited(Permission::Play));
        let client = RoapClient::in_proc(&w.ri);
        let now = Timestamp::new(1_000);
        w.agent.engine().reset_trace();

        w.agent.register(&client, now).unwrap();
        let registration = w.agent.engine().take_trace();
        assert_eq!(registration.count(Algorithm::RsaPrivate).invocations, 1);
        assert_eq!(registration.count(Algorithm::RsaPublic).invocations, 3);

        let response = w
            .agent
            .acquire_rights(&client, w.ri.id(), "cid:track", now)
            .unwrap();
        let acquisition = w.agent.engine().take_trace();
        assert_eq!(acquisition.count(Algorithm::RsaPrivate).invocations, 1);
        assert_eq!(acquisition.count(Algorithm::RsaPublic).invocations, 1);

        let ro_id = w.agent.install_rights(&response, now).unwrap();
        let installation = w.agent.engine().take_trace();
        assert_eq!(installation.count(Algorithm::RsaPrivate).invocations, 1);
        assert!(installation.count(Algorithm::AesDecrypt).blocks > 0);
        assert!(installation.count(Algorithm::AesEncrypt).blocks > 0);
        assert_eq!(installation.count(Algorithm::HmacSha1).invocations, 1);

        w.agent
            .consume(&ro_id, &w.dcf, Permission::Play, now)
            .unwrap();
        let consumption = w.agent.engine().take_trace();
        assert_eq!(consumption.count(Algorithm::RsaPrivate).invocations, 0);
        assert_eq!(consumption.count(Algorithm::RsaPublic).invocations, 0);
        assert_eq!(consumption.count(Algorithm::HmacSha1).invocations, 1);
        assert_eq!(consumption.count(Algorithm::Sha1).invocations, 1);
        assert!(consumption.count(Algorithm::AesDecrypt).blocks > 0);
    }
}
