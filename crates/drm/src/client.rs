//! The transport-agnostic ROAP client.
//!
//! [`RoapClient`] is the *only* way a [`DrmAgent`](crate::DrmAgent) talks to
//! a Rights Issuer: it encodes each request into a [`RoapPdu`] frame, pushes
//! the bytes through a [`RoapTransport`], and decodes the peer's answer —
//! mapping wire-level [`RoapStatus`](crate::wire::RoapStatus) errors back
//! into [`DrmError`]s. Two transports ship with the crate:
//!
//! * [`InProcTransport`] — calls [`RiService::dispatch`] directly on a
//!   borrowed service ([`RoapClient::in_proc`]). An in-process agent still
//!   sends encoded frames, so the in-process and wire paths are one code
//!   path.
//! * [`ChannelTransport`] — a byte channel between two endpoints, for tests
//!   and examples that want a real serialized boundary (typically with
//!   [`serve`] running the service end on another thread).
//!
//! Any real transport (TCP framing, HTTP body, QUIC stream) only has to
//! implement [`RoapTransport::roundtrip`]: frame bytes out, frame bytes in.

use crate::domain::DomainId;
use crate::error::DrmError;
use crate::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse, RoapError,
};
use crate::service::RiService;
use crate::wire::RoapPdu;
use std::sync::mpsc;

/// A bidirectional byte pipe that carries one ROAP frame per exchange.
///
/// Implementations move opaque frames; all protocol knowledge lives in
/// [`RoapClient`] on one side and [`RiService::dispatch`] on the other.
pub trait RoapTransport {
    /// Sends one encoded request frame and returns the peer's response frame.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] when the frame could not be delivered or no
    /// response arrived.
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError>;
}

/// A transport that hands each frame straight to a borrowed
/// [`RiService::dispatch`] — no threads, no copies beyond the frames
/// themselves.
#[derive(Debug, Clone, Copy)]
pub struct InProcTransport<'a> {
    service: &'a RiService,
}

impl<'a> InProcTransport<'a> {
    /// Wraps a service reference.
    pub fn new(service: &'a RiService) -> Self {
        InProcTransport { service }
    }
}

impl RoapTransport for InProcTransport<'_> {
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError> {
        Ok(self.service.dispatch(frame))
    }
}

/// One endpoint of an in-memory byte channel. Frames written by one endpoint
/// are read by the other, in order.
///
/// The server side is usually a thread running [`serve`]; see the
/// `roap_wire` example and the `wire_lifecycle` test for the pattern.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }

    /// Receives the next frame from the peer, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] once the peer endpoint is dropped.
    pub fn recv(&self) -> Result<Vec<u8>, DrmError> {
        self.rx
            .recv()
            .map_err(|_| DrmError::Transport("channel closed".into()))
    }

    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] once the peer endpoint is dropped.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), DrmError> {
        self.tx
            .send(frame)
            .map_err(|_| DrmError::Transport("channel closed".into()))
    }
}

impl RoapTransport for ChannelTransport {
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError> {
        self.send(frame.to_vec())?;
        self.recv()
    }
}

/// Serves ROAP over one [`ChannelTransport`] endpoint: every received frame
/// is passed through [`RiService::dispatch`] and the response frame sent
/// back.
///
/// The loop runs until the peer endpoint disconnects, which is surfaced as
/// the [`DrmError::Transport`] it was detected as — a server thread
/// supervising many connections can tell *that* and *why* a connection
/// ended instead of silently falling off a loop (the TCP connection loop in
/// `oma-net` reports disconnects the same way).
///
/// # Errors
///
/// Always returns [`DrmError::Transport`] eventually: "channel closed" is
/// the clean end of a conversation whose client hung up.
pub fn serve(service: &RiService, endpoint: &ChannelTransport) -> Result<(), DrmError> {
    loop {
        let frame = endpoint.recv()?;
        endpoint.send(service.dispatch(&frame))?;
    }
}

/// The ROAP protocol client: one typed method per request/response exchange,
/// generic over the transport the frames travel on.
#[derive(Debug)]
pub struct RoapClient<T> {
    transport: T,
}

impl<'a> RoapClient<InProcTransport<'a>> {
    /// A client speaking directly to an in-process service: how a
    /// [`DrmAgent`](crate::DrmAgent) in the same process as its Rights
    /// Issuer calls `register`, `acquire_rights` and the other protocol
    /// methods.
    pub fn in_proc(service: &'a RiService) -> Self {
        RoapClient::new(InProcTransport::new(service))
    }
}

impl<T: RoapTransport> RoapClient<T> {
    /// Wraps a transport.
    pub fn new(transport: T) -> Self {
        RoapClient { transport }
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// One encode → roundtrip → decode exchange. Status-PDU errors become
    /// `Err`; a `Status(Ok)` ack is returned as a PDU for the caller to
    /// interpret.
    fn call(&self, request: &RoapPdu) -> Result<RoapPdu, DrmError> {
        let response = self.transport.roundtrip(&request.encode())?;
        let pdu = RoapPdu::decode(&response).map_err(DrmError::Roap)?;
        if let RoapPdu::Status(status) = &pdu {
            status.into_result()?;
        }
        Ok(pdu)
    }

    /// Registration pass 1 → 2: sends a `DeviceHello`, expects an `RiHello`.
    ///
    /// # Errors
    ///
    /// [`DrmError::Transport`] for transport failures, [`DrmError::Roap`]
    /// when the peer rejects the hello or answers with the wrong PDU.
    pub fn hello(&self, hello: &DeviceHello) -> Result<RiHello, DrmError> {
        match self.call(&RoapPdu::DeviceHello(hello.clone()))? {
            RoapPdu::RiHello(h) => Ok(h),
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        }
    }

    /// Registration pass 3 → 4: sends a signed `RegistrationRequest`,
    /// expects a `RegistrationResponse`.
    ///
    /// # Errors
    ///
    /// See [`RoapClient::hello`]; protocol rejections carry the specific
    /// [`RoapError`].
    pub fn register(
        &self,
        request: &RegistrationRequest,
    ) -> Result<RegistrationResponse, DrmError> {
        match self.call(&RoapPdu::RegistrationRequest(request.clone()))? {
            RoapPdu::RegistrationResponse(r) => Ok(r),
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        }
    }

    /// RO acquisition: sends a signed `RORequest`, expects an `ROResponse`.
    ///
    /// # Errors
    ///
    /// See [`RoapClient::hello`].
    pub fn request_ro(&self, request: &RoRequest) -> Result<RoResponse, DrmError> {
        match self.call(&RoapPdu::RoRequest(request.clone()))? {
            RoapPdu::RoResponse(r) => Ok(r),
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        }
    }

    /// Domain join: sends a signed `JoinDomainRequest`, expects a
    /// `JoinDomainResponse`.
    ///
    /// # Errors
    ///
    /// See [`RoapClient::hello`].
    pub fn join_domain(&self, request: &JoinDomainRequest) -> Result<JoinDomainResponse, DrmError> {
        match self.call(&RoapPdu::JoinDomainRequest(request.clone()))? {
            RoapPdu::JoinDomainResponse(r) => Ok(r),
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        }
    }

    /// Domain leave: expects a `Status(Ok)` ack.
    ///
    /// # Errors
    ///
    /// [`DrmError::Roap`] with [`RoapError::UnknownDomain`] for an unknown
    /// domain, [`DrmError::NotInDomain`] when the device was not a member.
    pub fn leave_domain(&self, device_id: &str, domain_id: &DomainId) -> Result<(), DrmError> {
        match self.call(&RoapPdu::LeaveDomainRequest {
            device_id: device_id.to_string(),
            domain_id: domain_id.clone(),
        })? {
            RoapPdu::Status(status) => status.into_result(),
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_pki::CertificationAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (a, b) = ChannelTransport::pair();
        a.send(vec![1, 2, 3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3]);
        b.send(vec![4]).unwrap();
        assert_eq!(a.recv().unwrap(), vec![4]);
        drop(b);
        assert!(matches!(a.recv(), Err(DrmError::Transport(_))));
        assert!(matches!(a.send(vec![5]), Err(DrmError::Transport(_))));
    }

    #[test]
    fn in_proc_client_answers_hello() {
        let mut rng = StdRng::seed_from_u64(0xc1e7);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = RiService::new("ri", 384, &mut ca, &mut rng);
        let client = RoapClient::in_proc(&service);
        let hello = client.hello(&DeviceHello::new("dev")).unwrap();
        assert_eq!(hello.ri_id, "ri");
        assert_eq!(service.pending_session_count(), 1);
    }

    #[test]
    fn serve_surfaces_peer_disconnect_as_transport_error() {
        let mut rng = StdRng::seed_from_u64(0x5e4e);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = RiService::new("ri", 384, &mut ca, &mut rng);
        let (client_end, server_end) = ChannelTransport::pair();
        let result = std::thread::scope(|scope| {
            let service = &service;
            let server = scope.spawn(move || serve(service, &server_end));
            let client = RoapClient::new(client_end);
            client.hello(&DeviceHello::new("dev")).unwrap();
            drop(client);
            server.join().expect("server thread")
        });
        assert!(
            matches!(result, Err(DrmError::Transport(_))),
            "hang-up must end the loop with a Transport error, got {result:?}"
        );
    }

    #[test]
    fn unexpected_response_pdu_is_malformed() {
        // A transport that always answers with an RiHello frame, whatever
        // the request: typed client methods expecting other PDUs must fail.
        struct Confused;
        impl RoapTransport for Confused {
            fn roundtrip(&self, _frame: &[u8]) -> Result<Vec<u8>, DrmError> {
                Ok(RoapPdu::Status(crate::wire::RoapStatus::Ok).encode())
            }
        }
        let client = RoapClient::new(Confused);
        assert_eq!(
            client.hello(&DeviceHello::new("dev")).unwrap_err(),
            DrmError::Roap(RoapError::Malformed)
        );
        assert_eq!(
            client.leave_domain("dev", &DomainId::new("d")),
            Ok(()),
            "leave accepts the ack status"
        );
    }
}
