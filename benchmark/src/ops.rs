//! The protocol operations the workloads are made of, and their oracle.
//!
//! Every op goes through the stack's public, transport-free surface: the
//! agent's sans-io methods build and check messages, [`RoapPdu`] frames
//! them, and an [`Exchange`] carries one frame each way — a loopback socket
//! into [`oma_net::RoapEventServer`] or a direct
//! [`RiService::dispatch_at`]. Every response is checked with the agent's
//! own verification before the op counts as done; any miss is an
//! [`OpError`] and ends up in `failed`.
//!
//! Each step runs inside a client-side span of the [`Tracer`] it is handed.
//! A disabled tracer (the untraced pass) costs one relaxed load per step.

use crate::seams::Tracer;
use crate::world::{now, Content};
use oma_crypto::sha1::sha1;
use oma_drm::roap::{DeviceHello, RegistrationRequest, RiHello, RoRequest, RoResponse};
use oma_drm::wire::RoapPdu;
use oma_drm::{DrmAgent, Permission, RiService, RightsObjectId};
use oma_net::read_frame;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// Why an op did not pass the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpError(pub String);

impl OpError {
    fn new(context: &str, detail: impl std::fmt::Debug) -> OpError {
        OpError(format!("{context}: {detail:?}"))
    }
}

/// Carries one request frame to the Rights Issuer and its response back.
pub trait Exchange {
    /// Span names of a hello round trip and of any other round trip over
    /// this exchange: a socket's are RTTs, an in-process call's are the
    /// dispatch itself.
    const SPANS: (&'static str, &'static str);

    /// Sends `frame` without waiting for the answer.
    fn send(&mut self, frame: &[u8]) -> Result<(), OpError>;
    /// Receives the next response frame.
    fn recv(&mut self) -> Result<Vec<u8>, OpError>;

    /// One full round trip.
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, OpError> {
        self.send(frame)?;
        self.recv()
    }
}

/// In-process exchange: `dispatch_at` on the service itself.
pub struct InProc<'a> {
    service: &'a RiService,
    pending: Option<Vec<u8>>,
}

impl<'a> InProc<'a> {
    /// An exchange that dispatches on `service` with the pinned clock.
    pub fn new(service: &'a RiService) -> Self {
        InProc {
            service,
            pending: None,
        }
    }
}

impl Exchange for InProc<'_> {
    const SPANS: (&'static str, &'static str) = ("hello_dispatch", "dispatch");

    fn send(&mut self, frame: &[u8]) -> Result<(), OpError> {
        self.pending = Some(self.service.dispatch_at(frame, now()));
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, OpError> {
        self.pending
            .take()
            .ok_or_else(|| OpError("recv without a request in flight".into()))
    }
}

/// One loopback TCP connection to the server.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects with Nagle off: every frame is one small write that must
    /// leave at once.
    pub fn connect(addr: SocketAddr) -> Result<Conn, OpError> {
        let stream = TcpStream::connect(addr).map_err(|e| OpError::new("connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| OpError::new("set_nodelay", e))?;
        Ok(Conn { stream })
    }
}

impl Exchange for Conn {
    const SPANS: (&'static str, &'static str) = ("hello_rtt", "rtt");

    fn send(&mut self, frame: &[u8]) -> Result<(), OpError> {
        self.stream
            .write_all(frame)
            .map_err(|e| OpError::new("write frame", e))
    }

    fn recv(&mut self) -> Result<Vec<u8>, OpError> {
        read_frame(&mut self.stream).map_err(|e| OpError::new("read frame", e))
    }
}

// ----- hello ---------------------------------------------------------------

/// The encoded `DeviceHello` of `device_id`.
pub fn hello_frame(device_id: &str) -> Vec<u8> {
    RoapPdu::DeviceHello(DeviceHello::new(device_id)).encode()
}

/// Checks an `RiHello` frame: it decodes, names this Rights Issuer and
/// carries a session id above `last_session` (ids only grow on one
/// connection), which it then becomes.
pub fn check_ri_hello(
    frame: &[u8],
    ri_id: &str,
    last_session: &mut u64,
) -> Result<RiHello, OpError> {
    match RoapPdu::decode(frame) {
        Ok(RoapPdu::RiHello(hello)) => {
            if hello.ri_id != ri_id {
                return Err(OpError::new("RiHello names another issuer", &hello.ri_id));
            }
            if hello.session_id <= *last_session {
                return Err(OpError::new("session id reused", hello.session_id));
            }
            *last_session = hello.session_id;
            Ok(hello)
        }
        other => Err(OpError::new("expected RiHello", other.map(|p| p.name()))),
    }
}

/// One hello exchange: the crypto-free op of `hello_flood`. Returns the
/// session id and the bytes that crossed the exchange.
pub fn hello<X: Exchange>(
    frame: &[u8],
    x: &mut X,
    ri_id: &str,
    last_session: &mut u64,
    t: &Tracer,
) -> Result<(u64, u64), OpError> {
    let response = t.span(X::SPANS.1, || x.roundtrip(frame))?;
    let hello = t.span("decode", || check_ri_hello(&response, ri_id, last_session))?;
    Ok((hello.session_id, (frame.len() + response.len()) as u64))
}

// ----- registration ----------------------------------------------------------

/// Pass 3 of registration in flight: what pass 4 is checked against.
pub struct PendingRegistration {
    /// The `RiHello` being answered.
    pub hello: RiHello,
    /// The signed request that was sent.
    pub request: RegistrationRequest,
}

/// Signs the `RegistrationRequest` answering `hello` and returns it with
/// its encoded frame.
pub fn sign_registration(
    agent: &mut DrmAgent,
    hello: RiHello,
    t: &Tracer,
) -> Result<(PendingRegistration, Vec<u8>), OpError> {
    let request = t
        .span("sign", || agent.registration_request(&hello, now()))
        .map_err(|e| OpError::new("sign RegistrationRequest", e))?;
    let frame = t.span("encode", || {
        RoapPdu::RegistrationRequest(request.clone()).encode()
    });
    Ok((PendingRegistration { hello, request }, frame))
}

/// Pass 4: the agent's own `complete_registration` over the response frame.
pub fn check_registration(
    agent: &mut DrmAgent,
    pending: &PendingRegistration,
    frame: &[u8],
    t: &Tracer,
) -> Result<(), OpError> {
    match t.span("decode", || RoapPdu::decode(frame)) {
        Ok(RoapPdu::RegistrationResponse(response)) => t
            .span("verify", || {
                agent.complete_registration(&pending.hello, &pending.request, &response, now())
            })
            .map_err(|e| OpError::new("complete_registration", e)),
        other => Err(OpError::new(
            "expected RegistrationResponse",
            other.map(|p| p.name()),
        )),
    }
}

/// The whole 4-pass registration over one exchange. Returns the bytes that
/// crossed it.
pub fn register<X: Exchange>(
    agent: &mut DrmAgent,
    x: &mut X,
    ri_id: &str,
    t: &Tracer,
) -> Result<u64, OpError> {
    let hello_out = t.span("encode", || hello_frame(agent.device_id()));
    let hello_in = t.span(X::SPANS.0, || x.roundtrip(&hello_out))?;
    let hello = t.span("decode", || check_ri_hello(&hello_in, ri_id, &mut 0))?;
    let (pending, request_out) = sign_registration(agent, hello, t)?;
    let response_in = t.span(X::SPANS.1, || x.roundtrip(&request_out))?;
    check_registration(agent, &pending, &response_in, t)?;
    Ok((hello_out.len() + hello_in.len() + request_out.len() + response_in.len()) as u64)
}

// ----- acquisition -----------------------------------------------------------

/// A signed `RoRequest` and its encoded frame.
#[derive(Debug, Clone)]
pub struct SignedRoRequest {
    /// The request (kept for the nonce check on the response).
    pub request: RoRequest,
    /// Its wire frame.
    pub frame: Vec<u8>,
}

/// Signs an `RoRequest` for `content_id`.
pub fn sign_ro_request(
    agent: &mut DrmAgent,
    ri_id: &str,
    content_id: &str,
    t: &Tracer,
) -> Result<SignedRoRequest, OpError> {
    let request = t
        .span("sign", || agent.ro_request(ri_id, content_id, None, now()))
        .map_err(|e| OpError::new("sign RoRequest", e))?;
    let frame = t.span("encode", || RoapPdu::RoRequest(request.clone()).encode());
    Ok(SignedRoRequest { request, frame })
}

/// The agent's own `verify_ro_response` over the response frame.
pub fn check_ro_response(
    agent: &DrmAgent,
    signed: &SignedRoRequest,
    frame: &[u8],
    t: &Tracer,
) -> Result<RoResponse, OpError> {
    match t.span("decode", || RoapPdu::decode(frame)) {
        Ok(RoapPdu::RoResponse(response)) => {
            t.span("verify", || {
                agent.verify_ro_response(&signed.request, &response)
            })
            .map_err(|e| OpError::new("verify_ro_response", e))?;
            Ok(response)
        }
        other => Err(OpError::new("expected RoResponse", other.map(|p| p.name()))),
    }
}

/// Exchange a signed request and verify the answer: one acquisition.
/// Returns the verified response and the bytes that crossed the exchange.
pub fn acquire<X: Exchange>(
    agent: &DrmAgent,
    signed: &SignedRoRequest,
    x: &mut X,
    t: &Tracer,
) -> Result<(RoResponse, u64), OpError> {
    let response_in = t.span(X::SPANS.1, || x.roundtrip(&signed.frame))?;
    let response = check_ro_response(agent, signed, &response_in, t)?;
    Ok((response, (signed.frame.len() + response_in.len()) as u64))
}

// ----- installation and consumption ---------------------------------------------

/// `install_rights` on a verified response.
pub fn install(
    agent: &mut DrmAgent,
    response: &RoResponse,
    t: &Tracer,
) -> Result<RightsObjectId, OpError> {
    t.span("install", || agent.install_rights(response, now()))
        .map_err(|e| OpError::new("install_rights", e))
}

/// One playback: `consume` the DCF. The caller checks the plaintext with
/// [`check_plaintext`] outside its timed window.
pub fn play(
    agent: &mut DrmAgent,
    ro_id: &RightsObjectId,
    content: &Content,
    t: &Tracer,
) -> Result<Vec<u8>, OpError> {
    t.span("consume", || {
        agent.consume(ro_id, &content.dcf, Permission::Play, now())
    })
    .map_err(|e| OpError::new("consume", e))
}

/// The recovered plaintext must hash to what was packaged.
pub fn check_plaintext(plaintext: &[u8], content: &Content) -> Result<(), OpError> {
    if plaintext.len() == content.len && sha1(plaintext) == content.plaintext_sha1 {
        Ok(())
    } else {
        Err(OpError("recovered plaintext does not match".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, RI_ID};
    use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
    use std::sync::Arc;

    /// The oracle must notice a single flipped response byte — otherwise
    /// `failed` would stay 0 on a broken stack.
    #[test]
    fn a_flipped_response_byte_is_detected() {
        let backend: Arc<dyn CryptoBackend> = Arc::new(SoftwareBackend::new());
        let mut world = World::new(3, Arc::clone(&backend));
        let mut agent = world.provision(Arc::clone(&backend));
        let t = Tracer::new();
        let service = Arc::clone(&world.service);
        let mut x = InProc::new(&service);
        register(&mut agent, &mut x, RI_ID, &t).expect("honest registration passes");

        let signed = sign_ro_request(&mut agent, RI_ID, world.ring.id, &t).unwrap();
        let honest = x.roundtrip(&signed.frame).unwrap();
        check_ro_response(&agent, &signed, &honest, &t).expect("honest response passes");
        let mut broken = honest.clone();
        *broken.last_mut().unwrap() ^= 0x01;
        assert!(check_ro_response(&agent, &signed, &broken, &t).is_err());

        let hello_in = x.roundtrip(&hello_frame(agent.device_id())).unwrap();
        let hello = check_ri_hello(&hello_in, RI_ID, &mut 0).unwrap();
        let (pending, request) = sign_registration(&mut agent, hello, &t).unwrap();
        let mut response = x.roundtrip(&request).unwrap();
        *response.last_mut().unwrap() ^= 0x01;
        assert!(check_registration(&mut agent, &pending, &response, &t).is_err());

        let response = check_ro_response(&agent, &signed, &honest, &t).unwrap();
        let ro_id = install(&mut agent, &response, &t).unwrap();
        let mut plaintext = play(&mut agent, &ro_id, &world.ring, &t).unwrap();
        check_plaintext(&plaintext, &world.ring).expect("honest playback passes");
        plaintext[100] ^= 0x01;
        assert!(check_plaintext(&plaintext, &world.ring).is_err());
    }
}
