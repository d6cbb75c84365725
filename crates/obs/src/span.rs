//! Per-request span tracing: a bounded ring buffer of dispatch records.
//!
//! Every served frame can deposit one [`Span`] — which session, which
//! device, which PDU kind, and where its wall-clock went (dispatch vs
//! write-back) plus the crypto cycles it charged. The ring
//! holds the most recent `capacity` spans in fixed memory; recording
//! never blocks the serving thread: a slot is claimed with an atomic
//! ticket and written under a `try_lock` — if a reader (or a lapping
//! writer) holds the slot at that instant, the span is counted in
//! [`SpanRecorder::dropped`] instead of stalling the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One served request, with its identity and time breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Monotone ticket assigned by the recorder (global dispatch order).
    pub seq: u64,
    /// The ROAP envelope's session id (0 for session-less PDUs).
    pub session_id: u64,
    /// The requesting device, when the PDU carries one (best effort).
    pub device_id: String,
    /// The PDU kind name (e.g. `"RegistrationRequest"`).
    pub kind: &'static str,
    /// Time inside `RiService` dispatch (decode, handle, encode).
    pub dispatch_nanos: u64,
    /// Time writing the response back to the peer.
    pub write_nanos: u64,
    /// Crypto cycles of the operations this frame's own dispatch executed,
    /// priced on the service's backend — exact under concurrent dispatch.
    pub cycles: u64,
}

impl Span {
    /// A zeroed span for `kind` — callers fill in what they measured.
    pub fn new(kind: &'static str) -> Self {
        Span {
            seq: 0,
            session_id: 0,
            device_id: String::new(),
            kind,
            dispatch_nanos: 0,
            write_nanos: 0,
            cycles: 0,
        }
    }

    /// The span as one JSON object (the JSONL line, without newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"session_id\":{},\"device_id\":\"{}\",\"kind\":\"{}\",\"dispatch_nanos\":{},\"write_nanos\":{},\"cycles\":{}}}",
            self.seq,
            self.session_id,
            escape(&self.device_id),
            escape(self.kind),
            self.dispatch_nanos,
            self.write_nanos,
            self.cycles,
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A bounded ring buffer of the most recent [`Span`]s.
///
/// Fixed memory, multi-producer, non-blocking: see the module docs for
/// the claim/`try_lock` protocol.
pub struct SpanRecorder {
    slots: Vec<Mutex<Option<Span>>>,
    ticket: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRecorder {
    /// A ring holding the most recent `capacity` spans (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            ticket: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots (the ring's fixed capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Deposits a span, overwriting the oldest. Never blocks: a
    /// contended slot drops the span instead (counted in `dropped`).
    pub fn record(&self, mut span: Span) {
        let seq = self.ticket.fetch_add(1, Ordering::Relaxed);
        span.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some(span),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total spans ever offered to the ring.
    pub fn recorded(&self) -> u64 {
        self.ticket.load(Ordering::Relaxed)
    }

    /// Spans lost to slot contention (not to ring overwrite).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().ok().and_then(|guard| guard.clone()))
            .collect();
        spans.sort_by_key(|span| span.seq);
        spans
    }

    /// The retained spans as JSONL (one object per line, oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, session: u64) -> Span {
        Span {
            session_id: session,
            device_id: format!("phone-{session:03}"),
            dispatch_nanos: 10 * session,
            ..Span::new(kind)
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_spans_in_order() {
        let ring = SpanRecorder::new(4);
        for i in 0..10 {
            ring.record(span("DeviceHello", i));
        }
        let spans = ring.spans();
        assert_eq!(spans.len(), 4);
        let sessions: Vec<u64> = spans.iter().map(|s| s.session_id).collect();
        assert_eq!(sessions, vec![6, 7, 8, 9]);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let ring = SpanRecorder::new(8);
        ring.record(span("RoRequest", 3));
        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"RoRequest\""));
        assert!(line.contains("\"device_id\":\"phone-003\""));
        assert!(line.contains("\"dispatch_nanos\":30"));
    }

    #[test]
    fn device_ids_are_json_escaped() {
        let mut s = Span::new("DeviceHello");
        s.device_id = "we\"ird\\id\n".to_string();
        assert!(s.to_json().contains("we\\\"ird\\\\id\\n"));
    }

    #[test]
    fn concurrent_recording_never_loses_more_than_contended_slots() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRecorder::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000 {
                    ring.record(span("RoRequest", t * 10_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 8_000);
        // Whatever survived is bounded by the ring and in ticket order.
        let spans = ring.spans();
        assert!(spans.len() <= 64);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
