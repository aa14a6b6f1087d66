//! Channel event traces, for debugging and for determinism tests, plus the
//! streaming JSONL export sink.

use crate::message::MessageId;
use crate::time::Ticks;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One channel-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A silent decision slot.
    Silence {
        /// Slot start time.
        at: Ticks,
    },
    /// A collision; `survivor` is set in arbitrating (non-destructive)
    /// media.
    Collision {
        /// Slot start time.
        at: Ticks,
        /// Winning message under arbitration, if any.
        survivor: Option<MessageId>,
    },
    /// Start of a successful transmission.
    TxStart {
        /// Transmission start time.
        at: Ticks,
        /// Message on the wire.
        message: MessageId,
    },
    /// End of a successful transmission.
    TxEnd {
        /// Time the last bit left the wire.
        at: Ticks,
        /// Message that completed.
        message: MessageId,
    },
    /// An injected frame erasure: the channel was held for the frame's
    /// duration but the CRC failed everywhere and nothing was decoded.
    Garbled {
        /// Slot start time.
        at: Ticks,
        /// The message that was on the wire and lost.
        message: MessageId,
    },
    /// A station (re-)joined the fabric and began resynchronizing.
    Joined {
        /// Time of the membership transition (a decision-slot boundary).
        at: Ticks,
        /// Station index (attachment order).
        station: u32,
    },
    /// A station left the fabric; its pending queue was recorded lost.
    Left {
        /// Time of the membership transition (a decision-slot boundary).
        at: Ticks,
        /// Station index (attachment order).
        station: u32,
    },
}

impl TraceEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> Ticks {
        match *self {
            TraceEvent::Silence { at }
            | TraceEvent::Collision { at, .. }
            | TraceEvent::TxStart { at, .. }
            | TraceEvent::TxEnd { at, .. }
            | TraceEvent::Garbled { at, .. }
            | TraceEvent::Joined { at, .. }
            | TraceEvent::Left { at, .. } => at,
        }
    }
}

/// A bounded in-memory channel trace.
///
/// Disabled by default (zero overhead); enable with [`Trace::enabled`] or
/// bound memory with [`Trace::with_capacity`], which keeps only the most
/// recent events.
///
/// The bound is amortized O(1) per event: the backing vector is allowed to
/// grow to twice the capacity, then compacted in one `drain` that discards
/// the oldest half. (The previous implementation shifted the whole vector
/// with `events.remove(0)` on every record once full — O(capacity) per
/// event, O(n·capacity) per run.)
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Backing storage; may hold up to `2 × capacity` events between
    /// compactions. [`Trace::events`] slices off the stale prefix.
    events: Vec<TraceEvent>,
    enabled: bool,
    capacity: Option<usize>,
}

impl Trace {
    /// An enabled, unbounded trace.
    pub fn enabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            capacity: None,
        }
    }

    /// An enabled trace retaining at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            capacity: Some(capacity),
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return;
            }
            if self.events.len() >= cap.saturating_mul(2) {
                // Keep the newest `cap` events; one memmove amortized over
                // `cap` records.
                self.events.drain(..self.events.len() - cap);
            }
        }
        self.events.push(event);
    }

    /// The recorded events, oldest first (at most `capacity` of them).
    pub fn events(&self) -> &[TraceEvent] {
        match self.capacity {
            Some(cap) if self.events.len() > cap => &self.events[self.events.len() - cap..],
            _ => &self.events,
        }
    }

    /// Drops all recorded events, keeping the configuration.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Renders the trace as a one-character-per-event channel timeline:
    /// `.` silence, `X` collision, `A` arbitrated collision (survivor went
    /// through), `#` a successful transmission (start through end), `?` an
    /// injected frame erasure. Useful for eyeballing protocol behaviour in
    /// test failures and docs.
    pub fn render_timeline(&self) -> String {
        let mut out = String::with_capacity(self.events().len());
        for event in self.events() {
            match event {
                TraceEvent::Silence { .. } => out.push('.'),
                TraceEvent::Collision { survivor: None, .. } => out.push('X'),
                TraceEvent::Collision {
                    survivor: Some(_), ..
                } => out.push('A'),
                TraceEvent::TxStart { .. } => out.push('#'),
                TraceEvent::TxEnd { .. } => {}
                TraceEvent::Garbled { .. } => out.push('?'),
                // Membership transitions occupy no channel time; they are
                // annotations between slots, not slots.
                TraceEvent::Joined { .. } | TraceEvent::Left { .. } => {}
            }
        }
        out
    }
}

/// Schema identifier written as the first line of every JSONL trace export.
pub const TRACE_SCHEMA: &str = "ddcr-trace";
/// Version of the JSONL trace schema (bump on any line-format change).
pub const TRACE_SCHEMA_VERSION: u32 = 1;
/// Version of the merged multichannel JSONL trace schema: same event lines
/// as version 1, each prefixed with a `"channel"` field, under a header
/// that also carries the channel count.
pub const TRACE_MULTICHANNEL_VERSION: u32 = 2;
/// Version of the merged federation JSONL trace schema: same event lines
/// as version 1, each prefixed with a `"segment"` field, under a header
/// that also carries the segment count.
pub const TRACE_FEDERATION_VERSION: u32 = 3;

/// The single-channel schema header line (trailing newline included) —
/// what [`JsonlSink::new`] emits first.
#[must_use]
pub fn schema_header() -> String {
    format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_SCHEMA_VERSION}}}\n")
}

/// The merged multichannel schema header line (trailing newline included),
/// announcing how many channels' event streams follow.
#[must_use]
pub fn multichannel_header(channels: usize) -> String {
    format!(
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_MULTICHANNEL_VERSION}\
         ,\"channels\":{channels}}}\n"
    )
}

/// The merged federation schema header line (trailing newline included),
/// announcing how many segments' event streams follow.
#[must_use]
pub fn federation_header(segments: usize) -> String {
    format!(
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_FEDERATION_VERSION}\
         ,\"segments\":{segments}}}\n"
    )
}

/// Writes one merged JSONL document from per-part headerless event buffers
/// (`None`: that part captured no trace).
///
/// One part: the plain schema-version-1 stream — byte-identical to the
/// single-bus export. Several parts: `header` followed by every part's
/// events in part order, each line tagged `{"<tag>":<index>,` as its first
/// field. Returns the number of event lines written.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_merged(
    writer: &mut dyn Write,
    header: &str,
    tag: &str,
    parts: &[Option<&[u8]>],
) -> io::Result<u64> {
    if let [single] = parts {
        let buf = single.unwrap_or_default();
        writer.write_all(schema_header().as_bytes())?;
        writer.write_all(buf)?;
        return Ok(buf.iter().filter(|&&b| b == b'\n').count() as u64);
    }
    writer.write_all(header.as_bytes())?;
    let mut events = 0u64;
    for (index, buf) in parts.iter().enumerate() {
        let prefix = format!("{{\"{tag}\":{index},");
        for line in buf.unwrap_or_default().split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            // Every event line starts with '{'; splice the tag in as the
            // first field.
            writer.write_all(prefix.as_bytes())?;
            writer.write_all(&line[1..])?;
            writer.write_all(b"\n")?;
            events += 1;
        }
    }
    Ok(events)
}

/// A streaming JSONL sink for channel traces.
///
/// Unlike the bounded in-memory [`Trace`], a sink writes every event as one
/// JSON line the moment the engine resolves it, so memory stays constant
/// regardless of run length. The first line is a schema header
/// (`{"schema":"ddcr-trace","version":1}`); each subsequent line is one
/// [`TraceEvent`]. The byte stream is a pure function of the resolved
/// channel history, so exports are bitwise identical across the
/// fast-forward and reference steppers and across sweep `--jobs` counts.
///
/// I/O errors are latched: the first failure is kept and reported by
/// [`JsonlSink::finish`]; later writes become no-ops.
pub struct JsonlSink {
    writer: Box<dyn Write + Send>,
    error: Option<io::Error>,
    events: u64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("events", &self.events)
            .field("error", &self.error)
            .finish()
    }
}

impl JsonlSink {
    /// Wraps a writer and emits the schema header line.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        let mut sink = JsonlSink::headerless(writer);
        sink.write_line(&schema_header());
        sink
    }

    /// Wraps a writer WITHOUT emitting the schema header line.
    ///
    /// The federation (and so the multichannel runner) buffers each
    /// segment's event lines through a headerless sink and merges them into
    /// one tagged document with [`write_merged`].
    pub fn headerless(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer,
            error: None,
            events: 0,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Writes one event as a JSON line.
    pub fn record(&mut self, event: &TraceEvent) {
        let line = match *event {
            TraceEvent::Silence { at } => {
                format!("{{\"at\":{},\"event\":\"silence\"}}\n", at.as_u64())
            }
            TraceEvent::Collision { at, survivor } => match survivor {
                Some(id) => format!(
                    "{{\"at\":{},\"event\":\"collision\",\"survivor\":{}}}\n",
                    at.as_u64(),
                    id.0
                ),
                None => format!(
                    "{{\"at\":{},\"event\":\"collision\",\"survivor\":null}}\n",
                    at.as_u64()
                ),
            },
            TraceEvent::TxStart { at, message } => format!(
                "{{\"at\":{},\"event\":\"tx_start\",\"message\":{}}}\n",
                at.as_u64(),
                message.0
            ),
            TraceEvent::TxEnd { at, message } => format!(
                "{{\"at\":{},\"event\":\"tx_end\",\"message\":{}}}\n",
                at.as_u64(),
                message.0
            ),
            TraceEvent::Garbled { at, message } => format!(
                "{{\"at\":{},\"event\":\"garbled\",\"message\":{}}}\n",
                at.as_u64(),
                message.0
            ),
            TraceEvent::Joined { at, station } => format!(
                "{{\"at\":{},\"event\":\"joined\",\"station\":{}}}\n",
                at.as_u64(),
                station
            ),
            TraceEvent::Left { at, station } => format!(
                "{{\"at\":{},\"event\":\"left\",\"station\":{}}}\n",
                at.as_u64(),
                station
            ),
        };
        self.write_line(&line);
        self.events += 1;
    }

    /// Number of events recorded so far (header excluded).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Flushes the writer and reports the first latched I/O error, if any.
    ///
    /// # Errors
    ///
    /// Returns the first write error encountered, or the flush error.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(TraceEvent::Silence { at: Ticks(1) });
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(TraceEvent::Silence { at: Ticks(1) });
        t.record(TraceEvent::Collision {
            at: Ticks(2),
            survivor: None,
        });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].at(), Ticks(1));
        assert_eq!(t.events()[1].at(), Ticks(2));
    }

    #[test]
    fn capacity_keeps_most_recent() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(TraceEvent::Silence { at: Ticks(i) });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].at(), Ticks(3));
        assert_eq!(t.events()[1].at(), Ticks(4));
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut t = Trace::with_capacity(0);
        t.record(TraceEvent::Silence { at: Ticks(0) });
        assert!(t.events().is_empty());
    }

    #[test]
    fn timeline_renders_channel_history() {
        let mut t = Trace::enabled();
        t.record(TraceEvent::Silence { at: Ticks(0) });
        t.record(TraceEvent::Collision {
            at: Ticks(512),
            survivor: None,
        });
        t.record(TraceEvent::TxStart {
            at: Ticks(1024),
            message: MessageId(1),
        });
        t.record(TraceEvent::TxEnd {
            at: Ticks(2000),
            message: MessageId(1),
        });
        t.record(TraceEvent::Collision {
            at: Ticks(2000),
            survivor: Some(MessageId(2)),
        });
        assert_eq!(t.render_timeline(), ".X#A");
    }

    #[test]
    fn clear_retains_enablement() {
        let mut t = Trace::enabled();
        t.record(TraceEvent::Silence { at: Ticks(0) });
        t.clear();
        assert!(t.events().is_empty());
        assert!(t.is_enabled());
    }

    #[test]
    fn capacity_keeps_most_recent_across_many_compactions() {
        // Exercise the drain-compaction across many wrap-arounds: at every
        // point the visible window must be exactly the newest `cap` events,
        // oldest first, and the backing store must stay bounded.
        for cap in [1usize, 2, 3, 7] {
            let mut t = Trace::with_capacity(cap);
            for i in 0..1000u64 {
                t.record(TraceEvent::Silence { at: Ticks(i) });
                let seen = t.events();
                let expect_len = cap.min(i as usize + 1);
                assert_eq!(seen.len(), expect_len, "cap={cap} i={i}");
                for (j, ev) in seen.iter().enumerate() {
                    let first = i + 1 - expect_len as u64;
                    assert_eq!(ev.at(), Ticks(first + j as u64), "cap={cap} i={i}");
                }
                assert!(t.events.len() <= 2 * cap, "backing store unbounded");
            }
        }
    }

    #[test]
    fn timeline_respects_capacity_window() {
        let mut t = Trace::with_capacity(2);
        t.record(TraceEvent::Silence { at: Ticks(0) });
        t.record(TraceEvent::Collision {
            at: Ticks(1),
            survivor: None,
        });
        t.record(TraceEvent::Garbled {
            at: Ticks(2),
            message: MessageId(0),
        });
        assert_eq!(t.render_timeline(), "X?");
    }

    /// A `Write` implementation over a shared buffer, so tests can inspect
    /// what a consumed sink wrote (Arc/Mutex because sink writers are
    /// `Send` — engines migrate between federation worker threads).
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(buf: &std::sync::Arc<std::sync::Mutex<Vec<u8>>>) -> Vec<u8> {
            buf.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_header_and_event_lines() {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sink = JsonlSink::new(Box::new(SharedBuf(buf.clone())));
        sink.record(&TraceEvent::Silence { at: Ticks(0) });
        sink.record(&TraceEvent::Collision {
            at: Ticks(512),
            survivor: None,
        });
        sink.record(&TraceEvent::Collision {
            at: Ticks(1024),
            survivor: Some(MessageId(7)),
        });
        sink.record(&TraceEvent::TxStart {
            at: Ticks(1536),
            message: MessageId(7),
        });
        sink.record(&TraceEvent::TxEnd {
            at: Ticks(2000),
            message: MessageId(7),
        });
        sink.record(&TraceEvent::Garbled {
            at: Ticks(2048),
            message: MessageId(8),
        });
        assert_eq!(sink.events_written(), 6);
        assert_eq!(sink.finish().unwrap(), 6);
        let text = String::from_utf8(SharedBuf::contents(&buf)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"schema\":\"ddcr-trace\",\"version\":1}");
        assert_eq!(lines[1], "{\"at\":0,\"event\":\"silence\"}");
        assert_eq!(
            lines[2],
            "{\"at\":512,\"event\":\"collision\",\"survivor\":null}"
        );
        assert_eq!(
            lines[3],
            "{\"at\":1024,\"event\":\"collision\",\"survivor\":7}"
        );
        assert_eq!(
            lines[4],
            "{\"at\":1536,\"event\":\"tx_start\",\"message\":7}"
        );
        assert_eq!(lines[5], "{\"at\":2000,\"event\":\"tx_end\",\"message\":7}");
        assert_eq!(
            lines[6],
            "{\"at\":2048,\"event\":\"garbled\",\"message\":8}"
        );
    }

    #[test]
    fn headerless_sink_writes_event_lines_only() {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sink = JsonlSink::headerless(Box::new(SharedBuf(buf.clone())));
        sink.record(&TraceEvent::Silence { at: Ticks(0) });
        assert_eq!(sink.finish().unwrap(), 1);
        let text = String::from_utf8(SharedBuf::contents(&buf)).unwrap();
        assert_eq!(text, "{\"at\":0,\"event\":\"silence\"}\n");
    }

    #[test]
    fn jsonl_sink_writes_membership_lines() {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sink = JsonlSink::headerless(Box::new(SharedBuf(buf.clone())));
        sink.record(&TraceEvent::Left {
            at: Ticks(512),
            station: 3,
        });
        sink.record(&TraceEvent::Joined {
            at: Ticks(4096),
            station: 3,
        });
        assert_eq!(sink.finish().unwrap(), 2);
        let text = String::from_utf8(SharedBuf::contents(&buf)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"at\":512,\"event\":\"left\",\"station\":3}");
        assert_eq!(lines[1], "{\"at\":4096,\"event\":\"joined\",\"station\":3}");
    }

    #[test]
    fn membership_events_do_not_widen_the_timeline() {
        let mut t = Trace::enabled();
        t.record(TraceEvent::Silence { at: Ticks(0) });
        t.record(TraceEvent::Left {
            at: Ticks(512),
            station: 1,
        });
        t.record(TraceEvent::Joined {
            at: Ticks(1024),
            station: 1,
        });
        t.record(TraceEvent::Silence { at: Ticks(1536) });
        assert_eq!(t.render_timeline(), "..");
    }

    #[test]
    fn header_helpers_match_schema() {
        assert_eq!(
            schema_header(),
            "{\"schema\":\"ddcr-trace\",\"version\":1}\n"
        );
        assert_eq!(
            multichannel_header(4),
            "{\"schema\":\"ddcr-trace\",\"version\":2,\"channels\":4}\n"
        );
    }

    #[test]
    fn jsonl_sink_latches_first_io_error() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // First write (the header) succeeds; the first event write fails.
        let mut sink = JsonlSink::new(Box::new(FailAfter(1)));
        sink.record(&TraceEvent::Silence { at: Ticks(0) });
        sink.record(&TraceEvent::Silence { at: Ticks(512) });
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
