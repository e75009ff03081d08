//! [`TraceSink`] — a structured JSONL span writer for run lifecycle events.
//!
//! Every span is one JSON object per line:
//!
//! ```json
//! {"ts_ns":12345,"run":"model-a","event":"snapshot","version":3,"iteration":4096}
//! ```
//!
//! `ts_ns` is nanoseconds since the sink was created (one monotonic
//! `Instant` origin per sink, so a sink's lines always replay into a
//! monotone timeline); `run` keys spans by run/model id; `event` names the
//! lifecycle event; remaining fields are event-specific. [`replay`] parses
//! the lines back into [`Span`]s for post-hoc timeline reconstruction.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A JSON field value a span can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (rendered via Rust's shortest-exact `Display`).
    F64(f64),
    /// A string (JSON-escaped on write).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        match self {
            Self::U64(v) => out.push_str(&v.to_string()),
            Self::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            // JSON has no inf/NaN literals; encode them as strings.
            Self::F64(v) => out.push_str(&format!("\"{v}\"")),
            Self::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

/// One parsed trace span (the subset of fields every span carries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds since the sink's origin.
    pub ts_ns: u64,
    /// The run/model id the span belongs to.
    pub run: String,
    /// The event name.
    pub event: String,
}

/// A thread-safe JSONL span writer with a single monotonic time origin.
pub struct TraceSink {
    origin: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// A sink writing to `out`.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self {
            origin: Instant::now(),
            out: Mutex::new(out),
        }
    }

    /// A sink writing (buffered) to the file at `path`, truncating it.
    ///
    /// # Errors
    ///
    /// Whatever `File::create` returns.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// A sink writing to a shared in-memory buffer (tests, smoke modes).
    #[must_use]
    pub fn in_memory() -> (Self, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (Self::new(Box::new(Shared(Arc::clone(&buf)))), buf)
    }

    /// Writes one span. IO failures are swallowed — tracing must never take
    /// a training run or a serving thread down.
    pub fn emit(&self, run: &str, event: &str, fields: &[(&str, FieldValue)]) {
        let ts_ns = self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut line = String::with_capacity(64);
        line.push_str("{\"ts_ns\":");
        line.push_str(&ts_ns.to_string());
        line.push_str(",\"run\":\"");
        escape_into(run, &mut line);
        line.push_str("\",\"event\":\"");
        escape_into(event, &mut line);
        line.push('"');
        for (k, v) in fields {
            line.push_str(",\"");
            escape_into(k, &mut line);
            line.push_str("\":");
            v.render(&mut line);
        }
        line.push_str("}\n");
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.write_all(line.as_bytes());
    }

    /// Flushes the underlying writer (best-effort).
    pub fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush();
    }
}

/// Parses JSONL trace output back into [`Span`]s, in file order. Lines that
/// are not spans (blank, torn tails) are skipped; a span missing any of the
/// three core fields is an error.
///
/// # Errors
///
/// Returns the 1-based line number of the first malformed span line.
pub fn replay(text: &str) -> Result<Vec<Span>, usize> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ts_ns = field_u64(line, "ts_ns").ok_or(i + 1)?;
        let run = field_str(line, "run").ok_or(i + 1)?;
        let event = field_str(line, "event").ok_or(i + 1)?;
        spans.push(Span { ts_ns, run, event });
    }
    Ok(spans)
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the string field `key`, inverting [`escape_into`] exactly.
fn field_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::new();
    let mut chars = line[at..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                c @ ('"' | '\\') => c,
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let rest = chars.as_str();
                    let code = u32::from_str_radix(rest.get(..4)?, 16).ok()?;
                    chars = rest[4..].chars();
                    char::from_u32(code)?
                }
                _ => return None,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spans_are_jsonl_and_replayable() {
        let (sink, buf) = TraceSink::in_memory();
        sink.emit("m1", "started", &[("threads", FieldValue::U64(4))]);
        sink.emit(
            "m1",
            "progress",
            &[
                ("dist_sq", FieldValue::F64(0.25)),
                ("note", FieldValue::Str("with \"quotes\"".to_string())),
                ("coherent", FieldValue::Bool(true)),
            ],
        );
        sink.emit("m2", "finished", &[]);
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"threads\":4"));
        assert!(text.contains("\"dist_sq\":0.25"));
        assert!(text.contains("\\\"quotes\\\""));
        assert!(text.contains("\"coherent\":true"));
        let spans = replay(&text).expect("replays");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].event, "started");
        assert_eq!(spans[1].run, "m1");
        assert_eq!(spans[2].run, "m2");
        // One sink origin: the file order is a monotone timeline.
        assert!(spans.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn non_finite_floats_are_stringified() {
        let (sink, buf) = TraceSink::in_memory();
        sink.emit("m", "e", &[("v", FieldValue::F64(f64::INFINITY))]);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"v\":\"inf\""));
    }

    /// Strings biased towards what `escape_into` rewrites: control
    /// characters, quotes and backslashes, plus any non-ASCII scalar.
    fn text() -> impl Strategy<Value = String> {
        let code = prop_oneof![
            0_u32..0x20,
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0x20_u32..0x7f,
            0x80_u32..0x11_0000,
        ];
        proptest::collection::vec(code, 0..16)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn replay_returns_emitted_names_unchanged(run in text(), event in text()) {
            let (sink, buf) = TraceSink::in_memory();
            sink.emit(&run, &event, &[("note", FieldValue::Str(event.clone()))]);
            let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            let spans = replay(&text).expect("replays");
            prop_assert_eq!(spans.len(), 1);
            prop_assert_eq!(&spans[0].run, &run);
            prop_assert_eq!(&spans[0].event, &event);
        }
    }

    #[test]
    fn replay_reports_malformed_lines() {
        assert_eq!(replay("{\"ts_ns\":1,\"run\":\"a\"}\n"), Err(1));
        assert_eq!(replay(""), Ok(vec![]));
    }
}
