//! # econcast-trace — span tracing
//!
//! A lightweight, dependency-free structured tracing layer for the
//! whole workspace: instrumented code emits **span events** (begin/end
//! pairs, one-shot complete events, instants) and **counter samples**
//! into thread-local ring buffers, which drain into the Chrome/Perfetto
//! JSON Trace Format — the resulting `.trace.json` opens directly in
//! `chrome://tracing` or the Perfetto UI. Latency histograms are not
//! kept here: [`span_durations`] reads span durations back out of a
//! drained snapshot, and `econcast-metrics` owns the workspace's one
//! histogram type.
//!
//! ## Zero overhead when off
//!
//! Collection is gated on one process-wide atomic; every macro
//! compiles to one relaxed load and a branch when tracing is disabled
//! (the default). Nothing allocates, no thread-local is touched, no
//! clock is read. Whoever wants a trace arms it with [`set_spans`].
//!
//! ## Event model
//!
//! | kind | Chrome `ph` | meaning |
//! |------|-------------|---------|
//! | [`EventKind::Begin`]/[`EventKind::End`] | `B`/`E` | a scoped span ([`trace_span!`] guard), nested per thread |
//! | [`EventKind::Complete`] | `X` | a span emitted after the fact with an explicit duration ([`complete_from`]) — used where the work runs on pool threads and begin/end pairing would depend on the worker count |
//! | [`EventKind::Instant`] | `i` | a point event ([`trace_instant!`]), e.g. a cache-tier hit |
//! | [`EventKind::Counter`] | `C` | a sampled series value ([`trace_counter!`]), e.g. sim queue depth |
//!
//! Each event carries a static category, a static name, and up to
//! [`MAX_ARGS`] `u64` arguments. Threads register lazily on their
//! first event; per-thread buffers are bounded rings
//! ([`RING_CAPACITY`]) so a forgotten trace can never grow without
//! bound — overflow drops the *oldest* events and is counted in
//! [`TraceSnapshot::dropped`].
//!
//! ## Draining
//!
//! [`drain`] merges every thread's ring (including rings of threads
//! that have already exited — the worker pool spawns scoped threads
//! per call) into one time-sorted [`TraceSnapshot`];
//! [`to_chrome_json`] renders it. The writer hand-rolls its JSON
//! (offline environment) and escapes to pure ASCII, so any JSON
//! parser — including the small one in `econcast-bench` — can read it
//! back.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Maximum per-event argument count (excess is dropped by the macros'
/// arity, not at runtime).
pub const MAX_ARGS: usize = 2;

/// Per-thread event-ring capacity; overflow drops oldest events.
pub const RING_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Arming
// ---------------------------------------------------------------------------

static SPANS_ON: AtomicBool = AtomicBool::new(false);

/// Whether span/counter events are being collected (the macros'
/// fast-path check).
#[inline(always)]
pub fn spans_on() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// Turns span-event collection on or off (process-wide).
pub fn set_spans(on: bool) {
    SPANS_ON.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `Some(now_ns())` when tracing is armed — the begin-stamp for
/// [`complete_from`]; `None` (no clock read) otherwise.
#[inline]
pub fn armed_now() -> Option<u64> {
    if spans_on() {
        Some(now_ns())
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Events and thread-local rings
// ---------------------------------------------------------------------------

/// Event discriminant (maps onto the Chrome `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Complete span with explicit duration (`ph: "X"`).
    Complete,
    /// Point event (`ph: "i"`, thread scope).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

#[derive(Debug, Clone, Copy)]
struct RawEvent {
    kind: EventKind,
    cat: &'static str,
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    nargs: u8,
    args: [(&'static str, u64); MAX_ARGS],
}

/// One drained event, annotated with its emitting thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Registry-assigned thread id (stable for the thread's lifetime).
    pub tid: u64,
    /// Event discriminant.
    pub kind: EventKind,
    /// Static category (subsystem: `"service"`, `"cluster"`, …).
    pub cat: &'static str,
    /// Static event name.
    pub name: &'static str,
    /// Begin timestamp, ns since the trace epoch.
    pub ts_ns: u64,
    /// Duration in ns ([`EventKind::Complete`] only, else 0).
    pub dur_ns: u64,
    /// Argument key/value pairs.
    pub args: Vec<(&'static str, u64)>,
}

struct Ring {
    events: VecDeque<RawEvent>,
    dropped: u64,
    dead: bool,
}

impl Ring {
    fn push(&mut self, ev: RawEvent) {
        if self.events.len() >= RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

struct RegEntry {
    tid: u64,
    name: String,
    ring: Arc<Mutex<Ring>>,
}

static REGISTRY: Mutex<Vec<RegEntry>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Thread-local handle; its `Drop` marks the ring dead so the
/// registry can prune it once drained (worker pools spawn short-lived
/// scoped threads — without pruning the registry would only grow).
struct LocalRing(Arc<Mutex<Ring>>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        lock(&self.0).dead = true;
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

fn register_current_thread() -> LocalRing {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(Mutex::new(Ring {
        events: VecDeque::new(),
        dropped: 0,
        dead: false,
    }));
    lock(&REGISTRY).push(RegEntry {
        tid,
        name,
        ring: Arc::clone(&ring),
    });
    LocalRing(ring)
}

fn push_event(ev: RawEvent) {
    // try_with: events fired during thread teardown (a guard held in
    // another TLS destructor) are dropped rather than panicking.
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let local = slot.get_or_insert_with(register_current_thread);
        lock(&local.0).push(ev);
    });
}

fn pack_args(args: &[(&'static str, u64)]) -> (u8, [(&'static str, u64); MAX_ARGS]) {
    let mut packed = [("", 0u64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    packed[..n].copy_from_slice(&args[..n]);
    (n as u8, packed)
}

// ---------------------------------------------------------------------------
// Emission API (called through the macros)
// ---------------------------------------------------------------------------

/// A scoped span: `B` at construction, `E` on drop. Build through
/// [`trace_span!`], which only constructs one while spans are armed,
/// so a guard always emits both events.
#[derive(Debug)]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
}

impl SpanGuard {
    /// Begins a span now.
    pub fn begin(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) -> Self {
        let (nargs, args) = pack_args(args);
        push_event(RawEvent {
            kind: EventKind::Begin,
            cat,
            name,
            ts_ns: now_ns(),
            dur_ns: 0,
            nargs,
            args,
        });
        SpanGuard { cat, name }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        push_event(RawEvent {
            kind: EventKind::End,
            cat: self.cat,
            name: self.name,
            ts_ns: now_ns(),
            dur_ns: 0,
            nargs: 0,
            args: [("", 0); MAX_ARGS],
        });
    }
}

/// Emits a complete (`X`) span from a begin-stamp taken with
/// [`armed_now`]; no-op when the stamp is `None`. Like a
/// [`SpanGuard`], a span is decided at its begin: one stamped while
/// armed is emitted even if tracing was disarmed since. Used where the
/// begin and end may run on different worker threads, or where a
/// span's name is only known after the work (e.g. which solve kernel
/// ran) — `X` events don't participate in per-thread B/E nesting, so
/// the span *structure* stays identical at any worker count.
pub fn complete_from(
    cat: &'static str,
    name: &'static str,
    t0: Option<u64>,
    args: &[(&'static str, u64)],
) {
    let Some(t0) = t0 else { return };
    let (nargs, args) = pack_args(args);
    push_event(RawEvent {
        kind: EventKind::Complete,
        cat,
        name,
        ts_ns: t0,
        dur_ns: now_ns().saturating_sub(t0),
        nargs,
        args,
    });
}

/// Emits an instant event (macro backend; check [`spans_on`] first).
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    let (nargs, args) = pack_args(args);
    push_event(RawEvent {
        kind: EventKind::Instant,
        cat,
        name,
        ts_ns: now_ns(),
        dur_ns: 0,
        nargs,
        args,
    });
}

/// Emits a counter sample (macro backend; check [`spans_on`] first).
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    push_event(RawEvent {
        kind: EventKind::Counter,
        cat,
        name,
        ts_ns: now_ns(),
        dur_ns: 0,
        nargs: 1,
        args: [("value", value), ("", 0)],
    });
}

/// Opens a scoped span, yielding `Option<SpanGuard>` (`None` when
/// tracing is disarmed — one relaxed load and a branch).
///
/// ```
/// # use econcast_trace::trace_span;
/// let n = 256usize;
/// let _span = trace_span!("service", "serve_batch", "requests" => n);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($cat:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::spans_on() {
            Some($crate::SpanGuard::begin($cat, $name, &[$(($k, $v as u64)),*]))
        } else {
            None
        }
    };
}

/// Emits a point event when span collection is armed.
#[macro_export]
macro_rules! trace_instant {
    ($cat:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::spans_on() {
            $crate::instant($cat, $name, &[$(($k, $v as u64)),*]);
        }
    };
}

/// Emits a counter sample when span collection is armed.
#[macro_export]
macro_rules! trace_counter {
    ($cat:expr, $name:expr, $v:expr) => {
        if $crate::spans_on() {
            $crate::counter($cat, $name, $v as u64);
        }
    };
}

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

/// Everything collected since the last drain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// `(tid, thread name)` for every thread that emitted events.
    pub threads: Vec<(u64, String)>,
    /// All events, sorted by timestamp (stable across equal stamps:
    /// registration order, then per-thread emission order).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// Drains every thread's ring into one time-sorted snapshot and
/// prunes rings of exited threads.
pub fn drain() -> TraceSnapshot {
    let mut snap = TraceSnapshot::default();
    let mut registry = lock(&REGISTRY);
    registry.retain(|entry| {
        let mut ring = lock(&entry.ring);
        if !ring.events.is_empty() {
            snap.threads.push((entry.tid, entry.name.clone()));
        }
        snap.dropped += ring.dropped;
        ring.dropped = 0;
        for ev in ring.events.drain(..) {
            snap.events.push(TraceEvent {
                tid: entry.tid,
                kind: ev.kind,
                cat: ev.cat,
                name: ev.name,
                ts_ns: ev.ts_ns,
                dur_ns: ev.dur_ns,
                args: ev.args[..usize::from(ev.nargs)].to_vec(),
            });
        }
        !ring.dead
    });
    drop(registry);
    snap.events.sort_by_key(|e| e.ts_ns);
    snap
}

/// Drops all buffered events (a clean slate for a demo or test run).
/// Leaves the armed/disarmed state alone.
pub fn reset() {
    drain();
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto JSON writer
// ---------------------------------------------------------------------------

/// Escapes `s` into a JSON string literal body (no surrounding
/// quotes), emitting pure ASCII: `"`, `\`, and ASCII control
/// characters use their short escapes (or `\u00XX`), and every
/// non-ASCII scalar is written as `\uXXXX` (surrogate pairs beyond
/// the BMP) — so the output survives even byte-oriented parsers.
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c if c.is_ascii() => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{:04x}", *unit));
                }
            }
        }
    }
    out
}

/// Microseconds with ns precision, as a decimal literal (Chrome's
/// `ts`/`dur` unit) — formatted without going through floats so the
/// output is deterministic.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a snapshot in the Chrome/Perfetto JSON Trace Format
/// (`{"traceEvents": [...]}`): thread-name metadata records first,
/// then every event. Loadable by `chrome://tracing` and the Perfetto
/// UI.
pub fn to_chrome_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(128 + snap.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_record = |out: &mut String, body: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{");
        out.push_str(body);
        out.push('}');
    };
    for (tid, name) in &snap.threads {
        push_record(
            &mut out,
            &format!(
                "\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}",
                escape_json_string(name)
            ),
        );
    }
    for ev in &snap.events {
        let mut body = format!(
            "\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            match ev.kind {
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::Complete => "X",
                EventKind::Instant => "i",
                EventKind::Counter => "C",
            },
            ev.tid,
            us(ev.ts_ns),
        );
        if ev.kind == EventKind::Complete {
            body.push_str(&format!(",\"dur\":{}", us(ev.dur_ns)));
        }
        body.push_str(&format!(
            ",\"cat\":\"{}\",\"name\":\"{}\"",
            escape_json_string(ev.cat),
            escape_json_string(ev.name)
        ));
        if ev.kind == EventKind::Instant {
            body.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() {
            body.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!("\"{}\":{v}", escape_json_string(k)));
            }
            body.push('}');
        }
        push_record(&mut out, &body);
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Structure analysis (test support, but useful for tooling too)
// ---------------------------------------------------------------------------

/// Per-thread open-span stacks, as [`walk_spans`] leaves them.
type OpenSpans<'a> = std::collections::BTreeMap<u64, Vec<&'a TraceEvent>>;

/// Walks every thread's B/E events in order with one stack per
/// thread: each `E` pops its thread's stack and is handed to `close`
/// with the `B` it popped (`None` on an empty stack). Stops at the
/// first `Err` from `close`; otherwise returns the spans left open.
fn walk_spans<'a>(
    snap: &'a TraceSnapshot,
    mut close: impl FnMut(&'a TraceEvent, Option<&'a TraceEvent>) -> Result<(), String>,
) -> Result<OpenSpans<'a>, String> {
    let mut stacks = OpenSpans::new();
    for ev in &snap.events {
        match ev.kind {
            EventKind::Begin => stacks.entry(ev.tid).or_default().push(ev),
            EventKind::End => close(ev, stacks.entry(ev.tid).or_default().pop())?,
            _ => {}
        }
    }
    Ok(stacks)
}

/// Checks that every thread's B/E events are well-nested: each `E`
/// closes the `B` on top of that thread's stack, and no stack is left
/// open. `X`/`i`/`C` events don't participate.
pub fn check_nesting(snap: &TraceSnapshot) -> Result<(), String> {
    let open = walk_spans(snap, |end, begin| match begin {
        Some(b) if (b.cat, b.name) == (end.cat, end.name) => Ok(()),
        Some(b) => Err(format!(
            "tid {}: E {}/{} closes open span {}/{}",
            end.tid, end.cat, end.name, b.cat, b.name
        )),
        None => Err(format!(
            "tid {}: E {}/{} with empty stack",
            end.tid, end.cat, end.name
        )),
    })?;
    for (tid, stack) in &open {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} span(s) left open", stack.len()));
        }
    }
    Ok(())
}

/// Durations (ns) of every closed `(cat, name)` span in a snapshot:
/// each `X` event's duration as recorded, then each `B`/`E` pair that
/// [`check_nesting`]'s per-thread stack walk matches. An `E` whose
/// `B` fell before the snapshot (an earlier drain took it) and a `B`
/// still open at the drain give no sample.
pub fn span_durations(snap: &TraceSnapshot, cat: &str, name: &str) -> Vec<u64> {
    let key = (cat, name);
    let mut out: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete && (e.cat, e.name) == key)
        .map(|e| e.dur_ns)
        .collect();
    let _ = walk_spans(snap, |end, begin| {
        if let Some(b) = begin.filter(|b| (b.cat, b.name) == key && (end.cat, end.name) == key) {
            out.push(end.ts_ns.saturating_sub(b.ts_ns));
        }
        Ok(())
    });
    out
}

/// A worker-count-invariant signature of a snapshot's span
/// *structure*: for B/E spans, `(parent-or-root, span)` pair counts
/// (nesting); for complete/instant events, name counts. Timestamps,
/// thread ids, and counter samples are excluded — two runs of the
/// same work at different worker counts produce equal signatures.
pub fn structure_signature(snap: &TraceSnapshot) -> std::collections::BTreeMap<String, u64> {
    let mut sig: std::collections::BTreeMap<String, u64> = Default::default();
    let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = Default::default();
    for ev in &snap.events {
        match ev.kind {
            EventKind::Begin => {
                let stack = stacks.entry(ev.tid).or_default();
                let parent = stack.last().copied().unwrap_or("<root>");
                *sig.entry(format!("span {parent} > {}/{}", ev.cat, ev.name))
                    .or_insert(0) += 1;
                stack.push(ev.name);
            }
            EventKind::End => {
                stacks.entry(ev.tid).or_default().pop();
            }
            EventKind::Complete => {
                *sig.entry(format!("complete {}/{}", ev.cat, ev.name))
                    .or_insert(0) += 1;
            }
            EventKind::Instant => {
                *sig.entry(format!("instant {}/{}", ev.cat, ev.name))
                    .or_insert(0) += 1;
            }
            // Counter cadence may legitimately vary with timing.
            EventKind::Counter => {}
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests toggle the process-wide statics; serialize them.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_spans(false);
        reset();
        guard
    }

    #[test]
    fn disarmed_macros_emit_nothing() {
        let _g = serial();
        let _span = trace_span!("t", "nothing", "k" => 1u64);
        trace_instant!("t", "nothing");
        trace_counter!("t", "nothing", 7u64);
        drop(_span);
        complete_from("t", "nothing", armed_now(), &[]);
        let snap = drain();
        assert!(snap.events.is_empty());
    }

    #[test]
    fn span_guard_emits_balanced_b_e_and_durations() {
        let _g = serial();
        set_spans(true);
        {
            let _outer = trace_span!("t", "outer", "n" => 3u64);
            let _inner = trace_span!("t", "inner");
        }
        complete_from("t", "solve", armed_now(), &[("nodes", 8)]);
        set_spans(false);
        let snap = drain();
        let kinds: Vec<_> = snap.events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Begin, "outer"),
                (EventKind::Begin, "inner"),
                (EventKind::End, "inner"),
                (EventKind::End, "outer"),
                (EventKind::Complete, "solve"),
            ]
        );
        check_nesting(&snap).unwrap();
        assert_eq!(snap.events[0].args, vec![("n", 3u64)]);
        let outer = span_durations(&snap, "t", "outer");
        let inner = span_durations(&snap, "t", "inner");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert!(inner[0] <= outer[0], "the inner span nests in the outer");
        assert_eq!(span_durations(&snap, "t", "solve").len(), 1);
    }

    /// One sample per closed span: `X` durations as recorded, `B`/`E`
    /// pairs matched per thread through nesting, and nothing for an
    /// `E` whose `B` is missing or a `B` never closed.
    #[test]
    fn span_durations_pair_per_thread_and_skip_unmatched() {
        let ev = |tid, kind, name, ts_ns, dur_ns| TraceEvent {
            tid,
            kind,
            cat: "t",
            name,
            ts_ns,
            dur_ns,
            args: Vec::new(),
        };
        use EventKind::{Begin as B, Complete as X, End as E};
        let snap = TraceSnapshot {
            threads: Vec::new(),
            events: vec![
                ev(1, E, "s", 5, 0), // its B was drained earlier
                ev(1, B, "s", 10, 0),
                ev(2, B, "s", 11, 0),
                ev(1, B, "s", 12, 0), // nested in tid 1's outer span
                ev(2, X, "s", 13, 7),
                ev(1, E, "s", 15, 0),
                ev(2, E, "s", 31, 0),
                ev(1, E, "s", 40, 0),
                ev(1, B, "other", 41, 0),
                ev(1, E, "other", 42, 0),
                ev(2, B, "s", 50, 0), // still open at the drain
            ],
            dropped: 0,
        };
        let mut durs = span_durations(&snap, "t", "s");
        durs.sort_unstable();
        // tid 1 inner 15-12, X 7, tid 2 31-11, tid 1 outer 40-10.
        assert_eq!(durs, vec![3, 7, 20, 30]);
        assert_eq!(span_durations(&snap, "t", "other"), vec![1]);
        assert!(span_durations(&snap, "u", "s").is_empty());
    }

    #[test]
    fn cross_thread_events_merge_sorted_and_dead_rings_prune() {
        let _g = serial();
        let base = lock(&REGISTRY).len();
        set_spans(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _span = trace_span!("t", "worker");
                });
            }
        });
        let _main = trace_span!("t", "main");
        drop(_main);
        set_spans(false);
        let snap = drain();
        assert_eq!(snap.threads.len(), 4);
        assert_eq!(snap.events.len(), 8);
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        check_nesting(&snap).unwrap();
        // The three scoped threads died: their rings must be pruned.
        // scope() returns when the closures finish, which can be a
        // hair before thread teardown runs the TLS destructor that
        // marks a ring dead — and threads of *other* tests may still
        // be winding down — so poll (drain prunes) and only bound
        // the count, don't demand an exact one.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while lock(&REGISTRY).len() > base + 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker rings never pruned"
            );
            std::thread::yield_now();
            drain();
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = serial();
        set_spans(true);
        for i in 0..(RING_CAPACITY + 10) {
            trace_counter!("t", "tick", i as u64);
        }
        set_spans(false);
        let snap = drain();
        assert_eq!(snap.events.len(), RING_CAPACITY);
        assert_eq!(snap.dropped, 10);
        assert_eq!(snap.events[0].args[0].1, 10);
    }

    #[test]
    fn escaping_covers_controls_and_non_ascii() {
        assert_eq!(escape_json_string("plain"), "plain");
        assert_eq!(escape_json_string("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json_string("\n\t\r"), "\\n\\t\\r");
        assert_eq!(escape_json_string("\u{7}"), "\\u0007");
        assert_eq!(escape_json_string("é"), "\\u00e9");
        assert_eq!(escape_json_string("🦀"), "\\ud83e\\udd80");
        assert!(escape_json_string("🦀 naïve \"x\"").is_ascii());
    }

    #[test]
    fn writer_renders_every_event_kind() {
        let _g = serial();
        set_spans(true);
        {
            let _span = trace_span!("cat", "b_e", "k" => 5u64);
            trace_instant!("cat", "point");
            trace_counter!("cat", "depth", 42u64);
        }
        complete_from("cat", "x_span", armed_now(), &[]);
        set_spans(false);
        let json = to_chrome_json(&drain());
        for needle in [
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"X\"",
            "\"ph\":\"M\"",
            "\"name\":\"b_e\"",
            "\"args\":{\"k\":5}",
            "\"args\":{\"value\":42}",
            "\"dur\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn structure_signature_ignores_threads_and_time() {
        let _g = serial();
        set_spans(true);
        let run = |workers: usize| {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let _outer = trace_span!("t", "outer");
                        let _inner = trace_span!("t", "inner");
                    });
                }
            });
            structure_signature(&drain())
        };
        let a = run(1);
        // One worker emits the same *per-span* structure as four, so
        // scale the expectation.
        let b = run(4);
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(b[k], v * 4, "{k}");
        }
        set_spans(false);
    }
}
