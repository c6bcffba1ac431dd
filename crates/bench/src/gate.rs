//! The CI bench-regression gate.
//!
//! `bench_gate` compares a freshly produced `BENCH_*.json` against the
//! newest committed baseline at the **same thread count** and fails
//! when any kernel or service throughput regressed by more than the
//! allowed fraction. This is what makes the committed baselines
//! enforceable: without it a PR can silently undo the kernel work the
//! baselines document.
//!
//! Comparison rules:
//!
//! * Entries pair by `name`. A baseline entry missing from the fresh
//!   run fails the gate as a total regression (a vanished measurement
//!   is not a pass); fresh-only entries are ignored until a baseline
//!   containing them is committed — so *adding* suite entries never
//!   breaks the gate, and *retiring* one is done by committing the
//!   new baseline in the same PR.
//! * When the two files disagree on `quick`, entries whose *workload
//!   size* depends on the quick flag (fixed-iteration (P4) solves, the
//!   simulator horizon) are skipped — their per-iteration times are
//!   not comparable. The service, summarize, and homogeneous kernels
//!   do identical work in both modes and stay gated.
//! * The JSON `service` section pairs by `batch` and compares every
//!   baseline `*_rps` rate, with the same missing-is-a-regression
//!   rule.
//!
//! The JSON parser is hand-rolled (offline environment, no serde) and
//! covers exactly the subset the bench writer emits — plus enough
//! generality (escapes, nesting) to stay robust to format evolution.

use std::collections::BTreeMap;

/// Fallback list of suite entries whose measured work shrinks under
/// `--quick` (comparing their quick vs full per-iteration numbers is
/// meaningless). New bench records stamp this per entry in a
/// `quick_sensitive` JSON array — the writer knows at suite-build
/// time — and [`compare`] prefers the stamps; this list only covers
/// baselines written before the stamp existed.
pub const QUICK_SENSITIVE: [&str; 5] = [
    "p4_solve_n8",
    "p4_solve_n12",
    "p4_solve_n16",
    "p4_solve_n12_naive",
    "sim_grid7x7",
];

/// A parsed JSON value (just enough for bench records).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order irrelevant for our use).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document. Errors carry a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {pos}", ch as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at offset {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    // `\uXXXX`, including surrogate pairs — the trace
                    // writer escapes every non-ASCII char this way.
                    b'u' => out.push(parse_unicode_escape(b, pos)?),
                    other => return Err(format!("unsupported escape `\\{}`", other as char)),
                }
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}

/// Four hex digits after a `\u` (the `\u` itself already consumed).
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos.checked_add(4).filter(|&e| e <= b.len());
    let hex = end
        .and_then(|e| std::str::from_utf8(&b[*pos..e]).ok())
        .ok_or_else(|| format!("truncated \\u escape at offset {pos}"))?;
    let v = u32::from_str_radix(hex, 16)
        .map_err(|_| format!("bad \\u escape `{hex}` at offset {pos}"))?;
    *pos += 4;
    Ok(v)
}

/// One `\uXXXX` escape (cursor just past the `u`), consuming the low
/// half of a surrogate pair when the first unit is a high surrogate.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let hi = parse_hex4(b, pos)?;
    let code = match hi {
        0xD800..=0xDBFF => {
            if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                return Err(format!("unpaired high surrogate at offset {pos}"));
            }
            *pos += 2;
            let lo = parse_hex4(b, pos)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(format!("bad low surrogate at offset {pos}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("unpaired low surrogate at offset {pos}")),
        other => other,
    };
    char::from_u32(code).ok_or_else(|| format!("invalid \\u code point at offset {pos}"))
}

/// The gate's view of one bench record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// `git_sha` field.
    pub git_sha: String,
    /// `created_unix` field (0 when absent).
    pub created_unix: u64,
    /// Worker-pool size the suite ran under.
    pub threads: u64,
    /// Whether the reduced smoke suite ran.
    pub quick: bool,
    /// `name → per_second` over the entries section.
    pub entries: BTreeMap<String, f64>,
    /// `(batch, rate-field) → requests/sec` over the service section.
    pub service: BTreeMap<(u64, String), f64>,
    /// `(batch, latency-field) → µs` over the service section's
    /// `*_p99_us` tail-latency fields. **Gated** by [`compare`] with
    /// the inverted direction: a fresh p99 *above* the baseline's by
    /// more than the allowed fraction fails. p99 earns teeth because
    /// the tail passes sample enough calls (120 quick / 400 full) for
    /// it to be stable; p50 adds nothing over the rps gate and p99.9
    /// is a 1-sample order statistic at these counts.
    pub service_p99: BTreeMap<(u64, String), f64>,
    /// `(batch, latency-field) → µs` over the service section's other
    /// `_us` tail-latency fields (p50, p99.9). **Informational only**:
    /// shown in the ratio table, never gated by [`compare`] — too few
    /// effective samples at the extreme tail for a regression policy.
    pub service_info: BTreeMap<(u64, String), f64>,
    /// `(multiplier-label, rate-field) → requests/sec` over the
    /// openloop section (`goodput_rps`, `offered_rps`, plus the
    /// calibration `capacity_rps`). Same teeth as [`BenchDoc::service`]:
    /// gated against any baseline that carries the row — which makes
    /// the rows informational `[new]` on the first run after the
    /// harness lands and load-bearing from the next committed baseline
    /// on.
    pub openloop: BTreeMap<(String, String), f64>,
    /// `(multiplier-label, latency-field) → µs` over the openloop
    /// section's `*_p99_us` fields. Gated inverted, like
    /// [`BenchDoc::service_p99`].
    pub openloop_p99: BTreeMap<(String, String), f64>,
    /// Other openloop fields (`shed_rate`, `degraded_rate`, non-p99
    /// `_us` tails). **Informational only** — a shed rate is a policy
    /// outcome, not a performance promise.
    pub openloop_info: BTreeMap<(String, String), f64>,
    /// The record's own `quick_sensitive` entry list, when the writer
    /// was new enough to emit one (`None` on pre-gate baselines).
    pub quick_sensitive: Option<Vec<String>>,
}

/// Extracts a [`BenchDoc`] from parsed bench JSON.
pub fn bench_doc(json: &Json) -> Result<BenchDoc, String> {
    let entries = json
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries[]")?
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("per_second")?.as_num()?,
            ))
        })
        .collect();
    let mut service = BTreeMap::new();
    let mut service_p99 = BTreeMap::new();
    let mut service_info = BTreeMap::new();
    for row in json
        .get("service")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let Some(batch) = row.get("batch").and_then(Json::as_num) else {
            continue;
        };
        if let Json::Obj(fields) = row {
            for (key, value) in fields {
                if key.ends_with("_rps") {
                    if let Some(rate) = value.as_num() {
                        service.insert((batch as u64, key.clone()), rate);
                    }
                } else if key.ends_with("_p99_us") {
                    if let Some(us) = value.as_num() {
                        service_p99.insert((batch as u64, key.clone()), us);
                    }
                } else if key.ends_with("_us") {
                    if let Some(us) = value.as_num() {
                        service_info.insert((batch as u64, key.clone()), us);
                    }
                }
            }
        }
    }
    let mut openloop = BTreeMap::new();
    let mut openloop_p99 = BTreeMap::new();
    let mut openloop_info = BTreeMap::new();
    if let Some(ol) = json.get("openloop") {
        if let Some(cap) = ol.get("capacity_rps").and_then(Json::as_num) {
            openloop.insert(("calibration".to_string(), "capacity_rps".to_string()), cap);
        }
        for row in ol.get("rows").and_then(Json::as_arr).unwrap_or_default() {
            let Some(mult) = row.get("multiplier").and_then(Json::as_num) else {
                continue;
            };
            let label = format!("x{mult}");
            if let Json::Obj(fields) = row {
                for (key, value) in fields {
                    let Some(v) = value.as_num() else { continue };
                    // `offered_rps` is input-side accounting — how much
                    // load the *generator* managed to put on the wire
                    // (behind-schedule arrivals skip the sweep), which
                    // tracks machine load, not the system under test.
                    // Goodput and calibration stay gated; offered is
                    // informational.
                    if key == "offered_rps" {
                        openloop_info.insert((label.clone(), key.clone()), v);
                    } else if key.ends_with("_rps") {
                        openloop.insert((label.clone(), key.clone()), v);
                    } else if key.ends_with("_p99_us") {
                        openloop_p99.insert((label.clone(), key.clone()), v);
                    } else if key.ends_with("_us") || key.ends_with("_rate") {
                        openloop_info.insert((label.clone(), key.clone()), v);
                    }
                }
            }
        }
    }
    Ok(BenchDoc {
        git_sha: json
            .get("git_sha")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        created_unix: json
            .get("created_unix")
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64,
        threads: json
            .get("threads")
            .and_then(Json::as_num)
            .ok_or("missing threads")? as u64,
        quick: matches!(json.get("quick"), Some(Json::Bool(true))),
        entries,
        service,
        service_p99,
        service_info,
        openloop,
        openloop_p99,
        openloop_info,
        quick_sensitive: json.get("quick_sensitive").and_then(Json::as_arr).map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        }),
    })
}

/// Whether `name` is quick-sensitive for this fresh/baseline pair.
/// Quick-sensitivity comes from the records themselves (the suite
/// builder stamps it per entry), unioned across both sides so a new
/// fresh record also protects an old baseline; [`QUICK_SENSITIVE`]
/// is the fallback for records predating the stamp.
fn is_quick_sensitive(name: &str, fresh: &BenchDoc, baseline: &BenchDoc) -> bool {
    let stamped = |doc: &BenchDoc| {
        doc.quick_sensitive
            .as_ref()
            .is_some_and(|list| list.iter().any(|n| n == name))
    };
    if fresh.quick_sensitive.is_none() && baseline.quick_sensitive.is_none() {
        QUICK_SENSITIVE.contains(&name)
    } else {
        stamped(fresh) || stamped(baseline)
    }
}

/// One row of the per-entry comparison table the gate prints on every
/// run — pass or fail — so a green gate still shows where each
/// throughput moved.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    /// Entry name or `service batch=N field`.
    pub what: String,
    /// Baseline throughput; `None` for entries the baseline lacks
    /// (informational "new" — never an error).
    pub baseline: Option<f64>,
    /// Fresh throughput; `None` when the measurement vanished.
    pub fresh: Option<f64>,
    /// Skipped by the gate (quick-sensitive across a quick/full
    /// comparison) — shown, but its ratio is not gated.
    pub skipped: bool,
}

impl RatioRow {
    /// `fresh / baseline` when both sides measured.
    pub fn ratio(&self) -> Option<f64> {
        match (self.fresh, self.baseline) {
            (Some(f), Some(b)) if b > 0.0 => Some(f / b),
            _ => None,
        }
    }
}

/// Builds the full comparison table: every baseline entry in order,
/// then fresh-only entries tagged as new (`baseline: None`). Service
/// rates follow the kernel entries.
pub fn ratio_rows(fresh: &BenchDoc, baseline: &BenchDoc) -> Vec<RatioRow> {
    let modes_differ = fresh.quick != baseline.quick;
    let mut out = Vec::new();
    for (name, &base_rate) in &baseline.entries {
        out.push(RatioRow {
            what: name.clone(),
            baseline: Some(base_rate),
            fresh: fresh.entries.get(name).copied(),
            skipped: modes_differ && is_quick_sensitive(name, fresh, baseline),
        });
    }
    for (name, &rate) in &fresh.entries {
        if !baseline.entries.contains_key(name) {
            out.push(RatioRow {
                what: name.clone(),
                baseline: None,
                fresh: Some(rate),
                skipped: false,
            });
        }
    }
    for ((batch, field), &base_rate) in &baseline.service {
        out.push(RatioRow {
            what: format!("service batch={batch} {field}"),
            baseline: Some(base_rate),
            fresh: fresh.service.get(&(*batch, field.clone())).copied(),
            skipped: false,
        });
    }
    for ((batch, field), &rate) in &fresh.service {
        if !baseline.service.contains_key(&(*batch, field.clone())) {
            out.push(RatioRow {
                what: format!("service batch={batch} {field}"),
                baseline: None,
                fresh: Some(rate),
                skipped: false,
            });
        }
    }
    // Gated p99 latency fields. A ratio above 1 is the regression
    // direction here (compare() inverts), but the table prints the
    // plain fresh/baseline ratio for both kinds.
    for ((batch, field), &base_us) in &baseline.service_p99 {
        out.push(RatioRow {
            what: format!("service batch={batch} {field}"),
            baseline: Some(base_us),
            fresh: fresh.service_p99.get(&(*batch, field.clone())).copied(),
            skipped: false,
        });
    }
    for ((batch, field), &us) in &fresh.service_p99 {
        if !baseline.service_p99.contains_key(&(*batch, field.clone())) {
            out.push(RatioRow {
                what: format!("service batch={batch} {field}"),
                baseline: None,
                fresh: Some(us),
                skipped: false,
            });
        }
    }
    // Tail-latency (`_us`) fields: informational rows only. They pair
    // like the rates when both sides have them, but compare() never
    // gates them — a baseline-only latency field is a display hole,
    // not a regression.
    for ((batch, field), &base_us) in &baseline.service_info {
        out.push(RatioRow {
            what: format!("service batch={batch} {field}"),
            baseline: Some(base_us),
            fresh: fresh.service_info.get(&(*batch, field.clone())).copied(),
            skipped: false,
        });
    }
    for ((batch, field), &us) in &fresh.service_info {
        if !baseline.service_info.contains_key(&(*batch, field.clone())) {
            out.push(RatioRow {
                what: format!("service batch={batch} {field}"),
                baseline: None,
                fresh: Some(us),
                skipped: false,
            });
        }
    }
    // Open-loop rows: rates pair-and-gate like service rates, p99s
    // like service p99s, the rest informational. A baseline without
    // the section (pre-overload-control records) simply pairs nothing,
    // so every fresh row shows as `[new]`.
    let openloop_maps = [
        (&baseline.openloop, &fresh.openloop),
        (&baseline.openloop_p99, &fresh.openloop_p99),
        (&baseline.openloop_info, &fresh.openloop_info),
    ];
    for (base_map, fresh_map) in openloop_maps {
        for ((label, field), &base_v) in base_map.iter() {
            out.push(RatioRow {
                what: format!("openloop {label} {field}"),
                baseline: Some(base_v),
                fresh: fresh_map.get(&(label.clone(), field.clone())).copied(),
                skipped: false,
            });
        }
        for ((label, field), &v) in fresh_map.iter() {
            if !base_map.contains_key(&(label.clone(), field.clone())) {
                out.push(RatioRow {
                    what: format!("openloop {label} {field}"),
                    baseline: None,
                    fresh: Some(v),
                    skipped: false,
                });
            }
        }
    }
    out
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Entry name or `service batch=N field`.
    pub what: String,
    /// Baseline value (per second, or µs for latency rows).
    pub baseline: f64,
    /// Fresh value (per second, or µs for latency rows; infinite when
    /// a baseline latency vanished from the fresh run).
    pub fresh: f64,
    /// Whether this is a latency row — the direction inverts: for
    /// throughput, lower fresh is the regression; for latency, higher.
    pub latency: bool,
}

impl Regression {
    /// The fractional regression, e.g. 0.42 for a 42% throughput loss
    /// or a 42% p99 increase.
    pub fn loss(&self) -> f64 {
        if self.latency {
            self.fresh / self.baseline - 1.0
        } else {
            1.0 - self.fresh / self.baseline
        }
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.latency {
            write!(
                f,
                "{}: {:.1}us -> {:.1}us p99 ({:.0}% increase)",
                self.what,
                self.baseline,
                self.fresh,
                self.loss() * 100.0
            )
        } else {
            write!(
                f,
                "{}: {:.3}/s -> {:.3}/s ({:.0}% loss)",
                self.what,
                self.baseline,
                self.fresh,
                self.loss() * 100.0
            )
        }
    }
}

/// Every failed binding check of the gate on one fresh record, one line
/// each: the paired [`metrics_overhead_check`] first, then — when a
/// comparable baseline exists — each regressed baseline row
/// ([`compare`]). All checks run before the gate decides, so one
/// failing check never hides another. Empty when the gate passes.
pub fn gate_failures(
    fresh: &BenchDoc,
    baseline: Option<&BenchDoc>,
    max_loss: f64,
    max_lat_gain: f64,
    max_metrics_loss: f64,
) -> Vec<String> {
    let regressions = baseline
        .map(|b| compare(fresh, b, max_loss, max_lat_gain))
        .unwrap_or_default();
    metrics_overhead_check(fresh, max_metrics_loss)
        .err()
        .into_iter()
        .chain(regressions.iter().map(Regression::to_string))
        .collect()
}

/// The batch size the always-on-overhead contract binds at: large
/// enough that per-batch fixed costs vanish and the per-request
/// metrics cost is what's measured.
pub const METRICS_OVERHEAD_BATCH: u64 = 256;

/// The `warm_rps_metrics_on` check: the warm batch-256 row with the
/// always-on metrics plane recording (`warm_metrics_rps`) must hold
/// within `max_loss` of the recording-off `warm_rps` from the **same**
/// record. Paired within one run — no baseline involved — so the
/// contract binds from the first run on any machine, and machine
/// speed divides out.
///
/// Returns `Ok(Some((warm, warm_metrics)))` when the pair was present
/// and held, `Ok(None)` when the record has no warm batch-256 row at
/// all (a filtered run), and `Err` when the metrics row is missing or
/// out of budget — a vanished overhead row must not pass the gate
/// that exists to watch it.
pub fn metrics_overhead_check(
    fresh: &BenchDoc,
    max_loss: f64,
) -> Result<Option<(f64, f64)>, String> {
    let batch = METRICS_OVERHEAD_BATCH;
    let warm = fresh.service.get(&(batch, "warm_rps".to_string())).copied();
    let on = fresh
        .service
        .get(&(batch, "warm_metrics_rps".to_string()))
        .copied();
    match (warm, on) {
        (None, _) => Ok(None),
        (Some(_), None) => Err(format!(
            "warm_rps_metrics_on: batch {batch} has warm_rps but no warm_metrics_rps row"
        )),
        (Some(w), Some(m)) if m < (1.0 - max_loss) * w => Err(format!(
            "warm_rps_metrics_on: {m:.0} req/s with the metrics plane vs {w:.0} req/s \
             without ({:.1}% loss > {:.0}% budget)",
            (1.0 - m / w) * 100.0,
            max_loss * 100.0
        )),
        (Some(w), Some(m)) => Ok(Some((w, m))),
    }
}

/// Compares `fresh` against `baseline`, returning every baseline
/// throughput that lost more than `max_loss` (e.g. 0.30 = fail on a
/// regression above 30%) and every baseline p99 latency that *grew*
/// by more than `max_lat_gain` (e.g. 0.50 = fail when the fresh p99
/// is over 1.5× the baseline's). Quick-sensitive entries are skipped
/// when the two records disagree on `quick`.
///
/// A baseline throughput *absent* from the fresh run counts as a total
/// regression (rate 0): a silently vanished measurement — e.g. the
/// socket bench failing to bind and emitting `socket_rps: null` —
/// must not pass the gate it exists to feed. A vanished p99 fails the
/// same way (fresh = ∞). Retiring a suite entry on purpose is done by
/// committing the new baseline in the same PR; the gate always
/// compares against the newest one. Entries that only exist in the
/// fresh run are ignored (new measurements have no baseline yet).
pub fn compare(
    fresh: &BenchDoc,
    baseline: &BenchDoc,
    max_loss: f64,
    max_lat_gain: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let modes_differ = fresh.quick != baseline.quick;
    let quick_sensitive = |name: &str| is_quick_sensitive(name, fresh, baseline);
    for (name, &base_rate) in &baseline.entries {
        if base_rate <= 0.0 || (modes_differ && quick_sensitive(name)) {
            continue;
        }
        let fresh_rate = fresh.entries.get(name).copied().unwrap_or(0.0);
        if fresh_rate < (1.0 - max_loss) * base_rate {
            out.push(Regression {
                what: if fresh.entries.contains_key(name) {
                    name.clone()
                } else {
                    format!("{name} (missing from fresh run)")
                },
                baseline: base_rate,
                fresh: fresh_rate,
                latency: false,
            });
        }
    }
    for ((batch, field), &base_rate) in &baseline.service {
        if base_rate <= 0.0 {
            continue;
        }
        let key = (*batch, field.clone());
        let fresh_rate = fresh.service.get(&key).copied().unwrap_or(0.0);
        if fresh_rate < (1.0 - max_loss) * base_rate {
            out.push(Regression {
                what: if fresh.service.contains_key(&key) {
                    format!("service batch={batch} {field}")
                } else {
                    format!("service batch={batch} {field} (missing from fresh run)")
                },
                baseline: base_rate,
                fresh: fresh_rate,
                latency: false,
            });
        }
    }
    for ((batch, field), &base_us) in &baseline.service_p99 {
        if base_us <= 0.0 {
            continue;
        }
        let key = (*batch, field.clone());
        let fresh_us = fresh
            .service_p99
            .get(&key)
            .copied()
            .unwrap_or(f64::INFINITY);
        if fresh_us > (1.0 + max_lat_gain) * base_us {
            out.push(Regression {
                what: if fresh.service_p99.contains_key(&key) {
                    format!("service batch={batch} {field}")
                } else {
                    format!("service batch={batch} {field} (missing from fresh run)")
                },
                baseline: base_us,
                fresh: fresh_us,
                latency: true,
            });
        }
    }
    // Open-loop rows earn the same teeth the moment a committed
    // baseline carries them: goodput/capacity are throughput promises,
    // accepted p99 is a latency promise. (`openloop_info` — shed and
    // degraded rates plus the generator-side offered rate — stays
    // informational: those are policy outcomes and input accounting
    // of the offered load, not performance contracts.)
    for ((label, field), &base_rate) in &baseline.openloop {
        if base_rate <= 0.0 {
            continue;
        }
        let key = (label.clone(), field.clone());
        let fresh_rate = fresh.openloop.get(&key).copied().unwrap_or(0.0);
        if fresh_rate < (1.0 - max_loss) * base_rate {
            out.push(Regression {
                what: if fresh.openloop.contains_key(&key) {
                    format!("openloop {label} {field}")
                } else {
                    format!("openloop {label} {field} (missing from fresh run)")
                },
                baseline: base_rate,
                fresh: fresh_rate,
                latency: false,
            });
        }
    }
    for ((label, field), &base_us) in &baseline.openloop_p99 {
        if base_us <= 0.0 {
            continue;
        }
        let key = (label.clone(), field.clone());
        let fresh_us = fresh
            .openloop_p99
            .get(&key)
            .copied()
            .unwrap_or(f64::INFINITY);
        if fresh_us > (1.0 + max_lat_gain) * base_us {
            out.push(Regression {
                what: if fresh.openloop_p99.contains_key(&key) {
                    format!("openloop {label} {field}")
                } else {
                    format!("openloop {label} {field} (missing from fresh run)")
                },
                baseline: base_us,
                fresh: fresh_us,
                latency: true,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(quick: bool, entries: &[(&str, f64)], service: &[(u64, &str, f64)]) -> BenchDoc {
        BenchDoc {
            git_sha: "test".into(),
            created_unix: 1,
            threads: 1,
            quick,
            entries: entries.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            service: service
                .iter()
                .map(|(b, f, v)| ((*b, f.to_string()), *v))
                .collect(),
            service_p99: BTreeMap::new(),
            service_info: BTreeMap::new(),
            openloop: BTreeMap::new(),
            openloop_p99: BTreeMap::new(),
            openloop_info: BTreeMap::new(),
            // Legacy-shaped records: compare() falls back to the
            // hardcoded QUICK_SENSITIVE list.
            quick_sensitive: None,
        }
    }

    #[test]
    fn parser_handles_the_bench_shape() {
        let json = parse_json(
            r#"{
  "git_sha": "abc",
  "created_unix": 123,
  "threads": 2,
  "quick": false,
  "entries": [
    {"name": "k1", "mean_s": 1e-3, "best_s": 9.5e-4, "iterations": 100, "per_second": 1000.0}
  ],
  "service": [
    {"batch": 32, "cold_rps": 10.5, "warm_rps": 100.0, "socket_rps": null}
  ],
  "derived": {"p4_n12_speedup_vs_naive": 34.61}
}"#,
        )
        .unwrap();
        let doc = bench_doc(&json).unwrap();
        assert_eq!(doc.git_sha, "abc");
        assert_eq!(doc.created_unix, 123);
        assert_eq!(doc.threads, 2);
        assert!(!doc.quick);
        assert_eq!(doc.entries["k1"], 1000.0);
        assert_eq!(doc.service[&(32, "cold_rps".into())], 10.5);
        assert_eq!(doc.service[&(32, "warm_rps".into())], 100.0);
        // A null socket rate (bind failure) is simply absent.
        assert!(!doc.service.contains_key(&(32, "socket_rps".into())));
        // Pre-gate records carry no quick-sensitivity stamp.
        assert_eq!(doc.quick_sensitive, None);
    }

    #[test]
    fn parser_roundtrips_real_writer_output() {
        // The actual writer's output must stay parsable — this is the
        // contract the CI gate depends on.
        let report = crate::perf::SuiteReport {
            measurements: vec![crate::timing::Measurement {
                name: "k".into(),
                iterations: 5,
                mean_s: 0.1,
                best_s: 0.09,
            }],
            p4_n12_speedup: None,
            service: vec![crate::perf::ServiceThroughput {
                batch: 1,
                cold_rps: 5.0,
                warm_rps: 50.0,
                warm_metrics_rps: Some(48.5),
                socket_rps: Some(25.0),
                cluster_rps: Some(12.5),
                warm_p50_us: Some(2.5),
                warm_p99_us: Some(7.5),
                warm_p999_us: Some(30.0),
                socket_p50_us: Some(100.0),
                socket_p99_us: Some(250.0),
                socket_p999_us: Some(400.0),
                cluster_p50_us: None,
                cluster_p99_us: Some(800.0),
                cluster_p999_us: None,
            }],
            threads: 3,
            quick: true,
            quick_sensitive: vec!["k".into()],
            cluster_spans: vec![crate::perf::SpanStats {
                name: "dial",
                count: 2,
                p50_us: Some(55.0),
                p99_us: Some(60.0),
                p999_us: Some(60.0),
            }],
            openloop: Some(crate::openloop::OpenLoopReport {
                capacity_rps: 4000.0,
                rows: vec![crate::openloop::OpenLoopRow {
                    multiplier: 2.0,
                    offered: 100,
                    accepted: 80,
                    shed: 20,
                    offered_rps: 8000.0,
                    goodput_rps: 6400.0,
                    shed_rate: 0.2,
                    degraded_rate: 0.1,
                    deadline_expired: 0,
                    error_count: 0,
                    accepted_p50_us: Some(900.0),
                    accepted_p99_us: Some(9500.0),
                    accepted_p999_us: None,
                }],
            }),
        };
        let text = crate::perf::to_json(&report, "deadbee");
        let doc = bench_doc(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(doc.threads, 3);
        assert!(doc.quick);
        assert_eq!(doc.entries["k"], 10.0);
        assert_eq!(doc.service[&(1, "socket_rps".into())], 25.0);
        assert_eq!(doc.service[&(1, "cluster_rps".into())], 12.5);
        assert_eq!(doc.service[&(1, "warm_metrics_rps".into())], 48.5);
        // p50/p99.9 percentiles land in the informational map; the
        // p99s land in the gated latency map; neither pollutes the
        // throughput map.
        assert_eq!(doc.service_info[&(1, "warm_p50_us".into())], 2.5);
        assert_eq!(doc.service_info[&(1, "warm_p999_us".into())], 30.0);
        assert_eq!(doc.service_p99[&(1, "warm_p99_us".into())], 7.5);
        assert_eq!(doc.service_p99[&(1, "socket_p99_us".into())], 250.0);
        assert_eq!(doc.service_p99[&(1, "cluster_p99_us".into())], 800.0);
        assert!(!doc.service.contains_key(&(1, "warm_p50_us".into())));
        assert!(!doc.service_info.contains_key(&(1, "socket_p99_us".into())));
        assert_eq!(doc.quick_sensitive.as_deref(), Some(&["k".to_string()][..]));
        // Open-loop rows land in their suffix-matched maps: goodput and
        // calibration gated, p99 gated inverted, policy rates and the
        // generator-side offered rate informational.
        let key = |f: &str| ("x2".to_string(), f.to_string());
        assert_eq!(
            doc.openloop[&("calibration".to_string(), "capacity_rps".to_string())],
            4000.0
        );
        assert_eq!(doc.openloop[&key("goodput_rps")], 6400.0);
        assert_eq!(doc.openloop_info[&key("offered_rps")], 8000.0);
        assert!(!doc.openloop.contains_key(&key("offered_rps")));
        assert_eq!(doc.openloop_p99[&key("accepted_p99_us")], 9500.0);
        assert_eq!(doc.openloop_info[&key("shed_rate")], 0.2);
        assert_eq!(doc.openloop_info[&key("degraded_rate")], 0.1);
        assert_eq!(doc.openloop_info[&key("accepted_p50_us")], 900.0);
        // `null` p999 and the raw counts don't become rows.
        assert!(!doc.openloop_info.contains_key(&key("accepted_p999_us")));
        assert!(!doc.openloop.contains_key(&key("accepted")));
    }

    #[test]
    fn parse_unicode_escapes() {
        let v = parse_json("\"\\u0041\\u00e9\\ud83d\\ude00\\b\\f\"").unwrap();
        match v {
            Json::Str(s) => assert_eq!(s, "A\u{e9}\u{1f600}\u{8}\u{c}"),
            _ => panic!("expected string"),
        }
        // Unpaired or malformed surrogates must be rejected, not
        // silently mangled.
        assert!(parse_json(r#""\ud83d""#).is_err());
        assert!(parse_json(r#""\ud83dxxxx""#).is_err());
        assert!(parse_json(r#""\udc00""#).is_err());
        assert!(parse_json(r#""\uzzzz""#).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn regressions_detected_above_threshold_only() {
        let base = doc(
            false,
            &[("kernel", 100.0), ("other", 10.0)],
            &[(32, "warm_rps", 1000.0)],
        );
        let fresh = doc(
            false,
            &[("kernel", 65.0), ("other", 9.0), ("brand_new", 1.0)],
            &[(32, "warm_rps", 720.0), (256, "warm_rps", 5.0)],
        );
        let regs = compare(&fresh, &base, 0.30, 0.50);
        // kernel lost 35% (> 30%) → flagged; other lost 10% → fine;
        // warm_rps lost 28% → fine; unmatched names/batches ignored.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].what, "kernel");
        assert!((regs[0].loss() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn p99_latency_gates_in_the_inverted_direction() {
        let with_p99 = |lat: &[(u64, &str, f64)]| {
            let mut d = doc(false, &[], &[]);
            d.service_p99 = lat
                .iter()
                .map(|(b, f, v)| ((*b, f.to_string()), *v))
                .collect();
            d
        };
        let base = with_p99(&[
            (256, "socket_p99_us", 100.0),
            (256, "cluster_p99_us", 500.0),
        ]);
        // 40% slower p99 passes a 50% gate; 60% slower fails; faster
        // p99 is never a regression.
        let fresh = with_p99(&[
            (256, "socket_p99_us", 140.0),
            (256, "cluster_p99_us", 400.0),
        ]);
        assert!(compare(&fresh, &base, 0.30, 0.50).is_empty());
        let slow = with_p99(&[
            (256, "socket_p99_us", 160.0),
            (256, "cluster_p99_us", 400.0),
        ]);
        let regs = compare(&slow, &base, 0.30, 0.50);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].what, "service batch=256 socket_p99_us");
        assert!(regs[0].latency);
        assert!((regs[0].loss() - 0.60).abs() < 1e-12);
        // A vanished p99 is a total regression, like a vanished rate.
        let gone = with_p99(&[(256, "socket_p99_us", 90.0)]);
        let regs = compare(&gone, &base, 0.30, 0.50);
        assert_eq!(regs.len(), 1);
        assert_eq!(
            regs[0].what,
            "service batch=256 cluster_p99_us (missing from fresh run)"
        );
        assert_eq!(regs[0].fresh, f64::INFINITY);
        // And the ratio table shows p99 rows from both sides.
        let rows = ratio_rows(&gone, &base);
        assert!(rows
            .iter()
            .any(|r| r.what == "service batch=256 socket_p99_us"
                && r.ratio().is_some_and(|x| (x - 0.9).abs() < 1e-12)));
        assert!(rows
            .iter()
            .any(|r| r.what == "service batch=256 cluster_p99_us" && r.fresh.is_none()));
    }

    #[test]
    fn quick_mismatch_skips_quick_sensitive_entries() {
        let base = doc(
            false,
            &[("p4_solve_n12", 30.0), ("gibbs_summarize_n12", 4000.0)],
            &[],
        );
        let fresh = doc(
            true,
            &[("p4_solve_n12", 300.0), ("gibbs_summarize_n12", 1000.0)],
            &[],
        );
        let regs = compare(&fresh, &base, 0.30, 0.50);
        // Only the quick-invariant summarize kernel is gated.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].what, "gibbs_summarize_n12");
        // Same quick flag ⇒ everything is gated again: the p4 entry
        // regressed and the summarize entry is missing entirely.
        let fresh_full = doc(false, &[("p4_solve_n12", 3.0)], &[]);
        assert_eq!(compare(&fresh_full, &base, 0.30, 0.50).len(), 2);
    }

    #[test]
    fn stamped_quick_sensitivity_overrides_the_fallback_list() {
        // A record that stamps its own quick-sensitive entries governs
        // the skip, even for names the fallback list never heard of.
        let base = doc(false, &[("new_fixed_iter_kernel", 100.0)], &[]);
        let mut fresh = doc(true, &[("new_fixed_iter_kernel", 500.0)], &[]);
        // Unstamped on both sides + unknown to the fallback ⇒ gated
        // (and passing, since the quick run is faster).
        assert!(compare(&fresh, &base, 0.30, 0.50).is_empty());
        let mut slow = fresh.clone();
        slow.entries.insert("new_fixed_iter_kernel".into(), 10.0);
        assert_eq!(compare(&slow, &base, 0.30, 0.50).len(), 1);
        // Stamped by the fresh record ⇒ skipped across quick/full.
        slow.quick_sensitive = Some(vec!["new_fixed_iter_kernel".into()]);
        assert!(compare(&slow, &base, 0.30, 0.50).is_empty());
        // Stamps only matter when the quick flags differ.
        slow.quick = false;
        assert_eq!(compare(&slow, &base, 0.30, 0.50).len(), 1);
        // The baseline's stamp protects too.
        fresh.entries.insert("new_fixed_iter_kernel".into(), 10.0);
        let mut stamped_base = base.clone();
        stamped_base.quick_sensitive = Some(vec!["new_fixed_iter_kernel".into()]);
        assert!(compare(&fresh, &stamped_base, 0.30, 0.50).is_empty());
    }

    #[test]
    fn ratio_rows_cover_the_union_and_tag_new_entries() {
        let base = doc(
            false,
            &[("kernel", 100.0), ("vanished", 10.0)],
            &[(32, "warm_rps", 1000.0)],
        );
        let fresh = doc(
            false,
            &[("kernel", 120.0), ("p4_solve_n32", 55.0)],
            &[(32, "warm_rps", 900.0), (32, "socket_rps", 500.0)],
        );
        let rows = ratio_rows(&fresh, &base);
        let find = |what: &str| rows.iter().find(|r| r.what == what).unwrap();
        // Shared entry: both sides, ratio defined.
        let kernel = find("kernel");
        assert_eq!(kernel.baseline, Some(100.0));
        assert!((kernel.ratio().unwrap() - 1.2).abs() < 1e-12);
        assert!(!kernel.skipped);
        // Vanished: baseline only, no ratio (compare() flags it; the
        // table just shows the hole).
        let gone = find("vanished");
        assert_eq!(gone.fresh, None);
        assert_eq!(gone.ratio(), None);
        // Fresh-only entries are informational "new" rows — present,
        // never paired, never a regression.
        let new = find("p4_solve_n32");
        assert_eq!(new.baseline, None);
        assert_eq!(new.ratio(), None);
        let new_service = find("service batch=32 socket_rps");
        assert_eq!(new_service.baseline, None);
        // And the shared service rate pairs like a kernel entry.
        assert!((find("service batch=32 warm_rps").ratio().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn ratio_rows_mark_quick_sensitive_skips() {
        let base = doc(
            false,
            &[("p4_solve_n12", 30.0), ("gibbs_summarize_n12", 4000.0)],
            &[],
        );
        let fresh = doc(
            true,
            &[("p4_solve_n12", 300.0), ("gibbs_summarize_n12", 3900.0)],
            &[],
        );
        let rows = ratio_rows(&fresh, &base);
        let find = |what: &str| rows.iter().find(|r| r.what == what).unwrap();
        assert!(find("p4_solve_n12").skipped);
        assert!(!find("gibbs_summarize_n12").skipped);
        // Same quick flag ⇒ nothing is skipped.
        let fresh_full = doc(false, &[("p4_solve_n12", 28.0)], &[]);
        assert!(ratio_rows(&fresh_full, &base).iter().all(|r| !r.skipped));
    }

    #[test]
    fn metrics_overhead_check_is_paired_within_one_record() {
        let mut fresh = doc(
            false,
            &[],
            &[
                (256, "warm_rps", 1000.0),
                (256, "warm_metrics_rps", 960.0),
                (32, "warm_rps", 500.0),
            ],
        );
        // 4% loss passes a 5% budget.
        assert_eq!(
            metrics_overhead_check(&fresh, 0.05),
            Ok(Some((1000.0, 960.0)))
        );
        // 6% loss fails it.
        fresh
            .service
            .insert((256, "warm_metrics_rps".into()), 940.0);
        assert!(metrics_overhead_check(&fresh, 0.05).is_err());
        // A vanished overhead row fails — the row the gate exists to
        // watch must not pass by disappearing.
        fresh.service.remove(&(256, "warm_metrics_rps".into()));
        assert!(metrics_overhead_check(&fresh, 0.05).is_err());
        // A filtered run without the warm batch-256 row has nothing
        // to hold.
        assert_eq!(
            metrics_overhead_check(&doc(false, &[], &[]), 0.05),
            Ok(None)
        );
    }

    #[test]
    fn gate_failures_reports_every_failure_at_once() {
        // A record that fails the overhead pair *and* regresses a
        // baseline row must report both: the overhead check may not
        // end the gate before any baseline row is compared.
        let fresh = doc(
            false,
            &[],
            &[
                (256, "warm_rps", 1000.0),
                (256, "warm_metrics_rps", 900.0),
                (32, "socket_rps", 10_000.0),
            ],
        );
        let base = doc(false, &[], &[(32, "socket_rps", 50_000.0)]);
        let failures = gate_failures(&fresh, Some(&base), 0.30, 0.50, 0.05);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("warm_rps_metrics_on:"));
        assert_eq!(
            failures[1],
            "service batch=32 socket_rps: 50000.000/s -> 10000.000/s (80% loss)"
        );
        // Without a baseline only the paired check binds.
        assert_eq!(gate_failures(&fresh, None, 0.30, 0.50, 0.05).len(), 1);
        // A passing record reports nothing.
        assert!(gate_failures(&base, Some(&base), 0.30, 0.50, 0.05).is_empty());
    }

    #[test]
    fn vanished_measurements_fail_the_gate() {
        // A baseline socket rate with no fresh counterpart (e.g. the
        // loopback bind failed and socket_rps came out null) is a
        // total regression, not a silent pass.
        let base = doc(
            false,
            &[("homogeneous_p4_n1000", 300.0)],
            &[(32, "socket_rps", 50_000.0)],
        );
        let fresh = doc(false, &[("homogeneous_p4_n1000", 290.0)], &[]);
        let regs = compare(&fresh, &base, 0.30, 0.50);
        assert_eq!(regs.len(), 1);
        assert_eq!(
            regs[0].what,
            "service batch=32 socket_rps (missing from fresh run)"
        );
        assert_eq!(regs[0].fresh, 0.0);
        assert!((regs[0].loss() - 1.0).abs() < 1e-12);
        // Fresh-only measurements are not flagged.
        let fresh_extra = doc(
            false,
            &[("homogeneous_p4_n1000", 290.0), ("brand_new", 1.0)],
            &[(32, "socket_rps", 49_000.0), (256, "socket_rps", 1.0)],
        );
        assert!(compare(&fresh_extra, &base, 0.30, 0.50).is_empty());
    }
}
