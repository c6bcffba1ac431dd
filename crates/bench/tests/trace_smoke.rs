//! Trace-writer contract tests — the CI `trace-smoke` job runs this
//! file. The tracer's Chrome JSON must parse with the same
//! hand-rolled parser the bench gate uses, escaping must round-trip
//! arbitrary strings, B/E spans must nest per thread, span structure
//! must be solver-worker-count-invariant, and the demo trace must
//! contain the full request lifecycle.

use econcast_bench::gate::{parse_json, Json};
use econcast_core::ThroughputMode;
use econcast_service::{PolicyRequest, PolicyService, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// The tracer is process-global; every test that arms it holds this
/// lock and starts from a clean slate.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    econcast_trace::set_spans(false);
    econcast_trace::reset();
    guard
}

/// Every event name in a parsed Chrome trace document.
fn event_names(doc: &Json) -> BTreeSet<String> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn trace_demo_emits_parseable_lifecycle_trace() {
    let _g = serial();
    let dir = std::env::temp_dir().join("econcast_trace_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = econcast_bench::trace_demo::run(&dir).expect("trace demo run");
    assert_eq!(report.dropped, 0, "demo outgrew the per-thread rings");
    let profiled: Vec<_> = report
        .socket_profile
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| s.name)
        .collect();
    assert_eq!(
        profiled,
        ["frame_encode", "frame_decode", "route", "serve_batch"],
        "socket profile must time every lifecycle span"
    );

    let doc = parse_json(&report.json).expect("demo trace parses with the gate parser");
    let names = event_names(&doc);
    // The full request lifecycle plus the cluster fault path.
    for want in [
        "frame_decode",
        "route",
        "serve_batch",
        "probe",
        "publish",
        "frame_encode",
        "cluster_serve",
        "remote_serve",
        "dial",
        "backend_failure",
        "failover_reserve",
        "healer_sweep",
    ] {
        assert!(
            names.contains(want),
            "demo trace missing `{want}`; has {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("solve_")),
        "no kernel solve spans: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("tier_")),
        "no tier markers: {names:?}"
    );
    std::fs::remove_file(&report.path).ok();
}

/// A batch whose requests all miss the caches: distinct heterogeneous
/// instances, alternating objectives — every request runs the full
/// probe/solve/publish lifecycle.
fn lifecycle_batch() -> Vec<PolicyRequest> {
    (0..12)
        .map(|i| PolicyRequest {
            budgets_w: (0..4)
                .map(|k| (10.0 + i as f64 + 3.0 * k as f64) * 1e-6)
                .collect(),
            listen_w: 500e-6,
            transmit_w: 450e-6,
            sigma: 0.5,
            objective: if i % 2 == 0 {
                ThroughputMode::Groupput
            } else {
                ThroughputMode::Anyput
            },
            tolerance: 1e-3,
        })
        .collect()
}

/// Span structure — nesting, names, counts — must be identical no
/// matter how many solver workers serve the batch: solves are
/// complete events, not B/E pairs, precisely so worker threads can't
/// change the shape of the trace.
#[test]
fn span_structure_is_worker_count_invariant() {
    let _g = serial();
    let batch = lifecycle_batch();
    let mut signatures = Vec::new();
    for workers in [1usize, 2, 4] {
        econcast_trace::reset();
        econcast_trace::set_spans(true);
        let mut svc = PolicyService::new(ServiceConfig {
            workers: Some(workers),
            ..ServiceConfig::default()
        });
        svc.serve_batch(&batch);
        econcast_trace::set_spans(false);
        let snap = econcast_trace::drain();
        econcast_trace::check_nesting(&snap).expect("well-nested spans");
        signatures.push((workers, econcast_trace::structure_signature(&snap)));
    }
    let (_, first) = &signatures[0];
    assert!(
        first.keys().any(|k| k.contains("solve_")),
        "signature saw no solves: {first:?}"
    );
    for (workers, sig) in &signatures[1..] {
        assert_eq!(sig, first, "span structure diverged at workers={workers}");
    }
}

proptest! {
    /// `escape_json_string` output, wrapped in quotes, parses back to
    /// the original string through the gate's JSON parser — controls,
    /// quotes, backslashes, and astral-plane characters included.
    #[test]
    fn escaping_roundtrips_through_gate_parser(
        points in proptest::collection::vec(0u32..0x11_0000, 0usize..48),
    ) {
        let s: String = points.iter().filter_map(|&p| char::from_u32(p)).collect();
        let quoted = format!("\"{}\"", econcast_trace::escape_json_string(&s));
        match parse_json(&quoted) {
            Ok(Json::Str(back)) => prop_assert_eq!(back, s),
            other => prop_assert!(false, "parse of {quoted:?} failed: {other:?}"),
        }
    }

    /// Random span trees drain to well-nested B/E sequences whose
    /// Chrome JSON parses with the gate parser.
    #[test]
    fn random_span_trees_nest_and_parse(
        depths in proptest::collection::vec(1usize..6, 1usize..10),
    ) {
        const LEVEL: [&str; 6] = ["d0", "d1", "d2", "d3", "d4", "d5"];
        let _g = serial();
        econcast_trace::set_spans(true);
        for &depth in &depths {
            let mut guards = Vec::new();
            for level in 0..depth {
                guards.push(econcast_trace::SpanGuard::begin(
                    "test",
                    LEVEL[level],
                    &[("level", level as u64)],
                ));
            }
            econcast_trace::instant("test", "leaf", &[]);
            // Innermost first — Vec::pop drops in reverse push order.
            while guards.pop().is_some() {}
        }
        econcast_trace::set_spans(false);
        let snap = econcast_trace::drain();
        econcast_trace::check_nesting(&snap).map_err(TestCaseError::fail)?;
        let json = econcast_trace::to_chrome_json(&snap);
        let doc = parse_json(&json).map_err(TestCaseError::fail)?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
            .unwrap_or(0);
        // A B and an E per span, an instant per tree, plus thread
        // metadata.
        let spans: usize = depths.iter().sum();
        prop_assert!(events >= 2 * spans + depths.len());
    }
}
