//! Socket-level metrics scrape against a live [`PolicyServer`]:
//! the always-on serve-path counters and histograms must be visible
//! through `MetricsRequest`/`MetricsResponse`, the serving-counter
//! view (`PolicyClient::stats`) must agree with the scrape it is read
//! from, and every counted event must count exactly once.

use econcast_metrics::{
    MetricsSnapshot, COUNTER_NAMES, CTR_AUTO_RESPAWNS, CTR_BATCHES, CTR_BATCH_DEDUP_HITS,
    CTR_BYTE_EVICTIONS, CTR_CLOSED_FORM_HITS, CTR_DEADLINE_EXPIRED, CTR_DEGRADED_SERVES,
    CTR_ERRORS, CTR_EXACT_HITS, CTR_EXACT_HITS_CLOSED_FORM, CTR_EXACT_HITS_FACTORIZED,
    CTR_INJECTED_FAULTS, CTR_LRU_EVICTIONS, CTR_LRU_INSERTS, CTR_QUARANTINES, CTR_REQUESTS,
    CTR_SHED_REJECTS, CTR_SOLVER_SOLVES, GAUGE_KIND_MAX, GAUGE_KIND_SUM, GAUGE_LRU_ENTRIES,
    GAUGE_QUEUE_DEPTH, GAUGE_QUEUE_DEPTH_PEAK, HIST_BATCH_NS, HIST_REQUEST_NS, NUM_COUNTERS,
    NUM_GAUGES, NUM_HISTS,
};
use econcast_service::workload::mixed_batch;
use econcast_service::{
    PolicyClient, PolicyServer, RouterConfig, ServerConfig, ServiceConfig, ServiceErrorCode,
    ServiceStats,
};
use std::time::Duration;

/// Asserts that a scrape and a serving-counter view agree on every
/// counter and gauge they share, field by registry slot.
fn assert_planes_agree(m: &MetricsSnapshot, s: &ServiceStats) {
    let shared = [
        (CTR_REQUESTS, s.requests),
        (CTR_BATCHES, s.batches),
        (CTR_EXACT_HITS, s.exact_hits),
        (CTR_CLOSED_FORM_HITS, s.closed_form_hits),
        (CTR_SOLVER_SOLVES, s.solver_solves),
        (CTR_BATCH_DEDUP_HITS, s.batch_dedup_hits),
        (CTR_ERRORS, s.errors),
        (CTR_LRU_INSERTS, s.lru_inserts),
        (CTR_LRU_EVICTIONS, s.lru_evictions),
        (CTR_EXACT_HITS_CLOSED_FORM, s.exact_hits_closed_form),
        (CTR_EXACT_HITS_FACTORIZED, s.exact_hits_factorized),
        (CTR_BYTE_EVICTIONS, s.byte_evictions),
        (CTR_AUTO_RESPAWNS, s.auto_respawns),
        (CTR_QUARANTINES, s.quarantines),
        (CTR_INJECTED_FAULTS, s.injected_faults),
        (CTR_SHED_REJECTS, s.shed_rejects),
        (CTR_DEGRADED_SERVES, s.degraded_serves),
        (CTR_DEADLINE_EXPIRED, s.deadline_expired),
    ];
    for (idx, v) in shared {
        assert_eq!(m.counter(idx), v, "{}", COUNTER_NAMES[idx]);
    }
    assert_eq!(m.gauge(GAUGE_LRU_ENTRIES), s.lru_len);
    assert_eq!(m.gauge(GAUGE_QUEUE_DEPTH_PEAK), s.queue_depth_peak);
}

#[test]
fn scrape_reports_serve_path_counters_histograms_and_gauges() {
    let handle = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 2,
                service: ServiceConfig {
                    workers: Some(1),
                    ..ServiceConfig::default()
                },
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();

    let batch = mixed_batch(24);
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");

    let before = client.metrics().expect("first scrape");
    // The snapshot carries the full registry shape.
    assert_eq!(before.counters.len(), NUM_COUNTERS);
    assert_eq!(before.gauges.len(), NUM_GAUGES);
    assert_eq!(before.hists.len(), NUM_HISTS);
    assert_eq!(before.gauges[GAUGE_QUEUE_DEPTH].0, GAUGE_KIND_SUM);
    assert_eq!(before.gauges[GAUGE_QUEUE_DEPTH_PEAK].0, GAUGE_KIND_MAX);

    let got = client.serve_batch(&batch).expect("serve");
    assert_eq!(got.len(), batch.len());

    // The serve path recorded unconditionally — no tracing armed, no
    // opt-in: the delta across the batch shows up in counters and in
    // both latency histograms.
    let after = client.metrics().expect("second scrape");
    assert!(
        after.counters[CTR_REQUESTS] >= before.counters[CTR_REQUESTS] + batch.len() as u64,
        "requests counter must advance by the batch"
    );
    assert!(after.counters[CTR_BATCHES] > before.counters[CTR_BATCHES]);
    assert!(after.hists[HIST_BATCH_NS].total() > before.hists[HIST_BATCH_NS].total());
    assert!(
        after.hists[HIST_REQUEST_NS].total()
            >= before.hists[HIST_REQUEST_NS].total() + batch.len() as u64
    );
    // Quiescent connection: every admitted request was released.
    assert_eq!(after.gauges[GAUGE_QUEUE_DEPTH].1, 0);
    assert!(after.gauges[GAUGE_QUEUE_DEPTH_PEAK].1 >= 1);

    // The serving-counter view agrees with the scrape of the same
    // (quiescent) server, and this server's counts are its own: the
    // batch, exactly once, whatever else runs in the process.
    let stats = client.stats(None).expect("stats");
    let scrape = client.metrics().expect("third scrape");
    assert_planes_agree(&scrape, &stats);
    assert_eq!(scrape.counter(CTR_REQUESTS), batch.len() as u64);
    assert!(scrape.gauge(GAUGE_LRU_ENTRIES) > 0);

    drop(client);
    handle.shutdown();
}

#[test]
fn one_event_one_count_across_sheds_and_expiries() {
    // A 2-slot queue and 1µs deadlines: every request is answered
    // `Overloaded`, some shed at admission and some admitted, served
    // and then past their deadline. Each answer must count exactly
    // once, and the scrape and the serving-counter view must agree.
    let handle = PolicyServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            router: RouterConfig {
                shards: 2,
                service: ServiceConfig {
                    workers: Some(1),
                    queue_capacity: 2,
                    max_queue_delay: Duration::from_millis(5),
                    ..ServiceConfig::default()
                },
                ..RouterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    let batch = mixed_batch(16);
    let mut client = PolicyClient::connect(handle.addr(), batch.len() as u16).expect("connect");
    let mut overloaded = 0u64;
    let mut pipeline = |client: &mut PolicyClient| {
        let ticket = client
            .submit_batch_deadline(&batch, Some(Duration::from_micros(1)))
            .expect("submit");
        for r in client.collect(ticket).expect("collect") {
            let e = r.expect_err("every request is rejected");
            assert_eq!(e.code, ServiceErrorCode::Overloaded);
            overloaded += 1;
        }
    };
    // The queue pinned at capacity: the whole pipeline sheds.
    let adm = handle.admission();
    let _ = (adm.admit(), adm.admit());
    pipeline(&mut client);
    adm.release(2, Duration::from_millis(1));
    // The queue free: what is admitted is served and then expires.
    pipeline(&mut client);

    let m = client.metrics().expect("scrape");
    let s = client.stats(None).expect("stats");
    assert_planes_agree(&m, &s);
    assert_eq!(overloaded, 2 * batch.len() as u64);
    assert_eq!(s.shed_rejects, overloaded, "one count per Overloaded");
    assert!(s.deadline_expired >= 1, "{s:?}");
    assert!(s.shed_rejects - s.deadline_expired >= batch.len() as u64);
    // An expiry was served before it expired; a shed never was.
    assert_eq!(s.requests, s.deadline_expired, "{s:?}");

    drop(client);
    handle.shutdown();
}
