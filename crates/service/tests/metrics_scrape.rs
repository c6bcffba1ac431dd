//! Socket-level metrics scrape against a live [`PolicyServer`]:
//! the always-on serve-path counters and histograms must be visible
//! through `MetricsRequest`/`MetricsResponse`, and the injected
//! gauges must agree with the stats plane's view of the same server.

use econcast_metrics::{
    CTR_BATCHES, CTR_REQUESTS, GAUGE_KIND_MAX, GAUGE_KIND_SUM, GAUGE_LRU_ENTRIES,
    GAUGE_QUEUE_DEPTH, GAUGE_QUEUE_DEPTH_PEAK, HIST_BATCH_NS, HIST_REQUEST_NS, NUM_COUNTERS,
    NUM_GAUGES, NUM_HISTS,
};
use econcast_service::workload::mixed_batch;
use econcast_service::{PolicyClient, PolicyServer, RouterConfig, ServerConfig, ServiceConfig};

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

    // The injected LRU gauge agrees with the stats plane's view of
    // the same (quiescent) server.
    let stats = client.stats(None).expect("stats");
    let scrape = client.metrics().expect("third scrape");
    assert_eq!(scrape.gauges[GAUGE_LRU_ENTRIES].1, stats.lru_len);

    drop(client);
    handle.shutdown();
}
