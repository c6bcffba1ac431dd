//! Metrics-plane glue: converting between the in-process
//! [`MetricsSnapshot`] and its wire form, shared by every front-end
//! that answers a `MetricsRequest`.
//!
//! The registry lives in `econcast-metrics` and the frames in
//! `econcast-proto`; neither crate depends on the other, so the
//! (trivial, lossless) mapping lives here with the serving layer.
//! Counters and gauges copy through verbatim — gauge merge-kind tags
//! travel on the wire so a fan-in can aggregate without knowing the
//! registry. Histograms ship as sparse ascending `(bucket, count)`
//! pairs, exactly the [`HistSnapshot`] representation.

use econcast_metrics::{HistSnapshot, MetricsSnapshot};
use econcast_proto::service::WireMetricsSnapshot;

/// The wire form of a snapshot (for `MetricsResponse` messages).
pub fn snapshot_to_wire(s: &MetricsSnapshot) -> WireMetricsSnapshot {
    WireMetricsSnapshot {
        counters: s.counters.clone(),
        gauges: s.gauges.clone(),
        hists: s.hists.iter().map(|h| h.buckets.clone()).collect(),
    }
}

/// Rebuilds a snapshot from its wire form.
pub fn snapshot_from_wire(w: &WireMetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: w.counters.clone(),
        gauges: w.gauges.clone(),
        hists: w
            .hists
            .iter()
            .map(|h| HistSnapshot { buckets: h.clone() })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_metrics::{GAUGE_KIND_MAX, GAUGE_KIND_SUM};

    #[test]
    fn wire_roundtrip_is_lossless() {
        let snap = MetricsSnapshot {
            counters: vec![3, 0, u64::MAX],
            gauges: vec![(GAUGE_KIND_SUM, 7), (GAUGE_KIND_MAX, 9)],
            hists: vec![
                HistSnapshot {
                    buckets: vec![(1, 2), (40, 5)],
                },
                HistSnapshot::default(),
            ],
        };
        assert_eq!(snapshot_from_wire(&snapshot_to_wire(&snap)), snap);
        // And the zeroed registry shape survives too.
        let z = MetricsSnapshot::zeroed();
        assert_eq!(snapshot_from_wire(&snapshot_to_wire(&z)), z);
    }
}
