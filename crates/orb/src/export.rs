//! Telemetry exporters: standard egress formats for the observability
//! plane.
//!
//! Pure functions over plain snapshot data — no locks, no I/O:
//!
//! * [`prometheus_text`] — Prometheus text exposition for a
//!   [`MetricsSnapshot`], with correct *cumulative* `le` histogram
//!   semantics and bucket-interpolated p50/p95/p99 annotations;
//! * [`chrome_events`] / [`chrome_trace_json`] — Chrome `trace_event`
//!   JSON built from [`TraceContext`] spans (plus flight-recorder
//!   instants), so a request's stub→mediator→wire→servant→epilog
//!   lifecycle opens as a flame view in `chrome://tracing` or Perfetto;
//! * [`flight_jsonl`] — JSONL streaming of [`FlightEvent`]s;
//! * [`snapshot_to_any`] / [`snapshot_from_any`] — the self-describing
//!   wire form the remote-introspection servant answers with.

use crate::any::Any;
use crate::error::OrbError;
use crate::flight::FlightEvent;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::TraceContext;
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON document.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Map a metric name onto the Prometheus name charset
/// (`[a-zA-Z0-9_:]`, dots become underscores).
fn prometheus_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

/// Render a [`MetricsSnapshot`] in the Prometheus text exposition
/// format. Counter names are prefixed `maqs_`; histogram buckets are
/// emitted with *cumulative* `le` counts (each bucket includes every
/// faster observation), a `+Inf` bucket equal to the total count, and
/// `_sum`/`_count` series. A comment per histogram carries the
/// bucket-interpolated p50/p95/p99 (see
/// [`HistogramSnapshot::quantile`]); quantiles whose rank falls in the
/// overflow bucket render honestly as `>=<last bound>`.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    prometheus_text_labeled(snapshot, &[])
}

/// [`prometheus_text`] with a fixed label set attached to every series.
///
/// This is the fleet-exposition form: the telemetry aggregator renders
/// each node's scrape with `[("node", name)]` (and per-object planes
/// with an extra `object` label) so one exposition document carries the
/// whole cluster, distinguishable per Prometheus data-model semantics.
/// Label *values* are escaped (`\`, `"`, newline); label names must
/// already be valid Prometheus names. With an empty label set the
/// output is byte-identical to [`prometheus_text`].
pub fn prometheus_text_labeled(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let escaped: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            let escaped_v =
                v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            (prometheus_name(k), escaped_v)
        })
        .collect();
    // The `{...}` suffix for plain series, and the prefix joined onto
    // the `le` label for bucket series.
    let plain = if escaped.is_empty() {
        String::new()
    } else {
        let body: Vec<String> =
            escaped.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", body.join(","))
    };
    let bucket_prefix: String =
        escaped.iter().map(|(k, v)| format!("{k}=\"{v}\",")).collect();
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let m = prometheus_name(name);
        let _ = writeln!(out, "# TYPE maqs_{m} counter");
        let _ = writeln!(out, "maqs_{m}{plain} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let m = prometheus_name(name);
        let _ = writeln!(out, "# TYPE maqs_{m} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "maqs_{m}_bucket{{{bucket_prefix}le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "maqs_{m}_bucket{{{bucket_prefix}le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "maqs_{m}_sum{plain} {}", h.sum_us);
        let _ = writeln!(out, "maqs_{m}_count{plain} {}", h.count);
        let _ = writeln!(out, "# maqs_{m} quantiles: {}", quantile_line(h));
    }
    out
}

/// `p50=… p95=… p99=…` for one histogram (interpolated, `µs`).
pub fn quantile_line(h: &HistogramSnapshot) -> String {
    let q = |p: f64| h.quantile(p).map_or_else(|| "n/a".to_string(), |e| e.to_string());
    format!("p50={} p95={} p99={}", q(0.50), q(0.95), q(0.99))
}

/// One event of a Chrome `trace_event` document ([`chrome_events`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name (the span's layer, or a flight-event kind).
    pub name: String,
    /// Phase: `'X'` for complete spans, `'i'` for instants.
    pub ph: char,
    /// Start timestamp, µs (synthesized; see [`chrome_events`]).
    pub ts: u64,
    /// Duration, µs (0 for instants).
    pub dur: u64,
    /// Process id (always 1 — one MAQS deployment).
    pub pid: u64,
    /// Thread id: one lane per trace (flight instants use lane 0).
    pub tid: u64,
    /// The node that recorded the span/event.
    pub node: String,
    /// The trace id, when the event belongs to a sampled request.
    pub trace_id: Option<u64>,
}

/// Index-tree node used to synthesize span nesting.
struct TreeNode {
    idx: usize,
    children: Vec<TreeNode>,
}

/// Synthesize Chrome `'X'` events (one lane per trace) from recorded
/// spans.
///
/// [`TraceContext`] spans carry inclusive durations but no start
/// timestamps, so start times are synthesized from the known layer
/// hierarchy: `stub ⊃ mediator:* ⊃ orb.client ⊃ {wire, orb.server ⊃
/// adapter ⊃ skeleton spans, wire.reply}`. Children are laid out
/// sequentially inside their parent and clamped to its extent, so the
/// flame-view invariant (children nest within parents) holds even under
/// clock noise between independently measured layers.
pub fn chrome_events(traces: &[TraceContext]) -> Vec<ChromeEvent> {
    let mut out = Vec::new();
    for (lane, trace) in traces.iter().enumerate() {
        let spans = &trace.spans;
        let find = |layer: &str| spans.iter().rposition(|s| s.layer == layer);
        let stub = find("stub");
        let client = find("orb.client");
        let server = find("orb.server");
        let adapter = find("adapter");
        let wire = find("wire");
        let reply = find("wire.reply");
        let mediators: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer.starts_with("mediator:"))
            .map(|(i, _)| i)
            .collect();
        let named: Vec<usize> = [stub, client, server, adapter, wire, reply]
            .iter()
            .flatten()
            .copied()
            .chain(mediators.iter().copied())
            .collect();
        // Spans recorded before the server-side container closed are
        // server-internal (skeleton layers); the rest are client-side
        // annotations.
        let inner_cut = adapter.or(server).unwrap_or(0);
        let mut inner_others = Vec::new();
        let mut outer_others = Vec::new();
        for i in 0..spans.len() {
            if named.contains(&i) {
                continue;
            }
            if i < inner_cut {
                inner_others.push(TreeNode { idx: i, children: Vec::new() });
            } else {
                outer_others.push(TreeNode { idx: i, children: Vec::new() });
            }
        }
        // Server subtree: orb.server ⊃ adapter ⊃ skeleton spans.
        let server_subtree = match (server, adapter) {
            (Some(s), Some(a)) => {
                Some(TreeNode { idx: s, children: vec![TreeNode { idx: a, children: inner_others }] })
            }
            (Some(s), None) => Some(TreeNode { idx: s, children: inner_others }),
            (None, Some(a)) => Some(TreeNode { idx: a, children: inner_others }),
            (None, None) => {
                outer_others.splice(0..0, inner_others);
                None
            }
        };
        // Sequential children of the innermost client container.
        let mut seq: Vec<TreeNode> = Vec::new();
        if let Some(w) = wire {
            seq.push(TreeNode { idx: w, children: Vec::new() });
        }
        if let Some(s) = server_subtree {
            seq.push(s);
        }
        if let Some(r) = reply {
            seq.push(TreeNode { idx: r, children: Vec::new() });
        }
        seq.extend(outer_others);
        // Nesting chain: stub ⊃ mediators (outermost first) ⊃ orb.client.
        let chain: Vec<usize> =
            stub.into_iter().chain(mediators.iter().copied()).chain(client).collect();
        let roots = match chain.into_iter().rev().fold(None::<Vec<TreeNode>>, |acc, idx| {
            Some(vec![TreeNode { idx, children: acc.unwrap_or_default() }])
        }) {
            Some(mut roots) => {
                fn innermost(node: &mut TreeNode) -> &mut TreeNode {
                    if node.children.is_empty() {
                        node
                    } else {
                        innermost(&mut node.children[0])
                    }
                }
                innermost(&mut roots[0]).children = seq;
                roots
            }
            None => seq,
        };
        // Lay the tree out: sequential siblings, children clamped to the
        // parent's extent.
        fn layout(
            node: &TreeNode,
            start: u64,
            max_dur: u64,
            trace: &TraceContext,
            tid: u64,
            out: &mut Vec<ChromeEvent>,
        ) -> u64 {
            let span = &trace.spans[node.idx];
            let dur = span.dur_us.min(max_dur);
            out.push(ChromeEvent {
                name: span.layer.clone(),
                ph: 'X',
                ts: start,
                dur,
                pid: 1,
                tid,
                node: span.node.clone(),
                trace_id: Some(trace.trace_id),
            });
            let end = start + dur;
            let mut cursor = start;
            for child in &node.children {
                let used = layout(child, cursor, end - cursor, trace, tid, out);
                cursor += used;
            }
            dur
        }
        let tid = lane as u64 + 1;
        let mut cursor = 0u64;
        for root in &roots {
            cursor += layout(root, cursor, u64::MAX, trace, tid, &mut out);
        }
    }
    out
}

/// Render a full Chrome `trace_event` JSON document from trace spans
/// plus flight-recorder events (instants on lane 0). Open the output in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(traces: &[TraceContext], flight: &[FlightEvent]) -> String {
    let mut events = chrome_events(traces);
    for e in flight {
        events.push(ChromeEvent {
            name: e.kind.name().to_string(),
            ph: 'i',
            ts: e.ts_us,
            dur: 0,
            pid: 1,
            tid: 0,
            node: e.node.to_string(),
            trace_id: e.trace_id,
        });
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"maqs\",\"ph\":\"{}\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
            json_string(&e.name),
            e.ph,
            e.ts,
            e.dur,
            e.pid,
            e.tid
        );
        if e.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        let trace_id = e
            .trace_id
            .map_or_else(|| "null".to_string(), |id| json_string(&format!("{id:#x}")));
        let _ =
            write!(out, ",\"args\":{{\"node\":{},\"trace_id\":{}}}}}", json_string(&e.node), trace_id);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render flight events as JSONL: one self-contained JSON object per
/// line, oldest first — the streaming form of the black box.
pub fn flight_jsonl(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let trace_id = e.trace_id.map_or_else(|| "null".to_string(), |id| id.to_string());
        let detail =
            e.detail.as_deref().map_or_else(|| "null".to_string(), json_string);
        let _ = writeln!(
            out,
            "{{\"seq\":{},\"ts_us\":{},\"kind\":{},\"trace_id\":{},\"node\":{},\"layer\":{},\"detail\":{}}}",
            e.seq,
            e.ts_us,
            json_string(e.kind.name()),
            trace_id,
            json_string(&e.node),
            json_string(&e.layer),
            detail
        );
    }
    out
}

/// Encode a [`MetricsSnapshot`] as a self-describing [`Any`] — the wire
/// form the introspection servant's `metrics_snapshot` operation
/// returns.
pub fn snapshot_to_any(snapshot: &MetricsSnapshot) -> Any {
    let counters = snapshot
        .counters
        .iter()
        .map(|(name, value)| {
            Any::Struct(
                "Counter".to_string(),
                vec![
                    ("name".to_string(), Any::Str(name.clone())),
                    ("value".to_string(), Any::ULongLong(*value)),
                ],
            )
        })
        .collect();
    let histograms = snapshot
        .histograms
        .iter()
        .map(|(name, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|(le, count)| {
                    Any::Struct(
                        "Bucket".to_string(),
                        vec![
                            ("le".to_string(), Any::ULongLong(*le)),
                            ("count".to_string(), Any::ULongLong(*count)),
                        ],
                    )
                })
                .collect();
            Any::Struct(
                "Histogram".to_string(),
                vec![
                    ("name".to_string(), Any::Str(name.clone())),
                    ("count".to_string(), Any::ULongLong(h.count)),
                    ("sum_us".to_string(), Any::ULongLong(h.sum_us)),
                    ("max_us".to_string(), Any::ULongLong(h.max_us)),
                    ("overflow".to_string(), Any::ULongLong(h.overflow)),
                    ("buckets".to_string(), Any::Sequence(buckets)),
                ],
            )
        })
        .collect();
    Any::Struct(
        "MetricsSnapshot".to_string(),
        vec![
            ("counters".to_string(), Any::Sequence(counters)),
            ("histograms".to_string(), Any::Sequence(histograms)),
        ],
    )
}

/// Decode the [`snapshot_to_any`] wire form back into a
/// [`MetricsSnapshot`].
///
/// # Errors
///
/// [`OrbError::Marshal`] on structurally invalid input.
pub fn snapshot_from_any(v: &Any) -> Result<MetricsSnapshot, OrbError> {
    let field = |v: &Any, name: &str| -> Result<Any, OrbError> {
        v.field(name)
            .cloned()
            .ok_or_else(|| OrbError::Marshal(format!("MetricsSnapshot missing {name}")))
    };
    let seq = |v: &Any| -> Result<Vec<Any>, OrbError> {
        v.as_sequence()
            .map(<[Any]>::to_vec)
            .ok_or_else(|| OrbError::Marshal("expected a sequence".to_string()))
    };
    let u64_of = |v: &Any| v.as_i64().unwrap_or(0) as u64;
    let mut counters = Vec::new();
    for c in seq(&field(v, "counters")?)? {
        counters.push((
            field(&c, "name")?.as_str().unwrap_or_default().to_string(),
            u64_of(&field(&c, "value")?),
        ));
    }
    let mut histograms = Vec::new();
    for h in seq(&field(v, "histograms")?)? {
        let mut buckets = Vec::new();
        for b in seq(&field(&h, "buckets")?)? {
            buckets.push((u64_of(&field(&b, "le")?), u64_of(&field(&b, "count")?)));
        }
        histograms.push((
            field(&h, "name")?.as_str().unwrap_or_default().to_string(),
            HistogramSnapshot {
                count: u64_of(&field(&h, "count")?),
                sum_us: u64_of(&field(&h, "sum_us")?),
                max_us: u64_of(&field(&h, "max_us")?),
                overflow: u64_of(&field(&h, "overflow")?),
                buckets,
            },
        ));
    }
    Ok(MetricsSnapshot { counters, histograms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightEventKind, FlightRecorder};
    use crate::metrics::MetricsRegistry;

    fn seeded_snapshot() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        m.add("orb.requests_sent", 4);
        m.incr("orb.replies_matched");
        m.observe_us("orb.roundtrip_us", 90);
        m.observe_us("orb.roundtrip_us", 110);
        m.observe_us("orb.roundtrip_us", 9_000);
        m.snapshot()
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let text = prometheus_text(&seeded_snapshot());
        assert!(text.contains("# TYPE maqs_orb_requests_sent counter"));
        assert!(text.contains("maqs_orb_requests_sent 4"));
        assert!(text.contains("# TYPE maqs_orb_roundtrip_us histogram"));
        // 90 → (50,100]; 110 → (100,250]; 9000 → overflow. Cumulative:
        assert!(text.contains("maqs_orb_roundtrip_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("maqs_orb_roundtrip_us_bucket{le=\"250\"} 2"));
        assert!(text.contains("maqs_orb_roundtrip_us_bucket{le=\"5000\"} 2"));
        assert!(text.contains("maqs_orb_roundtrip_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("maqs_orb_roundtrip_us_sum 9200"));
        assert!(text.contains("maqs_orb_roundtrip_us_count 3"));
        // p99 rank lands in overflow: reported honestly.
        assert!(text.contains("p99=>=5000"), "{text}");
    }

    #[test]
    fn labeled_exposition_carries_labels_on_every_series() {
        let text = prometheus_text_labeled(
            &seeded_snapshot(),
            &[("node", "w3"), ("object", "kv")],
        );
        assert!(text.contains("maqs_orb_requests_sent{node=\"w3\",object=\"kv\"} 4"));
        assert!(text.contains(
            "maqs_orb_roundtrip_us_bucket{node=\"w3\",object=\"kv\",le=\"100\"} 1"
        ));
        assert!(text.contains(
            "maqs_orb_roundtrip_us_bucket{node=\"w3\",object=\"kv\",le=\"+Inf\"} 3"
        ));
        assert!(text.contains("maqs_orb_roundtrip_us_sum{node=\"w3\",object=\"kv\"} 9200"));
        assert!(text.contains("maqs_orb_roundtrip_us_count{node=\"w3\",object=\"kv\"} 3"));
        // Label values are escaped; names are sanitized.
        let tricky = prometheus_text_labeled(&seeded_snapshot(), &[("no.de", "a\"b")]);
        assert!(tricky.contains("maqs_orb_requests_sent{no_de=\"a\\\"b\"} 4"));
    }

    #[test]
    fn empty_label_set_is_byte_identical_to_unlabeled() {
        let s = seeded_snapshot();
        assert_eq!(prometheus_text(&s), prometheus_text_labeled(&s, &[]));
    }

    #[test]
    fn chrome_events_nest_within_parents() {
        let mut ctx = TraceContext::with_id(0x42);
        // Recording order mirrors a real request: server side first.
        ctx.push("servant", "server", 80);
        ctx.push("adapter", "server", 100);
        ctx.push("wire", "server", 30);
        ctx.push("orb.server", "server", 120);
        ctx.push("wire.reply", "client", 30);
        ctx.push("orb.client", "client", 200);
        ctx.push("mediator:Resilience", "client", 220);
        ctx.push("stub", "client", 240);
        let events = chrome_events(&[ctx]);
        assert_eq!(events.len(), 8);
        let of = |name: &str| events.iter().find(|e| e.name == name).unwrap();
        let contains = |outer: &ChromeEvent, inner: &ChromeEvent| {
            outer.ts <= inner.ts && inner.ts + inner.dur <= outer.ts + outer.dur
        };
        assert!(contains(of("stub"), of("mediator:Resilience")));
        assert!(contains(of("mediator:Resilience"), of("orb.client")));
        assert!(contains(of("orb.client"), of("wire")));
        assert!(contains(of("orb.client"), of("orb.server")));
        assert!(contains(of("orb.server"), of("adapter")));
        assert!(contains(of("adapter"), of("servant")));
        assert!(contains(of("orb.client"), of("wire.reply")));
        // Siblings do not overlap.
        let (w, s) = (of("wire"), of("orb.server"));
        assert!(w.ts + w.dur <= s.ts || s.ts + s.dur <= w.ts);
        assert!(events.iter().all(|e| e.ph == 'X' && e.pid == 1 && e.tid == 1));
    }

    #[test]
    fn chrome_json_contains_required_fields_and_flight_instants() {
        let mut ctx = TraceContext::with_id(7);
        ctx.push("orb.client", "client", 100);
        let rec = FlightRecorder::new("client", 8);
        rec.record(FlightEventKind::RequestSent, "orb.client", Some(7));
        let json = chrome_trace_json(&[ctx], &rec.snapshot());
        for needle in ["\"ph\":\"X\"", "\"ph\":\"i\"", "\"ts\":", "\"dur\":", "\"pid\":1", "request_sent"]
        {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn flight_jsonl_is_one_object_per_line() {
        let rec = FlightRecorder::new("n", 8);
        rec.record(FlightEventKind::RequestSent, "orb.client", None);
        rec.record_detail(FlightEventKind::FaultTick, "netsim", None, "crash(2)".to_string());
        let jsonl = flight_jsonl(&rec.snapshot());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"request_sent\"") && lines[0].contains("\"trace_id\":null"));
        assert!(lines[1].contains("\"detail\":\"crash(2)\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn snapshot_any_roundtrip() {
        let snapshot = seeded_snapshot();
        let back = snapshot_from_any(&snapshot_to_any(&snapshot)).unwrap();
        assert_eq!(back, snapshot);
    }
}
