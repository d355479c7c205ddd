//! Golden test: the telemetry exporters are wire formats.
//!
//! Prometheus scrapers and Perfetto both parse what these functions
//! emit, so the output is an interface: this test freezes the full
//! Prometheus text exposition for a deterministic snapshot, and checks
//! the Chrome `trace_event` document produced from a *real* traced
//! roundtrip against its schema (a JSON object with a `traceEvents`
//! array whose complete-spans nest). If you change an exporter on
//! purpose, regenerate the golden file with:
//!
//! ```sh
//! BLESS=1 cargo test --test export_golden
//! ```

use maqs::prelude::*;
use orb::export::{chrome_trace_json, prometheus_text, prometheus_text_labeled};
use orb::MetricsRegistry;
use std::path::PathBuf;
use std::sync::Arc;

/// Resolve `tests/golden/` whether the test runs from the workspace
/// root or from a crate directory (same idiom as `metrics_golden`).
fn golden_path(file: &str) -> PathBuf {
    for base in ["tests/golden", "../../tests/golden"] {
        let dir = PathBuf::from(base);
        if dir.is_dir() {
            return dir.join(file);
        }
    }
    PathBuf::from("tests/golden").join(file)
}

fn check_golden(actual: &str, file: &str) {
    let path = golden_path(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(actual, expected, "{file} changed; if intentional, regenerate with BLESS=1");
}

#[test]
fn prometheus_exposition_is_stable() {
    // Deterministic inputs covering every rendering path: plain
    // counters, an interpolated-quantile histogram, and a histogram
    // whose p99 rank falls in the overflow bucket (rendered `>=5000`).
    let m = MetricsRegistry::new();
    m.incr("orb.requests_sent");
    m.incr("orb.requests_sent");
    m.incr("orb.requests_sent");
    m.add("wire.bytes_received", 4096);
    // Telemetry-plane series render like any other metric.
    m.add("telemetry.scrapes", 2);
    m.add("slo.alerts", 1);
    for us in [30, 40, 60, 80, 120] {
        m.observe_us("orb.roundtrip_us", us);
    }
    for us in [100, 200, 9_000] {
        m.observe_us("orb.dispatch_us", us);
    }
    m.observe_us("slo.burn_x100", 1_500);
    // The fleet view renders the same snapshot with node/object labels
    // on every series (including bucket lines); freeze both forms.
    let snapshot = m.snapshot();
    let mut actual = prometheus_text(&snapshot);
    actual.push_str("# --- labeled (fleet) form ---\n");
    actual.push_str(&prometheus_text_labeled(&snapshot, &[("node", "w0"), ("object", "kv")]));
    check_golden(&actual, "prometheus_exposition.txt");
}

#[test]
fn chrome_trace_from_a_real_roundtrip_matches_the_schema() {
    let net = Network::new(11);
    let server = MaqsNode::builder(&net, "server")
        .spec("interface Echo { long long echo(in long long v); };")
        .build()
        .unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();

    struct Echo;
    impl Servant for Echo {
        fn interface_id(&self) -> &str {
            "IDL:Echo:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    let ior = server.serve("echo", Arc::new(Echo), ServeOptions::interface("Echo")).unwrap();
    let stub = client.stub(&ior);
    let reply = stub.invoke("echo", &[Any::LongLong(5)]).unwrap();
    assert_eq!(reply, Any::LongLong(5));
    let trace = reply.trace.clone().expect("default config samples every call");

    client.orb().flight().flush();
    let flight = client.orb().flight().snapshot();
    let json = chrome_trace_json(std::slice::from_ref(&trace), &flight);
    server.shutdown();
    client.shutdown();

    // Document shape (hand-rolled JSON, so assert on the text).
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""), "{json}");

    // Every span of the trace appears as a complete ('X') event, and
    // the client's wire events appear as instants ('i').
    for span in &trace.spans {
        assert!(
            json.contains(&format!("\"name\":\"{}\"", span.layer)),
            "span `{}` missing from {json}",
            span.layer
        );
    }
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"ph\":\"i\""), "{json}");

    // The nesting invariant that makes the flame view readable: the
    // stub span starts at 0 and every other span fits inside it.
    let events = orb::export::chrome_events(&[trace]);
    let stub_ev = events.iter().find(|e| e.name == "stub").expect("stub event");
    assert_eq!(stub_ev.ts, 0);
    for e in &events {
        assert!(
            e.ts >= stub_ev.ts && e.ts + e.dur <= stub_ev.ts + stub_ev.dur,
            "span {} [{}, {}] escapes stub [0, {}]",
            e.name,
            e.ts,
            e.ts + e.dur,
            stub_ev.dur
        );
    }
}
