//! HTTP-facing rendering of the observability state and server control
//! — shared by the shard daemon's and the router's `/debug/traces`,
//! `/metrics` and `/shutdown` routes so the two tiers speak the same
//! wire format.

use extract_obs::{expo, PromWriter, RequestObs, Stage};

use crate::http::Response;
use crate::json::JsonWriter;
use crate::server::{ServerHandle, ServerStats};

/// `GET /debug/traces` in either tier: the flight recorder of the
/// server the app runs in, or `503` outside one.
pub fn traces_route(server: Option<&ServerHandle>) -> Response {
    match server {
        Some(handle) => Response::json(200, traces_json(handle.obs())),
        None => Response::error(503, "no server attached"),
    }
}

/// `POST /shutdown` in either tier: start the drain of the server the
/// app runs in and answer `{"draining": true}`, or `503` outside one.
pub fn shutdown_route(server: Option<&ServerHandle>) -> Response {
    let Some(handle) = server else {
        return Response::error(503, "no server attached");
    };
    handle.shutdown();
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("draining");
    w.bool(true);
    w.obj_end();
    Response::json(200, w.finish())
}

/// The flight recorder as JSON: `{"capacity": N, "traces": [...]}` with
/// one object per trace (oldest first) carrying the zero-padded hex
/// trace ID, recorder sequence number, route, status, end-to-end time
/// and per-stage nanoseconds (stages that did not run are omitted).
fn traces_json(obs: &RequestObs) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    w.key("capacity");
    w.num_u64(obs.trace_capacity() as u64);
    w.key("traces");
    w.arr_begin();
    for trace in obs.traces() {
        w.obj_begin();
        w.key("trace");
        w.str(&trace.id.to_string());
        w.key("seq");
        w.num_u64(trace.seq);
        w.key("route");
        w.str(trace.route);
        w.key("status");
        w.num_u64(u64::from(trace.status));
        w.key("total_ns");
        w.num_u64(trace.total_ns);
        w.key("stages");
        w.obj_begin();
        for stage in Stage::ALL {
            let ns = trace.stage(stage);
            if ns > 0 {
                w.key(stage.name());
                w.num_u64(ns);
            }
        }
        w.obj_end();
        w.obj_end();
    }
    w.arr_end();
    w.obj_end();
    w.finish()
}

/// A `200` response with the Prometheus exposition content type.
pub fn metrics_response(w: PromWriter) -> Response {
    Response {
        status: 200,
        content_type: expo::CONTENT_TYPE,
        body: w.finish().into_bytes(),
        retry_after: None,
        trace_id: None,
        corpus_epoch: None,
        corpus_slots: None,
    }
}

/// How a server counter is exposed on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonic: family `extract_server_<name>_total`, type `counter`.
    Counter,
    /// Instantaneous: family `extract_server_<name>`, type `gauge`.
    Gauge,
}

/// Every [`ServerStats`] field as `(name, help, kind, value)`, in `/stats`
/// order: the one table behind both the `/stats` `server` object and the
/// `/metrics` `extract_server_*` families.
pub fn server_counters(s: &ServerStats) -> [(&'static str, &'static str, CounterKind, u64); 13] {
    use CounterKind::{Counter, Gauge};
    [
        ("accepted", "Connections the acceptor saw.", Counter, s.accepted),
        ("admitted", "Requests admitted to the queue.", Counter, s.admitted),
        ("shed_queue_full", "Requests shed with 503 (queue full).", Counter, s.shed_queue_full),
        ("shed_per_client", "Requests shed with 429 (per-client cap).", Counter, s.shed_per_client),
        ("served_ok", "Requests answered 2xx.", Counter, s.served_ok),
        ("served_error", "Requests answered 4xx/5xx.", Counter, s.served_error),
        ("reused_requests", "Requests served on reused connections.", Counter, s.reused_requests),
        ("request_timeouts", "Mid-request stalls answered 408.", Counter, s.request_timeouts),
        ("idle_closed", "Connections closed for idling.", Counter, s.idle_closed),
        ("io_errors", "Connections that died mid-read or mid-write.", Counter, s.io_errors),
        ("queue_len", "Requests waiting in the queue right now.", Gauge, s.queue_len),
        ("inflight", "Admitted-but-unanswered requests right now.", Gauge, s.inflight),
        ("parked", "Kept-alive connections parked right now.", Gauge, s.parked),
    ]
}

/// Emit the server-level families of [`server_counters`] under the
/// `extract_server_` prefix, then the request-stage families.
pub fn write_server_metrics(w: &mut PromWriter, handle: &ServerHandle) {
    for (name, help, kind, value) in server_counters(&handle.stats()) {
        let (metric, type_) = match kind {
            CounterKind::Counter => (format!("extract_server_{name}_total"), "counter"),
            CounterKind::Gauge => (format!("extract_server_{name}"), "gauge"),
        };
        w.help(&metric, help);
        w.type_(&metric, type_);
        w.sample_u64(&metric, &[], value);
    }
    handle.obs().write_metrics(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use extract_obs::{TraceId, TraceRecord, STAGES};
    use std::time::Duration;

    #[test]
    fn traces_render_as_valid_json_with_hex_ids_and_stages() {
        let obs = RequestObs::new(8, Duration::from_secs(3600));
        let mut stage_ns = [0u64; STAGES];
        stage_ns[Stage::Search.index()] = 1234;
        obs.observe(TraceRecord {
            id: TraceId::parse("abc").expect("valid"),
            seq: 0,
            route: "/search",
            status: 200,
            stage_ns,
            total_ns: 2000,
        });
        let body = traces_json(&obs);
        let v = crate::json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("capacity").and_then(crate::json::Value::as_u64), Some(8));
        let traces = v.get("traces").and_then(crate::json::Value::as_arr).expect("array");
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(
            t.get("trace").and_then(crate::json::Value::as_str),
            Some("0000000000000abc")
        );
        let stages = t.get("stages").expect("stages object");
        assert_eq!(
            stages.get("search").and_then(crate::json::Value::as_u64),
            Some(1234)
        );
        assert!(stages.get("parse").is_none(), "zero stages omitted");
    }

    #[test]
    fn request_metrics_expose_stage_histograms_and_quantiles() {
        let obs = RequestObs::new(8, Duration::from_secs(3600));
        let mut stage_ns = [0u64; STAGES];
        stage_ns[Stage::Snippet.index()] = 900;
        obs.observe(TraceRecord {
            id: TraceId::mint(),
            seq: 0,
            route: "/search",
            status: 200,
            stage_ns,
            total_ns: 1000,
        });
        let mut w = PromWriter::new();
        obs.write_metrics(&mut w);
        let body = w.finish();
        assert!(
            body.contains("extract_request_stage_duration_seconds_count{stage=\"snippet\"} 1"),
            "{body}"
        );
        assert!(
            body.contains(
                "extract_request_stage_quantile_seconds{stage=\"snippet\",quantile=\"0.99\"}"
            ),
            "{body}"
        );
        assert!(body.contains("extract_request_duration_seconds_count 1"), "{body}");
    }
}
