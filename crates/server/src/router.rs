//! Method + path dispatch with per-endpoint timing.
//!
//! Routes (session-scoped paths normalize the id segment to `:id` for
//! metrics, so a thousand sessions share one counter per endpoint):
//!
//! ```text
//! GET    /healthz
//! POST   /sessions                       body: SessionSpec
//! GET    /sessions
//! POST   /sessions/restore               body: PersistedSession
//! GET    /sessions/:id
//! DELETE /sessions/:id
//! GET    /sessions/:id/next?m=1
//! POST   /sessions/:id/feedback          body: {"view": n, "score": x}
//! GET    /sessions/:id/recommend?k=5[&lambda=0.5]
//! POST   /sessions/:id/snapshot
//! POST   /sessions/:id/restore
//! POST   /datasets/:name                 body: raw CSV
//! POST   /datasets/:name/rows            body: raw CSV (same schema)
//! GET    /datasets
//! GET    /datasets/:name
//! DELETE /datasets/:name
//! GET    /debug/traces?format=chrome|folded&n=N
//! ```

use std::sync::Arc;
use std::time::Duration;

use viewseeker_core::trace::Stopwatch;
use viewseeker_net::http1::{Handler, Request, Response};

use serde::{Serialize, Value};

use crate::api::{self, AppState};
use crate::error::ServerError;
use crate::log::{n, s, LogLevel};

/// The service's request dispatcher.
pub struct Router {
    state: Arc<AppState>,
}

impl Router {
    /// Wraps shared state for serving.
    #[must_use]
    pub fn new(state: Arc<AppState>) -> Self {
        Self { state }
    }

    /// The shared state (tests reach through this).
    #[must_use]
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    fn dispatch(&self, request: &Request) -> (&'static str, Result<Response, ServerError>) {
        let state = self.state.as_ref();
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();

        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => ("GET /healthz", api::healthz(state).map(ok)),
            ("GET", ["metrics"]) => (
                "GET /metrics",
                Ok(Response::prometheus(api::metrics_text(state))),
            ),
            ("POST", ["sessions"]) => (
                "POST /sessions",
                request
                    .body_text()
                    .map_err(ServerError::from)
                    .and_then(|b| api::create_session(state, b))
                    .map(created),
            ),
            ("GET", ["sessions"]) => ("GET /sessions", Ok(ok(api::list_sessions(state)))),
            ("POST", ["sessions", "restore"]) => (
                "POST /sessions/restore",
                request
                    .body_text()
                    .map_err(ServerError::from)
                    .and_then(|b| api::restore(state, None, b))
                    .map(created),
            ),
            ("GET", ["sessions", id]) => ("GET /sessions/:id", api::get_session(state, id).map(ok)),
            ("DELETE", ["sessions", id]) => (
                "DELETE /sessions/:id",
                api::delete_session(state, id)
                    .map(|()| Response::json("{\"deleted\": true}".to_owned())),
            ),
            ("GET", ["sessions", id, "next"]) => (
                "GET /sessions/:id/next",
                request
                    .parsed_param("m", 1usize)
                    .map_err(ServerError::from)
                    .and_then(|m| api::next_views(state, id, m))
                    .map(ok),
            ),
            ("POST", ["sessions", id, "feedback"]) => (
                "POST /sessions/:id/feedback",
                request
                    .body_text()
                    .map_err(ServerError::from)
                    .and_then(|b| api::feedback(state, id, b))
                    .map(ok),
            ),
            ("GET", ["sessions", id, "recommend"]) => (
                "GET /sessions/:id/recommend",
                (|| {
                    let k = request.parsed_param("k", 5usize)?;
                    let lambda = match request.query_param("lambda") {
                        None => None,
                        Some(_) => Some(request.parsed_param("lambda", 0.5f64)?),
                    };
                    api::recommend(state, id, k, lambda)
                })()
                .map(ok),
            ),
            ("POST", ["sessions", id, "snapshot"]) => (
                "POST /sessions/:id/snapshot",
                api::snapshot(state, id).map(ok),
            ),
            ("POST", ["sessions", id, "restore"]) => (
                "POST /sessions/:id/restore",
                api::restore(state, Some(id), "").map(created),
            ),
            ("POST", ["datasets", name]) => (
                "POST /datasets/:name",
                api::upload_dataset(state, name, &request.body).map(created),
            ),
            ("POST", ["datasets", name, "rows"]) => (
                "POST /datasets/:name/rows",
                api::append_dataset(state, name, &request.body).map(ok),
            ),
            ("GET", ["datasets"]) => ("GET /datasets", Ok(ok(api::list_datasets(state)))),
            ("GET", ["datasets", name]) => {
                ("GET /datasets/:name", api::get_dataset(state, name).map(ok))
            }
            ("DELETE", ["datasets", name]) => (
                "DELETE /datasets/:name",
                api::delete_dataset(state, name)
                    .map(|()| Response::json("{\"deleted\": true}".to_owned())),
            ),
            ("GET", ["debug", "traces"]) => (
                "GET /debug/traces",
                (|| {
                    let limit = request.parsed_param("n", 0usize)?;
                    let format = request.query_param("format").unwrap_or("chrome");
                    api::debug_traces(state, format, limit)
                })(),
            ),
            _ => (
                "unmatched",
                Err(ServerError::NotFound(format!(
                    "no route for {method} {}",
                    request.path
                ))),
            ),
        }
    }
}

fn render<T: Serialize>(status: u16, payload: &T) -> Response {
    let started = Stopwatch::start();
    let body = serde_json::to_string(payload);
    crate::trace::record_serialize(started.elapsed());
    match body {
        Ok(body) => Response::with_status(status, body),
        Err(e) => Response::with_status(
            500,
            format!("{{\"error\": {:?}}}", format!("serialization: {e}")),
        ),
    }
}

fn ok<T: Serialize>(payload: T) -> Response {
    render(200, &payload)
}

fn created<T: Serialize>(payload: T) -> Response {
    render(201, &payload)
}

impl Router {
    /// The structured access line: one per request, with the session id and
    /// the session's cumulative trace-phase totals when the route is
    /// session-scoped (read via a non-LRU-touching peek, so logging never
    /// keeps an idle session alive). The `request_id` field is appended by
    /// the logger from the active [`TraceScope`]; `stages_us` carries the
    /// per-stage breakdown recorded up to this point (the trailing `write`
    /// stage has not happened yet — `/debug/traces` has the complete tree).
    fn log_request(
        &self,
        request: &Request,
        route: &str,
        status: u16,
        elapsed: Duration,
        trace: &viewseeker_net::ActiveTrace,
    ) {
        let logger = &self.state.logger;
        let level = if status >= 500 {
            LogLevel::Warn
        } else {
            LogLevel::Info
        };
        if !logger.enabled(level) {
            return;
        }
        let mut fields = vec![
            ("method", s(&request.method)),
            ("path", s(&request.path)),
            ("route", s(route)),
            ("status", n(status.into())),
            (
                "duration_us",
                n(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)),
            ),
        ];
        let stages = trace.stages_us();
        if !stages.is_empty() {
            fields.push((
                "stages_us",
                Value::Object(
                    stages
                        .into_iter()
                        .map(|(name, dur)| (name.to_owned(), n(dur)))
                        .collect(),
                ),
            ));
        }
        let segments: Vec<&str> = request.path.split('/').filter(|p| !p.is_empty()).collect();
        if let ["sessions", id, ..] = segments.as_slice() {
            if *id != "restore" {
                fields.push(("session", s(id)));
                if let Some(entry) = self.state.registry.peek(id) {
                    let totals: Vec<(String, Value)> = entry
                        .recorder
                        .phase_totals()
                        .into_iter()
                        .filter(|(_, total)| total.count > 0)
                        .map(|(phase, total)| (phase.name().to_owned(), n(total.total_us)))
                        .collect();
                    fields.push(("phase_totals_us", Value::Object(totals)));
                }
            }
        }
        logger.log(level, "request", &fields);
    }
}

impl Handler for Router {
    fn handle(&self, request: &Request) -> Response {
        // Callers without a reactor-started trace (tests, embedding code)
        // still get a span tree and a request id — just one that was born
        // at dispatch rather than at the first byte.
        let trace = viewseeker_net::ActiveTrace::detached(&request.method, &request.path);
        self.handle_traced(request, &trace)
    }

    fn handle_traced(&self, request: &Request, trace: &viewseeker_net::ActiveTrace) -> Response {
        let _scope = crate::trace::enter(trace);
        let start = Stopwatch::start();
        let (route, result) = self.dispatch(request);
        let response = result.unwrap_or_else(|e| {
            Response::with_status(e.status(), format!("{{\"error\": {:?}}}", e.message()))
        });
        let elapsed = start.elapsed();
        trace.set_route(route);
        trace.set_status(response.status);
        self.state.metrics.record(route, elapsed);
        self.log_request(request, route, response.status, elapsed, trace);
        response
    }
}

/// A pass-through in front of one [`Router`]. The server serves its
/// `Router` directly; this type exists only because the benchmark's
/// in-process replay (`benchmark/src/inproc.rs`) builds one by name and
/// times requests through it.
pub struct ShardRouter(Arc<Router>);

impl ShardRouter {
    /// Wraps the one router in `shards`. `_workers` is ignored.
    ///
    /// # Errors
    ///
    /// Anything but exactly one shard and no peers.
    pub fn new(
        shards: Vec<Arc<Router>>,
        peer_addrs: &[String],
        _workers: usize,
    ) -> Result<Self, ServerError> {
        let count = shards.len();
        match (<[Arc<Router>; 1]>::try_from(shards), peer_addrs) {
            (Ok([router]), []) => Ok(Self(router)),
            _ => Err(ServerError::Internal(format!(
                "one router and no peers only; got {count} router(s) and {} peer(s)",
                peer_addrs.len()
            ))),
        }
    }
}

impl Handler for ShardRouter {
    fn handle(&self, request: &Request) -> Response {
        self.0.handle(request)
    }

    fn handle_traced(&self, request: &Request, trace: &viewseeker_net::ActiveTrace) -> Response {
        self.0.handle_traced(request, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SessionRegistry;
    use std::time::Duration;

    fn router() -> Router {
        Router::new(Arc::new(AppState::new(SessionRegistry::new(
            4,
            Duration::from_secs(600),
            None,
        ))))
    }

    fn req(method: &str, path_and_query: &str, body: &str) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (
                p.to_owned(),
                q.split('&')
                    .map(|pair| {
                        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                        (k.to_owned(), v.to_owned())
                    })
                    .collect(),
            ),
            None => (path_and_query.to_owned(), Vec::new()),
        };
        Request {
            method: method.to_owned(),
            path,
            query,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn routes_full_loop_and_records_metrics() {
        let r = router();
        let reply = r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "diab", "rows": 800, "seed": 5, "query": "a0 = 'a0_v0'"}"#,
        ));
        assert_eq!(reply.status, 201, "{}", reply.body);
        assert!(reply.body.contains("\"id\":\"s1\""), "{}", reply.body);

        let reply = r.handle(&req("GET", "/sessions/s1/next?m=2", ""));
        assert_eq!(reply.status, 200, "{}", reply.body);

        let reply = r.handle(&req(
            "POST",
            "/sessions/s1/feedback",
            r#"{"view": 0, "score": 0.8}"#,
        ));
        assert_eq!(reply.status, 200, "{}", reply.body);

        let reply = r.handle(&req("GET", "/sessions/s1/recommend?k=3", ""));
        assert_eq!(reply.status, 200, "{}", reply.body);

        let reply = r.handle(&req("GET", "/healthz", ""));
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("POST /sessions"), "{}", reply.body);
        assert!(reply.body.contains("p99_us"), "{}", reply.body);

        let reply = r.handle(&req("GET", "/nope", ""));
        assert_eq!(reply.status, 404);
        let reply = r.handle(&req("PATCH", "/sessions", ""));
        assert_eq!(reply.status, 404);
    }

    /// `(count, total_us)` of `phase` in a session body's `phase_totals`.
    fn phase_total(session: &Value, phase: &str) -> (u64, u64) {
        let entry = session
            .get("phase_totals")
            .and_then(Value::as_array)
            .and_then(|totals| {
                totals
                    .iter()
                    .find(|t| t.get("phase").and_then(Value::as_str) == Some(phase))
            })
            .unwrap_or_else(|| panic!("no {phase} in {session}"));
        let field = |key| entry.get(key).and_then(Value::as_u64).unwrap();
        (field("count"), field("total_us"))
    }

    #[test]
    fn session_phase_totals_report_each_refinement_pass_once() {
        let r = router();
        let reply = r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "diab", "rows": 3000, "seed": 5, "query": "a0 = 'a0_v0'", "alpha": 0.2}"#,
        ));
        assert_eq!(reply.status, 201, "{}", reply.body);
        let session = |r: &Router| {
            let reply = r.handle(&req("GET", "/sessions/s1", ""));
            assert_eq!(reply.status, 200, "{}", reply.body);
            serde_json::parse_value(&reply.body).unwrap()
        };
        let field = |session: &Value, key| session.get(key).and_then(Value::as_u64).unwrap();

        let mut passes = 0;
        for score in [0.9, 0.1, 0.6] {
            if field(&session(&r), "pending_refinements") > 0 {
                passes += 1;
            }
            let reply = r.handle(&req("GET", "/sessions/s1/next?m=1", ""));
            assert_eq!(reply.status, 200, "{}", reply.body);
            let picks = serde_json::parse_value(&reply.body).unwrap();
            let view = picks.as_array().and_then(|p| p.first()).unwrap();
            let body = format!("{{\"view\": {}, \"score\": {score}}}", field(view, "id"));
            let reply = r.handle(&req("POST", "/sessions/s1/feedback", &body));
            assert_eq!(reply.status, 200, "{}", reply.body);
        }

        let after = session(&r);
        assert!(passes > 0, "an α < 1 session refines on its first turn");
        assert_eq!(phase_total(&after, "pruning").0, passes);
        let (refinements, refinement_us) = phase_total(&after, "refinement");
        assert_eq!(refinements, passes);
        assert!(
            refinement_us <= field(&after, "refinement_time_us"),
            "refinement spans exceed refinement_time_us: {after}"
        );
        assert_eq!(phase_total(&after, "uncertainty_sampling").0, 3);
        assert_eq!(field(&after, "iterations"), 3);
        for offline in ["view_space_gen", "materialization", "feature_extraction"] {
            assert_eq!(phase_total(&after, offline).0, 1, "{offline}");
        }
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let r = router();
        r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "diab", "rows": 800, "seed": 5, "query": "a0 = 'a0_v0'"}"#,
        ));
        let reply = r.handle(&req("GET", "/metrics", ""));
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.content_type,
            "text/plain; version=0.0.4; charset=utf-8"
        );
        assert!(
            reply
                .body
                .contains("# TYPE viewseeker_requests_total counter"),
            "{}",
            reply.body
        );
        assert!(
            reply
                .body
                .contains("viewseeker_requests_total{route=\"POST /sessions\"} 1"),
            "{}",
            reply.body
        );
        // The scrape itself was recorded by the next scrape.
        let again = r.handle(&req("GET", "/metrics", ""));
        assert!(
            again
                .body
                .contains("viewseeker_requests_total{route=\"GET /metrics\"} 1"),
            "{}",
            again.body
        );
    }

    #[test]
    fn access_log_emits_one_parseable_json_line_per_request() {
        use crate::log::{LogFormat, Logger};
        use crate::registry::SessionRegistry;
        use std::io::Write;
        use std::sync::Mutex;

        #[derive(Clone, Default)]
        struct Buffer(Arc<Mutex<Vec<u8>>>);
        impl Write for Buffer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buffer = Buffer::default();
        let logger = Arc::new(Logger::to_writer(
            LogFormat::Json,
            LogLevel::Info,
            Box::new(buffer.clone()),
        ));
        let registry = SessionRegistry::new(4, Duration::from_secs(600), None);
        let r = Router::new(Arc::new(AppState::with_logger(registry, logger)));

        r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "diab", "rows": 800, "seed": 5, "query": "a0 = 'a0_v0'"}"#,
        ));
        r.handle(&req(
            "POST",
            "/sessions/s1/feedback",
            r#"{"view": 0, "score": 0.8}"#,
        ));
        r.handle(&req("GET", "/sessions/s1", ""));

        let raw = String::from_utf8(buffer.0.lock().unwrap().clone()).unwrap();
        let request_lines: Vec<Value> = raw
            .lines()
            .map(|line| serde_json::parse_value(line).expect(line))
            .filter(|v| v.get("event") == Some(&Value::String("request".into())))
            .collect();
        assert_eq!(request_lines.len(), 3, "{raw}");
        let feedback_line = &request_lines[1];
        assert_eq!(
            feedback_line.get("route"),
            Some(&Value::String("POST /sessions/:id/feedback".into()))
        );
        assert_eq!(
            feedback_line.get("session"),
            Some(&Value::String("s1".into()))
        );
        assert_eq!(feedback_line.get("status"), Some(&n(200)));
        assert!(matches!(
            feedback_line.get("duration_us"),
            Some(Value::Number(_))
        ));
        // Session-scoped lines carry the cumulative trace-phase totals.
        assert!(
            matches!(feedback_line.get("phase_totals_us"), Some(Value::Object(_))),
            "{feedback_line:?}"
        );
        // Lifecycle events from the registry landed in the same stream.
        assert!(raw.contains("\"event\":\"session_created\""), "{raw}");
    }

    #[test]
    fn append_route_grows_dataset_and_updates_live_sessions() {
        let r = router();
        let csv = "city,m_sales\nparis,10.0\nlyon,20.0\nparis,30.0\nlyon,40.0\n";
        let reply = r.handle(&req("POST", "/datasets/tiny", csv));
        assert_eq!(reply.status, 201, "{}", reply.body);

        let reply = r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "tiny", "query": "city = 'paris'"}"#,
        ));
        assert_eq!(reply.status, 201, "{}", reply.body);

        let reply = r.handle(&req(
            "POST",
            "/datasets/tiny/rows",
            "city,m_sales\nparis,50.0\nlyon,60.0\n",
        ));
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            reply.body.contains("\"dataset\":\"tiny\""),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"appended\":2"), "{}", reply.body);
        assert!(reply.body.contains("\"total_rows\":6"), "{}", reply.body);
        assert!(
            reply.body.contains("\"sessions_updated\":1"),
            "{}",
            reply.body
        );

        // The session keeps serving over the grown table.
        let reply = r.handle(&req("GET", "/sessions/s1/next?m=1", ""));
        assert_eq!(reply.status, 200, "{}", reply.body);

        // Schema mismatch is a client error; unknown dataset is 404.
        let reply = r.handle(&req("POST", "/datasets/tiny/rows", "bogus\nx\n"));
        assert_eq!(reply.status, 400, "{}", reply.body);
        let reply = r.handle(&req("POST", "/datasets/ghost/rows", csv));
        assert_eq!(reply.status, 404, "{}", reply.body);
    }

    #[test]
    fn query_parameter_errors_are_400s() {
        let r = router();
        r.handle(&req(
            "POST",
            "/sessions",
            r#"{"dataset": "diab", "rows": 800, "seed": 5}"#,
        ));
        let reply = r.handle(&req("GET", "/sessions/s1/next?m=many", ""));
        assert_eq!(reply.status, 400, "{}", reply.body);
        let reply = r.handle(&req("GET", "/sessions/s1/recommend?k=0x5", ""));
        assert_eq!(reply.status, 400, "{}", reply.body);
    }

    #[test]
    fn shard_router_wraps_exactly_one_router_and_no_peers() {
        let one = || vec![Arc::new(router())];
        assert!(ShardRouter::new(one(), &[], 4).is_ok());
        let two = vec![Arc::new(router()), Arc::new(router())];
        assert!(ShardRouter::new(two, &[], 4).is_err());
        assert!(ShardRouter::new(one(), &["127.0.0.1:7879".to_owned()], 4).is_err());
        assert!(ShardRouter::new(Vec::new(), &[], 4).is_err());
    }

    /// `body` with every timing (`*_us`, `uptime_secs`) and request id
    /// nulled, so two runs of one script compare byte for byte.
    fn untimed(body: &str) -> String {
        fn scrub(value: &mut Value) {
            match value {
                Value::Object(fields) => {
                    for (key, field) in fields {
                        if key.ends_with("_us") || key == "uptime_secs" || key == "request_id" {
                            *field = Value::Null;
                        } else {
                            scrub(field);
                        }
                    }
                }
                Value::Array(items) => items.iter_mut().for_each(scrub),
                _ => {}
            }
        }
        let mut value = serde_json::parse_value(body).expect(body);
        scrub(&mut value);
        serde_json::render_compact(&value)
    }

    #[test]
    fn shard_router_answers_what_its_router_answers() {
        let direct = router();
        let shim = ShardRouter::new(vec![Arc::new(router())], &[], 1).unwrap();
        let script = [
            (
                "POST",
                "/sessions",
                r#"{"dataset": "diab", "rows": 800, "seed": 5, "query": "a0 = 'a0_v0'"}"#,
            ),
            ("GET", "/sessions/s1/next?m=2", ""),
            (
                "POST",
                "/sessions/s1/feedback",
                r#"{"view": 0, "score": 0.8}"#,
            ),
            (
                "POST",
                "/sessions/s1/feedback",
                r#"{"view": 3, "score": 0.1}"#,
            ),
            ("GET", "/sessions/s1/recommend?k=3", ""),
            ("GET", "/sessions/s1", ""),
            ("DELETE", "/sessions/s1", ""),
            ("GET", "/healthz", ""),
        ];
        for (method, path, body) in script {
            let want = direct.handle(&req(method, path, body));
            let got = shim.handle(&req(method, path, body));
            assert_eq!(got.status, want.status, "{method} {path}: {}", got.body);
            assert!(got.status < 300, "{method} {path}: {}", got.body);
            assert_eq!(untimed(&got.body), untimed(&want.body), "{method} {path}");
        }
    }
}
