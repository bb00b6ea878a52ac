//! Application-facing HTTP frontend: the data plane (§3's "REST API")
//! plus the versioned `/api/v1/` control plane (§3, §6.3).
//!
//! A deliberately small HTTP/1.1 server on tokio — request line, headers,
//! `Content-Length` body — routed through a typed `Route` parser
//! (method + path segments, no string-prefix matching):
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /api/v1/apps/{app}/predict` | serve one prediction |
//! | `POST /api/v1/apps/{app}/update`  | feedback (§5) |
//! | `GET/POST /api/v1/apps`, `GET/PATCH/DELETE /api/v1/apps/{app}` | app lifecycle |
//! | `GET/POST /api/v1/models`, `GET /api/v1/models/{name}` | model catalog |
//! | `POST /api/v1/models/{name}/rollout` / `.../rollback` | version rollout |
//! | `GET /metrics`, `GET /health` | telemetry / liveness |
//!
//! JSON crosses this module in one place each way: every request body
//! is read by `parse_json`, every response body is written by `json_ok`
//! (`error_json` for the error envelope, which cannot fail), both over
//! the derives in [`crate::api`]. There is no lexing or emission here;
//! what is accepted, what it parses to and what goes out are
//! `serde_json`'s decisions alone — including that input nested deeper
//! than 128 levels is a 400, not a stack overflow.
//!
//! Every error response is a serde-serialized [`ErrorBody`] carrying the
//! taxonomy's stable code and canonical status — an unknown app is a 404,
//! shed load a 429 with `"shed": true`, a retryable upstream failure a
//! 503 — and messages containing quotes or backslashes stay valid JSON.
//! A straggler never times a request out: it answers by the deadline
//! with whatever arrived, or the app's default.
//!
//! Each accepted connection is served on its own spawned task, so a slow
//! or idle client never blocks the accept loop. Connections are
//! keep-alive; request heads are read in buffered chunks (scanning for
//! `\r\n\r\n`, with overread bytes carried into the body and the next
//! pipelined request), never byte-at-a-time.

use crate::api::{
    ApiError, AppPatch, AppSpec, AppView, ErrorBody, JsonOutput, ModelSpec, RolloutRequest,
};
use crate::clipper::Clipper;
use crate::error::PredictError;
use crate::types::{Feedback, ModelId};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Maximum accepted request body (4 MiB).
const MAX_BODY: usize = 4 << 20;
/// Maximum accepted request head (64 KiB).
const MAX_HEAD: usize = 64 * 1024;
/// Socket read granularity.
const READ_CHUNK: usize = 8 * 1024;

/// A running HTTP frontend.
pub struct HttpFrontend {
    local_addr: SocketAddr,
    task: tokio::task::JoinHandle<()>,
}

impl HttpFrontend {
    /// Bind to `addr` and serve `clipper` in the background.
    pub async fn bind(addr: &str, clipper: Clipper) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let task = tokio::spawn(async move {
            // One spawned task per connection: a stalled request on one
            // connection never holds up accepting the next.
            while let Ok((conn, _)) = listener.accept().await {
                let clipper = clipper.clone();
                tokio::spawn(async move {
                    let _ = serve_connection(conn, clipper).await;
                });
            }
        });
        Ok(HttpFrontend { local_addr, task })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        self.task.abort();
    }
}

// ---------------------------------------------------------------------
// Data-plane request/response shapes
// ---------------------------------------------------------------------

/// A request's feature vector, every value finite: `1e39` and `1e999`
/// are number tokens that read as `f32::INFINITY`, which must reach
/// neither a cache key nor a model.
struct Features(Vec<f32>);

impl Deserialize for Features {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let values = Vec::<f32>::deserialize(r)?;
        if values.iter().all(|v| v.is_finite()) {
            Ok(Features(values))
        } else {
            Err(r.error("input holds a value outside the range of f32"))
        }
    }
}

#[derive(Deserialize)]
struct PredictRequest {
    input: Features,
    #[serde(default)]
    context: Option<String>,
}

#[derive(Serialize)]
struct PredictResponse {
    output: JsonOutput,
    confidence: f64,
    models_used: usize,
    models_missing: usize,
    latency_us: u64,
}

#[derive(Deserialize)]
struct UpdateRequest {
    input: Features,
    #[serde(default)]
    context: Option<String>,
    #[serde(default)]
    label: Option<u32>,
    #[serde(default)]
    labels: Option<Vec<u32>>,
}

/// A heartbeat's body: a JSON object whose keys, if any, are ignored.
#[derive(Deserialize)]
struct HeartbeatBody {}

/// `{"status": ...}`: the whole answer of a route with nothing to report.
#[derive(Serialize)]
struct StatusBody {
    status: &'static str,
}

// ---------------------------------------------------------------------
// Request reading
// ---------------------------------------------------------------------

/// Retained-buffer size cap: buffers grown by an oversized request or
/// response shrink back once drained, so one large body doesn't pin
/// megabytes per idle connection.
const RETAINED_BUF: usize = 64 * 1024;

/// One parsed request head: index ranges into the reader's retained
/// buffer. Nothing is copied out on the per-request path — handlers
/// borrow method/path/body straight from the buffer, and
/// [`RequestReader::consume`] releases the bytes afterwards.
struct ReqHead {
    method: std::ops::Range<usize>,
    path: std::ops::Range<usize>,
    body: std::ops::Range<usize>,
    keep_alive: bool,
}

/// Buffered request reader: the socket is read directly into one
/// retained buffer, the head is scanned for `\r\n\r\n`, and overread
/// bytes stay in place for the body and the next pipelined request.
struct RequestReader {
    rd: tokio::net::tcp::OwnedReadHalf,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// End of valid bytes in `buf`.
    end: usize,
    /// Absolute resume point for the head-terminator scan, so each byte
    /// is examined once even when the head arrives in fragments.
    scanned: usize,
}

/// First index of `\r\n\r\n` at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| start + p)
}

/// Case-insensitively strip a header-name prefix, returning the value.
fn strip_header<'a>(line: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    if line.len() >= name.len() && line[..name.len()].eq_ignore_ascii_case(name) {
        Some(&line[name.len()..])
    } else {
        None
    }
}

/// Whether a `connection:` header value contains the token `close`.
fn contains_close(value: &[u8]) -> bool {
    value.windows(5).any(|w| w.eq_ignore_ascii_case(b"close"))
}

/// Parse a decimal header value (leading spaces skipped, trailing junk
/// ignored — same tolerance as the old `trim().parse().unwrap_or(0)`).
fn parse_decimal(mut v: &[u8]) -> usize {
    while let Some((b' ', rest)) = v.split_first().map(|(b, r)| (*b, r)) {
        v = rest;
    }
    let mut n = 0usize;
    for &b in v {
        match b {
            b'0'..=b'9' => n = n.saturating_mul(10) + (b - b'0') as usize,
            _ => break,
        }
    }
    n
}

impl RequestReader {
    fn new(rd: tokio::net::tcp::OwnedReadHalf) -> Self {
        RequestReader {
            rd,
            buf: vec![0u8; READ_CHUNK],
            start: 0,
            end: 0,
            scanned: 0,
        }
    }

    fn slice(&self, r: &std::ops::Range<usize>) -> &[u8] {
        &self.buf[r.clone()]
    }

    /// Read more bytes into the retained buffer, compacting consumed
    /// space (or growing) when full. Returns bytes read; 0 means EOF.
    async fn fill(&mut self) -> std::io::Result<usize> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.scanned -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.rd.read(&mut self.buf[self.end..]).await?;
        self.end += n;
        Ok(n)
    }

    /// Parse one request if it is fully buffered; `Ok(None)` means more
    /// bytes are needed (call [`Self::fill`] or [`Self::next`]).
    fn try_next(&mut self) -> std::io::Result<Option<ReqHead>> {
        let head_end = match find_head_end(&self.buf[..self.end], self.scanned.max(self.start)) {
            Some(pos) => pos + 4,
            None => {
                self.scanned = self.end.saturating_sub(3).max(self.start);
                if self.end - self.start > MAX_HEAD {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "headers too large",
                    ));
                }
                return Ok(None);
            }
        };

        // Request line: method, then path, space-separated.
        let head = &self.buf[self.start..head_end];
        let line_end = head
            .windows(2)
            .position(|w| w == b"\r\n")
            .unwrap_or(head.len());
        let line = &head[..line_end];
        let method_len = line.iter().position(|&b| b == b' ').unwrap_or(line.len());
        let after_method = &line[method_len..];
        let path_off = after_method
            .iter()
            .position(|&b| b != b' ')
            .unwrap_or(after_method.len());
        let path_start = method_len + path_off;
        let path_end = line[path_start..]
            .iter()
            .position(|&b| b == b' ')
            .map(|p| path_start + p)
            .unwrap_or(line.len());

        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut rest = &head[line_end..];
        while rest.len() > 2 {
            rest = &rest[2..]; // strip the leading \r\n
            let le = rest
                .windows(2)
                .position(|w| w == b"\r\n")
                .unwrap_or(rest.len());
            let hline = &rest[..le];
            if let Some(v) = strip_header(hline, b"content-length:") {
                content_length = parse_decimal(v);
            } else if strip_header(hline, b"connection:").is_some_and(contains_close) {
                keep_alive = false;
            }
            rest = &rest[le..];
        }
        if content_length > MAX_BODY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "body too large",
            ));
        }

        // The body may still be in flight.
        let total = head_end + content_length;
        if self.end < total {
            return Ok(None);
        }
        Ok(Some(ReqHead {
            method: self.start..self.start + method_len,
            path: self.start + path_start..self.start + path_end,
            body: head_end..total,
            keep_alive,
        }))
    }

    /// Read one request, or `None` on clean EOF between requests.
    async fn next(&mut self) -> std::io::Result<Option<ReqHead>> {
        loop {
            if let Some(head) = self.try_next()? {
                return Ok(Some(head));
            }
            if self.fill().await? == 0 {
                if self.start == self.end {
                    return Ok(None); // clean EOF between requests
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ));
            }
        }
    }

    /// Release a served request's bytes; whatever follows belongs to the
    /// next pipelined request.
    fn consume(&mut self, head: &ReqHead) {
        self.start = head.body.end;
        self.scanned = self.start;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            self.scanned = 0;
            if self.buf.len() > RETAINED_BUF {
                self.buf = vec![0u8; READ_CHUNK];
            }
        }
    }
}

// ---------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------

/// Body size at or above which the response head and body go to the
/// kernel as one gather write instead of being copied together.
const VECTORED_BODY: usize = 4 * 1024;

/// Buffered response writer with one retained output buffer. Responses
/// are queued and flushed together, so pipelined requests answered in
/// one readiness window coalesce into a single write; large bodies skip
/// the copy entirely via a vectored head+body write.
struct ResponseWriter {
    wr: tokio::net::tcp::OwnedWriteHalf,
    out: Vec<u8>,
}

/// Append the decimal digits of `n`.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}

impl ResponseWriter {
    fn new(wr: tokio::net::tcp::OwnedWriteHalf) -> Self {
        ResponseWriter {
            wr,
            out: Vec::with_capacity(READ_CHUNK),
        }
    }

    fn queue_head(&mut self, status: u16, body_len: usize, keep_alive: bool) {
        let reason = match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            409 => "Conflict",
            410 => "Gone",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        self.out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(&mut self.out, status as usize);
        self.out.push(b' ');
        self.out.extend_from_slice(reason.as_bytes());
        self.out
            .extend_from_slice(b"\r\ncontent-type: application/json\r\ncontent-length: ");
        push_decimal(&mut self.out, body_len);
        self.out.extend_from_slice(b"\r\nconnection: ");
        self.out.extend_from_slice(if keep_alive {
            b"keep-alive".as_slice()
        } else {
            b"close".as_slice()
        });
        self.out.extend_from_slice(b"\r\n\r\n");
    }

    /// Queue one complete response. Small bodies append to the retained
    /// buffer (flushed before the connection next blocks); large bodies
    /// flush immediately as a single vectored write of everything queued
    /// plus the body.
    async fn respond(&mut self, status: u16, body: &str, keep_alive: bool) -> std::io::Result<()> {
        self.queue_head(status, body.len(), keep_alive);
        if body.len() >= VECTORED_BODY {
            let mut slices = [
                std::io::IoSlice::new(&self.out),
                std::io::IoSlice::new(body.as_bytes()),
            ];
            self.wr.write_all_vectored(&mut slices).await?;
            self.wr.flush().await?;
            self.reset();
        } else {
            self.out.extend_from_slice(body.as_bytes());
        }
        Ok(())
    }

    /// Write everything queued as one write.
    async fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.wr.write_all(&self.out).await?;
        self.wr.flush().await?;
        self.reset();
        Ok(())
    }

    fn reset(&mut self) {
        self.out.clear();
        if self.out.capacity() > RETAINED_BUF {
            self.out = Vec::with_capacity(READ_CHUNK);
        }
    }
}

async fn serve_connection(conn: TcpStream, clipper: Clipper) -> std::io::Result<()> {
    conn.set_nodelay(true)?;
    let (rd, wr) = conn.into_split();
    let mut reader = RequestReader::new(rd);
    let mut writer = ResponseWriter::new(wr);
    loop {
        // Serve everything already buffered before flushing: responses to
        // pipelined requests coalesce into one write, and the flush
        // happens exactly when the connection would otherwise block.
        let parsed = match reader.try_next() {
            Ok(Some(head)) => Ok(Some(head)),
            Ok(None) => {
                writer.flush().await?;
                reader.next().await
            }
            Err(e) => Err(e),
        };
        let head = match parsed {
            Ok(Some(head)) => head,
            Ok(None) => return Ok(()), // clean EOF; nothing left queued
            Err(e) => {
                let err = ApiError::BadRequest(e.to_string());
                let _ = writer.respond(400, &error_json(&err), false).await;
                let _ = writer.flush().await;
                return Ok(());
            }
        };
        let keep_alive = head.keep_alive;
        let (status, body) = route(
            &clipper,
            reader.slice(&head.method),
            reader.slice(&head.path),
            reader.slice(&head.body),
        )
        .await;
        writer.respond(status, &body, keep_alive).await?;
        reader.consume(&head);
        if !keep_alive {
            writer.flush().await?;
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// HTTP methods the surface speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Method {
    Get,
    Post,
    Patch,
    Delete,
}

impl Method {
    fn parse(raw: &[u8]) -> Option<Method> {
        match raw {
            b"GET" => Some(Method::Get),
            b"POST" => Some(Method::Post),
            b"PATCH" => Some(Method::Patch),
            b"DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// Deepest route shape is 5 segments; anything deeper matches nothing.
const MAX_SEGMENTS: usize = 8;

/// A typed route: method plus non-empty path segments (query stripped),
/// split into a fixed array — no per-request allocation. Handlers match
/// on exact segment shapes.
struct Route<'a> {
    method: Method,
    segments: [&'a str; MAX_SEGMENTS],
    len: usize,
}

impl<'a> Route<'a> {
    /// `None` when the path is deeper than any route — a 404, since every
    /// registered route is at most 5 segments.
    fn parse(method: Method, path: &'a str) -> Option<Route<'a>> {
        let path = path.split('?').next().unwrap_or("");
        let mut segments = [""; MAX_SEGMENTS];
        let mut len = 0usize;
        for s in path.split('/').filter(|s| !s.is_empty()) {
            if len == MAX_SEGMENTS {
                return None;
            }
            segments[len] = s;
            len += 1;
        }
        Some(Route {
            method,
            segments,
            len,
        })
    }

    fn segs(&self) -> &[&'a str] {
        &self.segments[..self.len]
    }
}

fn parse_json<T: serde::Deserialize>(body: &[u8]) -> Result<T, ApiError> {
    // No prefix here: `ApiError::BadRequest`'s Display already renders
    // "bad request: {msg}" (a doubled prefix reached the wire before).
    serde_json::from_slice(body).map_err(|e| ApiError::BadRequest(e.to_string()))
}

fn json_ok<T: Serialize>(status: u16, value: &T) -> Result<(u16, String), ApiError> {
    let body = serde_json::to_string(value).map_err(|e| ApiError::Internal(e.to_string()))?;
    Ok((status, body))
}

/// The response body for `err`. The envelope holds only strings and
/// bools, so unlike [`json_ok`] this cannot fail.
fn error_json(err: &ApiError) -> String {
    serde_json::to_string(&ErrorBody::of(err)).expect("strings and bools always serialize")
}

async fn route(clipper: &Clipper, method: &[u8], path: &[u8], body: &[u8]) -> (u16, String) {
    let result = match Method::parse(method) {
        None => Err(ApiError::BadRequest(format!(
            "unsupported method {}",
            String::from_utf8_lossy(method)
        ))),
        Some(m) => match std::str::from_utf8(path) {
            Err(_) => Err(ApiError::BadRequest("path is not valid utf-8".into())),
            Ok(p) => match Route::parse(m, p) {
                None => Err(ApiError::NotFound),
                Some(r) => dispatch(clipper, r, body).await,
            },
        },
    };
    match result {
        Ok(ok) => ok,
        Err(e) => (e.http_status(), error_json(&e)),
    }
}

async fn dispatch(
    clipper: &Clipper,
    route: Route<'_>,
    body: &[u8],
) -> Result<(u16, String), ApiError> {
    use Method::*;
    match (route.method, route.segs()) {
        (Get, ["health"]) => json_ok(200, &StatusBody { status: "ok" }),
        (Get, ["metrics"]) => json_ok(200, &clipper.registry().snapshot()),

        // --- data plane ---
        (Post, ["api", "v1", "apps", app, "predict"]) => handle_predict(clipper, app, body).await,
        (Post, ["api", "v1", "apps", app, "update"]) => handle_update(clipper, app, body).await,

        // --- app lifecycle ---
        (Get, ["api", "v1", "apps"]) => {
            let mut views: Vec<AppView> = clipper
                .apps()
                .iter()
                .filter_map(|name| clipper.app_config(name))
                .map(|cfg| AppView::from(&cfg))
                .collect();
            views.sort_by(|a, b| a.name.cmp(&b.name));
            json_ok(200, &views)
        }
        (Post, ["api", "v1", "apps"]) => {
            let spec: AppSpec = parse_json(body)?;
            if spec.name.is_empty() {
                return Err(ApiError::BadRequest("app name must not be empty".into()));
            }
            let cfg = spec.into_config();
            clipper.try_register_app(cfg.clone())?;
            json_ok(201, &AppView::from(&cfg))
        }
        (Get, ["api", "v1", "apps", app]) => {
            let cfg = clipper
                .app_config(app)
                .ok_or_else(|| ApiError::AppUnknown(app.to_string()))?;
            json_ok(200, &AppView::from(&cfg))
        }
        (Patch, ["api", "v1", "apps", app]) => {
            let patch: AppPatch = parse_json(body)?;
            let cfg = clipper.update_app(app, patch.into_update())?;
            json_ok(200, &AppView::from(&cfg))
        }
        (Delete, ["api", "v1", "apps", app]) => {
            clipper.unregister_app(app)?;
            json_ok(200, &StatusBody { status: "deleted" })
        }

        // --- model lifecycle ---
        (Get, ["api", "v1", "models"]) => json_ok(200, &clipper.model_views()),
        (Post, ["api", "v1", "models"]) => {
            let spec: ModelSpec = parse_json(body)?;
            if spec.name.is_empty() {
                return Err(ApiError::BadRequest("model name must not be empty".into()));
            }
            let id = ModelId::new(&spec.name, spec.version);
            // Create-only, like POST /api/v1/apps: re-registering an
            // existing version would silently no-op (the MAL keeps the
            // original config), so surface it as a conflict instead.
            // `add_model` reports insertion atomically — of two
            // concurrent creates exactly one gets the 201.
            if !clipper.add_model(id, Default::default()) {
                return Err(ApiError::VersionExists {
                    model: spec.name.clone(),
                    version: spec.version,
                });
            }
            let view = clipper
                .model_view(&spec.name)
                .ok_or_else(|| ApiError::Internal("model registration lost".into()))?;
            json_ok(201, &view)
        }
        (Get, ["api", "v1", "models", name]) => {
            let view = clipper
                .model_view(name)
                .ok_or_else(|| ApiError::ModelUnknown(name.to_string()))?;
            json_ok(200, &view)
        }
        (Post, ["api", "v1", "models", name, "rollout"]) => {
            let req: RolloutRequest = parse_json(body)?;
            let outcome = clipper.rollout_model(name, req.version).await?;
            json_ok(200, &outcome)
        }
        (Post, ["api", "v1", "models", name, "rollback"]) => {
            let outcome = clipper.rollback_model(name).await?;
            json_ok(200, &outcome)
        }

        // --- fleet (replica lifecycle) ---
        (Get, ["api", "v1", "replicas"]) => json_ok(200, &clipper.fleet().list()),
        (Post, ["api", "v1", "replicas"]) => {
            let spec: crate::api::ReplicaSpec = parse_json(body)?;
            let outcome = clipper.fleet().register(spec)?;
            json_ok(201, &outcome)
        }
        (Get, ["api", "v1", "replicas", name]) => {
            let view = clipper
                .fleet()
                .view(name)
                .ok_or_else(|| ApiError::ReplicaUnknown(name.to_string()))?;
            json_ok(200, &view)
        }
        (Post, ["api", "v1", "replicas", name, "heartbeat"]) => {
            // An empty body is a pure liveness beat; any other must parse.
            if !body.is_empty() {
                parse_json::<HeartbeatBody>(body)?;
            }
            let view = clipper.fleet().heartbeat(name)?;
            json_ok(200, &view)
        }
        (Delete, ["api", "v1", "replicas", name]) => {
            clipper.fleet().deregister(name).await?;
            json_ok(
                200,
                &StatusBody {
                    status: "deregistered",
                },
            )
        }

        _ => Err(ApiError::NotFound),
    }
}

/// Lift a data-plane failure into the API taxonomy, attaching the app
/// name to `AppUnknown` so 404 bodies say which app was missing.
fn data_plane_err(e: PredictError, app: &str) -> ApiError {
    match e {
        PredictError::AppUnknown => ApiError::AppUnknown(app.to_string()),
        other => ApiError::Predict(other),
    }
}

async fn handle_predict(
    clipper: &Clipper,
    app: &str,
    body: &[u8],
) -> Result<(u16, String), ApiError> {
    let parsed: PredictRequest = parse_json(body)?;
    let p = clipper
        .predict(app, parsed.context.as_deref(), Arc::new(parsed.input.0))
        .await
        .map_err(|e| data_plane_err(e, app))?;
    let resp = PredictResponse {
        output: p.output.into(),
        confidence: p.confidence,
        models_used: p.models_used,
        models_missing: p.models_missing,
        latency_us: p.latency.as_micros() as u64,
    };
    json_ok(200, &resp)
}

async fn handle_update(
    clipper: &Clipper,
    app: &str,
    body: &[u8],
) -> Result<(u16, String), ApiError> {
    let parsed: UpdateRequest = parse_json(body)?;
    let feedback = match (parsed.label, parsed.labels) {
        (Some(label), None) => Feedback::class(label),
        (None, Some(labels)) => Feedback::labels(labels),
        _ => {
            return Err(ApiError::BadRequest(
                "provide exactly one of label / labels".into(),
            ));
        }
    };
    clipper
        .feedback(
            app,
            parsed.context.as_deref(),
            Arc::new(parsed.input.0),
            feedback,
        )
        .await
        .map_err(|e| data_plane_err(e, app))?;
    json_ok(200, &StatusBody { status: "ok" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::BatchConfig;
    use crate::types::{AppConfig, ModelId, PolicyKind};
    use clipper_rpc::message::{PredictReply, WireOutput};
    use clipper_rpc::transport::FnTransport;
    use std::time::Duration;

    async fn start_frontend() -> (HttpFrontend, Clipper) {
        let clipper = Clipper::builder().build();
        let m = ModelId::new("m", 1);
        clipper.add_model(m.clone(), BatchConfig::default());
        clipper
            .add_replica(
                &m,
                Arc::new(FnTransport::new(
                    "echo",
                    |inputs: &[clipper_rpc::Input]| {
                        Ok(PredictReply {
                            outputs: inputs
                                .iter()
                                .map(
                                    |x| WireOutput::Class(x.first().copied().unwrap_or(0.0) as u32),
                                )
                                .collect(),
                            queue_us: 0,
                            compute_us: 10,
                        })
                    },
                )),
            )
            .unwrap();
        clipper.register_app(
            AppConfig::new("digits", vec![m])
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(100)),
        );
        let frontend = HttpFrontend::bind("127.0.0.1:0", clipper.clone())
            .await
            .unwrap();
        (frontend, clipper)
    }

    async fn http_call(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).await.unwrap();
        conn.write_all(raw.as_bytes()).await.unwrap();
        conn.shutdown().await.unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).await.unwrap();
        buf
    }

    fn request(method: &str, path: &str, body: &str) -> String {
        format!(
            "{method} {path} HTTP/1.1\r\nhost: x\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
    }

    fn post(path: &str, body: &str) -> String {
        request("POST", path, body)
    }

    #[test]
    fn predict_response_wire_bytes_are_pinned() {
        // Bytes recorded from the last commit with a hand-written emitter
        // for this shape: every output kind and float-formatting case.
        let cases = [
            (
                PredictResponse {
                    output: JsonOutput::Class { label: 7 },
                    confidence: 1.0,
                    models_used: 3,
                    models_missing: 0,
                    latency_us: 812,
                },
                r#"{"output":{"kind":"class","label":7},"confidence":1.0,"models_used":3,"models_missing":0,"latency_us":812}"#,
            ),
            (
                PredictResponse {
                    output: JsonOutput::Scores {
                        scores: vec![0.125, 1.0 / 3.0, -2.0],
                    },
                    confidence: 0.6666666666666666,
                    models_used: 1,
                    models_missing: 2,
                    latency_us: 0,
                },
                r#"{"output":{"kind":"scores","scores":[0.125,0.3333333432674408,-2.0]},"confidence":0.6666666666666666,"models_used":1,"models_missing":2,"latency_us":0}"#,
            ),
            (
                PredictResponse {
                    output: JsonOutput::Labels {
                        labels: vec![9, 8, 7],
                    },
                    confidence: 0.0,
                    models_used: 0,
                    models_missing: 0,
                    latency_us: u64::MAX,
                },
                r#"{"output":{"kind":"labels","labels":[9,8,7]},"confidence":0.0,"models_used":0,"models_missing":0,"latency_us":18446744073709551615}"#,
            ),
        ];
        for (resp, golden) in &cases {
            assert_eq!(json_ok(200, resp).unwrap(), (200, golden.to_string()));
        }
        // Non-finite confidence: an internal error, never invalid JSON on
        // the wire.
        let bad = PredictResponse {
            output: JsonOutput::Class { label: 1 },
            confidence: f64::NAN,
            models_used: 1,
            models_missing: 0,
            latency_us: 1,
        };
        assert!(matches!(json_ok(200, &bad), Err(ApiError::Internal(_))));
    }

    #[test]
    fn non_finite_policy_parameters_are_internal_errors() {
        let view = AppView {
            name: "a".to_string(),
            candidate_models: vec![],
            policy: PolicyKind::Exp3 { eta: f64::NAN },
            slo_ms: 20,
            slo_us: 20_000,
            default_output: JsonOutput::Class { label: 0 },
            seed: 0,
        };
        assert!(matches!(json_ok(200, &view), Err(ApiError::Internal(_))));
    }

    #[test]
    fn status_body_wire_bytes_are_pinned() {
        for (status, golden) in [
            ("ok", r#"{"status":"ok"}"#),
            ("deleted", r#"{"status":"deleted"}"#),
            ("we\"ird\\status", r#"{"status":"we\"ird\\status"}"#),
        ] {
            assert_eq!(
                json_ok(200, &StatusBody { status }).unwrap(),
                (200, golden.to_string())
            );
        }
    }

    #[test]
    fn predict_and_update_bodies_parse_as_one_table() {
        // Body → the value both request types must read from it, or
        // `None` for a 400 — each row as the two-pass serde parser this
        // codec replaced decided it, except that a number too large for
        // `f32` is now out.
        type Parsed<'a> = Option<(&'a [f32], Option<&'a str>)>;
        let table: &[(&str, Parsed)] = &[
            (r#"{"input":[7.0]}"#, Some((&[7.0], None))),
            (
                "  {\t\"input\" : [ 1 , -2.5 ,\n3e2, 4E-1, 0.125 ] }  ",
                Some((&[1.0, -2.5, 300.0, 0.4, 0.125], None)),
            ),
            (r#"{"input":[]}"#, Some((&[], None))),
            (
                r#"{"context":"ctx-1","input":[1]}"#,
                Some((&[1.0], Some("ctx-1"))),
            ),
            (r#"{"input":[1],"context":null}"#, Some((&[1.0], None))),
            (
                r#"{"input":[2],"context":"späß 世界"}"#,
                Some((&[2.0], Some("späß 世界"))),
            ),
            // Escapes in the context.
            (
                r#"{"input":[1],"context":"quo\"te"}"#,
                Some((&[1.0], Some("quo\"te"))),
            ),
            (
                r#"{"input":[1],"context":"esc \u00e9\n\ud83e\udd80 \/"}"#,
                Some((&[1.0], Some("esc é\n🦀 /"))),
            ),
            // Unknown keys are skipped, whatever they hold.
            (r#"{"input":[1],"extra":2}"#, Some((&[1.0], None))),
            (
                r#"{"input":[1],"extra":{"a":[1,{"b":null}],"c":"x"}}"#,
                Some((&[1.0], None)),
            ),
            // The first occurrence of a repeated key wins.
            (r#"{"input":[1],"input":[2]}"#, Some((&[1.0], None))),
            (
                r#"{"input":[1],"input":"wrong type"}"#,
                Some((&[1.0], None)),
            ),
            // Number spellings: the lexer hands Rust's float parser any
            // token that starts like a number, so these are in.
            (r#"{"input":[1.]}"#, Some((&[1.0], None))),
            (r#"{"input":[-.5]}"#, Some((&[-0.5], None))),
            (r#"{"input":[01]}"#, Some((&[1.0], None))),
            (r#"{"input":[99999999999999999999]}"#, Some((&[1e20], None))),
            // And these are out.
            (r#"{"input":[1e999]}"#, None),
            (r#"{"input":[1e39]}"#, None),
            (r#"{"input":[1,-1e39]}"#, None),
            (r#"{"input":[+1]}"#, None),
            (r#"{"input":[.5]}"#, None),
            (r#"{"input":[1e]}"#, None),
            (r#"{"input":[-]}"#, None),
            (r#"{"input":[inf]}"#, None),
            // Malformed or truncated documents.
            (r#"{"input":[1] trailing}"#, None),
            (r#"[1]"#, None),
            (r#"{"input":[1}"#, None),
            (r#"{"input":[1,]}"#, None),
            (r#"{"input":[1],}"#, None),
            (r#"{"input":[1]"#, None),
            (r#"{"input":[1"#, None),
            (r#"{"input":"#, None),
            (r#"{"inp"#, None),
            (r#"{"#, None),
            ("", None),
            // Well-formed, wrong shape.
            (r#"{}"#, None),
            (r#"{"context":"c"}"#, None),
            (r#"{"input":null}"#, None),
            (r#"{"input":[1],"context":7}"#, None),
            (r#"{"input":[true]}"#, None),
            (r#"{"input":["1"]}"#, None),
            // Bad strings.
            (r#"{"input":[1],"context":"bad \x escape"}"#, None),
            (r#"{"input":[1],"context":"lone \ud800 surrogate"}"#, None),
            ("{\"input\":[1],\"context\":\"ctl \u{1} char\"}", None),
        ];
        for (body, expected) in table {
            let predict = serde_json::from_slice::<PredictRequest>(body.as_bytes())
                .ok()
                .map(|r| (r.input.0, r.context));
            let update = serde_json::from_slice::<UpdateRequest>(body.as_bytes())
                .ok()
                .map(|r| (r.input.0, r.context));
            assert_eq!(predict, update, "predict and update disagree on {body}");
            let expected = expected.map(|(input, ctx)| (input.to_vec(), ctx.map(str::to_string)));
            assert_eq!(predict, expected, "{body}");
        }

        // Every strict prefix of a valid body is a 400, never a panic.
        let valid = r#"{"context":"c\n","input":[1.5,-2e3],"label":3}"#;
        assert!(serde_json::from_str::<UpdateRequest>(valid).is_ok());
        for cut in 0..valid.len() {
            let prefix = &valid.as_bytes()[..cut];
            assert!(serde_json::from_slice::<PredictRequest>(prefix).is_err());
            assert!(serde_json::from_slice::<UpdateRequest>(prefix).is_err());
        }

        // A literal just above the midpoint of two adjacent `f32`s: read
        // directly it rounds up; read through `f64` first it would round
        // down. Both request types read it directly, so the feedback join
        // keys on the same input the predict cached.
        let body = br#"{"input":[1.00000005960464477539062500000001]}"#;
        let predict: PredictRequest = serde_json::from_slice(body).unwrap();
        let update: UpdateRequest = serde_json::from_slice(body).unwrap();
        assert_eq!(predict.input.0[0].to_bits(), 0x3f80_0001);
        assert_eq!(update.input.0[0].to_bits(), 0x3f80_0001);
    }

    #[tokio::test]
    async fn health_endpoint_responds() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            "GET /health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"ok\""));
    }

    #[tokio::test]
    async fn predict_over_http() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            &post("/api/v1/apps/digits/predict", "{\"input\": [7.0, 1.0]}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"label\":7"), "{resp}");
        assert!(resp.contains("\"confidence\":1.0"), "{resp}");
    }

    #[tokio::test]
    async fn update_over_http_records_feedback() {
        let (frontend, clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            &post(
                "/api/v1/apps/digits/update",
                "{\"input\": [3.0], \"label\": 3}",
            ),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let resp = http_call(
            frontend.local_addr(),
            &post(
                "/api/v1/apps/digits/update",
                "{\"input\": [4.0], \"label\": 4}",
            ),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let state = clipper.policy_state("digits", None).unwrap();
        assert_eq!(state.total, 2);
    }

    #[tokio::test]
    async fn bad_json_is_a_400_with_typed_body() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            &post("/api/v1/apps/digits/predict", "{not json"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
        assert!(
            resp.contains("bad request: ") && !resp.contains("bad request: bad request:"),
            "exactly one taxonomy prefix on the message: {resp}"
        );
    }

    #[tokio::test]
    async fn non_finite_input_is_a_400_and_the_connection_survives() {
        // `1e39` is a well-formed number that does not fit an `f32`: it
        // used to reach the cache key and the models as infinity.
        let (frontend, _clipper) = start_frontend().await;
        let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
        let mut exchange = async |route: &str, body: &str| {
            let req = format!(
                "POST /api/v1/apps/digits/{route} HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            conn.write_all(req.as_bytes()).await.unwrap();
            let mut buf = vec![0u8; 4096];
            let n = conn.read(&mut buf).await.unwrap();
            String::from_utf8_lossy(&buf[..n]).into_owned()
        };
        for (route, body) in [
            ("predict", r#"{"input":[1e39]}"#),
            ("predict", r#"{"input":[2,-1e999]}"#),
            ("update", r#"{"input":[1e39],"label":1}"#),
        ] {
            let resp = exchange(route, body).await;
            assert!(resp.starts_with("HTTP/1.1 400"), "{route} {body}: {resp}");
            let json = resp.split("\r\n\r\n").nth(1).unwrap_or("");
            let parsed: ErrorBody = serde_json::from_str(json).expect("typed error body");
            assert_eq!(parsed.error.code, "bad_request");
        }
        // The largest finite `f32` is still in, on the same connection.
        let resp = exchange("predict", r#"{"input":[4,3.4028235e38]}"#).await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"label\":4"), "{resp}");
    }

    #[tokio::test]
    async fn unknown_app_predict_is_a_404_not_a_500() {
        // Satellite regression: predict/update on an unregistered app used
        // to surface as 500; the taxonomy maps AppUnknown to 404.
        let (frontend, _clipper) = start_frontend().await;
        for path in ["/api/v1/apps/ghost/predict", "/api/v1/apps/ghost/update"] {
            let body = if path.ends_with("update") {
                "{\"input\": [1.0], \"label\": 1}"
            } else {
                "{\"input\": [1.0]}"
            };
            let resp = http_call(frontend.local_addr(), &post(path, body)).await;
            assert!(resp.starts_with("HTTP/1.1 404"), "{path}: {resp}");
            assert!(resp.contains("\"code\":\"app_unknown\""), "{resp}");
        }
    }

    #[tokio::test]
    async fn error_bodies_with_quotes_are_valid_json() {
        // Satellite regression: format!-built error bodies emitted broken
        // JSON when the message contained a quote.
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            &post("/api/v1/apps/we\"ird\\app/predict", "{\"input\": [1.0]}"),
        )
        .await;
        let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
        let parsed: serde_json::Value =
            serde_json::from_str(body).expect("error body must be valid JSON");
        assert_eq!(parsed["error"]["code"], "app_unknown");
        assert!(
            parsed["error"]["message"]
                .as_str()
                .is_some_and(|m| m.contains("we\"ird\\app")),
            "message carries the raw name: {body}"
        );
    }

    #[tokio::test]
    async fn unknown_route_is_404() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            "GET /nope HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("\"code\":\"not_found\""), "{resp}");
        // The pre-v1 aliases are gone: each handler has one name.
        let resp = http_call(
            frontend.local_addr(),
            &post("/apps/digits/predict", "{\"input\": [1.0]}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("\"code\":\"not_found\""), "{resp}");
    }

    #[tokio::test]
    async fn deeply_nested_bodies_are_a_400_not_a_stack_overflow() {
        // One request used to end the process: the parser recursed once
        // per `[` or `{` with no limit, and the frontend accepts 4 MiB.
        let (frontend, _clipper) = start_frontend().await;
        let addr = frontend.local_addr();
        let arrays = "[".repeat(100_000);
        let objects = "{\"a\":".repeat(100_000);
        let skipped_arrays = format!("{{\"input\":[1],\"x\":{arrays}");
        // Shallow, but naming a policy outside the paper's Exp3 / Exp4 and
        // its two baselines.
        let ucb1 = r#"{"name":"p","candidate_models":[{"name":"m","version":1}],"policy":"Ucb1"}"#
            .to_string();
        for (path, body) in [
            ("/api/v1/apps", &arrays),
            ("/api/v1/apps", &objects),
            ("/api/v1/apps/digits/predict", &arrays),
            ("/api/v1/apps/digits/predict", &objects),
            ("/api/v1/apps/digits/predict", &skipped_arrays),
            ("/api/v1/apps", &ucb1),
        ] {
            let resp = http_call(addr, &post(path, body)).await;
            assert!(resp.starts_with("HTTP/1.1 400"), "{path}: {resp}");
            let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
            let parsed: ErrorBody = serde_json::from_str(body).expect("typed error body");
            assert_eq!(parsed.error.code, "bad_request");
            let health = http_call(
                addr,
                "GET /health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
            )
            .await;
            assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        }
        // The limit is 128 levels: the body's own object plus 127 arrays
        // under an unknown key still parses, one more does not.
        let nested =
            |n: usize| format!("{{\"input\":[3],\"x\":{}{}}}", "[".repeat(n), "]".repeat(n));
        let resp = http_call(addr, &post("/api/v1/apps/digits/predict", &nested(127))).await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"label\":3"), "{resp}");
        let resp = http_call(addr, &post("/api/v1/apps/digits/predict", &nested(128))).await;
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("nesting deeper than 128 levels"), "{resp}");
    }

    #[tokio::test]
    async fn models_endpoint_reports_catalog_and_scheduler_state() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            "GET /api/v1/models HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"name\":\"m\""), "{resp}");
        assert!(resp.contains("\"current_version\":1"), "{resp}");
        assert!(resp.contains("\"queue_depth\""), "{resp}");
        assert!(resp.contains("m:v1:0"), "{resp}");
    }

    #[tokio::test]
    async fn app_crud_over_http() {
        let (frontend, _clipper) = start_frontend().await;
        let addr = frontend.local_addr();
        // Create.
        let resp = http_call(
            addr,
            &post(
                "/api/v1/apps",
                "{\"name\":\"crud\",\"candidate_models\":[{\"name\":\"m\",\"version\":1}],\
                 \"slo_ms\":30}",
            ),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
        // Duplicate create → 409.
        let resp = http_call(
            addr,
            &post(
                "/api/v1/apps",
                "{\"name\":\"crud\",\"candidate_models\":[{\"name\":\"m\",\"version\":1}]}",
            ),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 409"), "{resp}");
        assert!(resp.contains("\"code\":\"app_exists\""), "{resp}");
        // Read back.
        let resp = http_call(
            addr,
            "GET /api/v1/apps/crud HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"slo_ms\":30"), "{resp}");
        // Live-update the SLO.
        let resp = http_call(
            addr,
            &request("PATCH", "/api/v1/apps/crud", "{\"slo_ms\":99}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"slo_ms\":99"), "{resp}");
        // The new app serves predictions.
        let resp = http_call(
            addr,
            &post("/api/v1/apps/crud/predict", "{\"input\":[5.0]}"),
        )
        .await;
        assert!(resp.contains("\"label\":5"), "{resp}");
        // List contains both apps.
        let resp = http_call(
            addr,
            "GET /api/v1/apps HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(
            resp.contains("\"crud\"") && resp.contains("\"digits\""),
            "{resp}"
        );
        // Delete; reads and predicts then 404.
        let resp = http_call(addr, &request("DELETE", "/api/v1/apps/crud", "")).await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let resp = http_call(
            addr,
            "GET /api/v1/apps/crud HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        let resp = http_call(
            addr,
            &post("/api/v1/apps/crud/predict", "{\"input\":[1.0]}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    }

    #[tokio::test]
    async fn a_learning_rate_not_above_zero_is_a_400() {
        let (frontend, clipper) = start_frontend().await;
        let addr = frontend.local_addr();
        for policy in [
            r#"{"Exp3":{"eta":0}}"#,
            r#"{"Exp3":{"eta":-1}}"#,
            r#"{"Exp4":{"eta":0}}"#,
            r#"{"Exp4":{"eta":-1}}"#,
        ] {
            let spec = format!(
                r#"{{"name":"bad","candidate_models":[{{"name":"m","version":1}}],"policy":{policy}}}"#
            );
            let patch = format!(r#"{{"policy":{policy}}}"#);
            for resp in [
                http_call(addr, &post("/api/v1/apps", &spec)).await,
                http_call(addr, &request("PATCH", "/api/v1/apps/digits", &patch)).await,
            ] {
                assert!(resp.starts_with("HTTP/1.1 400"), "{policy}: {resp}");
                assert!(resp.contains(r#""code":"bad_request""#), "{resp}");
            }
            assert!(clipper.app_config("bad").is_none());
            assert_eq!(
                clipper.app_config("digits").unwrap().policy,
                PolicyKind::Static { model_index: 0 }
            );
        }
        assert!(clipper.store().get(&crate::api::app_key("bad")).is_none());
    }

    #[tokio::test]
    async fn model_registration_and_rollout_over_http() {
        let (frontend, clipper) = start_frontend().await;
        let addr = frontend.local_addr();
        // Register version 2 over HTTP, then attach a replica in-process
        // (replicas are transports; they connect via RPC, not JSON).
        let resp = http_call(
            addr,
            &post("/api/v1/models", "{\"name\":\"m\",\"version\":2}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
        // Re-registering the same version is a conflict, not a silent
        // 201 no-op.
        let resp = http_call(
            addr,
            &post("/api/v1/models", "{\"name\":\"m\",\"version\":2}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 409"), "{resp}");
        assert!(resp.contains("\"code\":\"version_exists\""), "{resp}");
        // Rollout before any replica attaches → 409.
        let resp = http_call(addr, &post("/api/v1/models/m/rollout", "{\"version\":2}")).await;
        assert!(resp.starts_with("HTTP/1.1 409"), "{resp}");
        assert!(resp.contains("no_replicas_for_version"), "{resp}");
        clipper
            .add_replica(
                &ModelId::new("m", 2),
                Arc::new(FnTransport::new("v2", |inputs: &[clipper_rpc::Input]| {
                    Ok(PredictReply {
                        outputs: vec![WireOutput::Class(42); inputs.len()],
                        queue_us: 0,
                        compute_us: 5,
                    })
                })),
            )
            .unwrap();
        let resp = http_call(addr, &post("/api/v1/models/m/rollout", "{\"version\":2}")).await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"to_version\":2"), "{resp}");
        assert!(resp.contains("digits"), "app repointed: {resp}");
        // Predicts now come from v2.
        let resp = http_call(
            addr,
            &post("/api/v1/apps/digits/predict", "{\"input\":[9.0]}"),
        )
        .await;
        assert!(resp.contains("\"label\":42"), "{resp}");
        // Rollback over HTTP restores v1 (echo transport).
        let resp = http_call(addr, &post("/api/v1/models/m/rollback", "")).await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let resp = http_call(
            addr,
            &post("/api/v1/apps/digits/predict", "{\"input\":[8.0]}"),
        )
        .await;
        assert!(resp.contains("\"label\":8"), "{resp}");
        // Unknown model rollout → 404.
        let resp = http_call(
            addr,
            &post("/api/v1/models/ghost/rollout", "{\"version\":1}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    }

    #[tokio::test]
    async fn metrics_endpoint_returns_json() {
        let (frontend, _clipper) = start_frontend().await;
        // Generate some traffic first: 3 predicts and 2 feedbacks.
        for i in 0..3 {
            let body = format!("{{\"input\": [{i}.0]}}");
            let resp = http_call(
                frontend.local_addr(),
                &post("/api/v1/apps/digits/predict", &body),
            )
            .await;
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        for i in 0..2 {
            let body = format!("{{\"input\": [{i}.0], \"label\": {i}}}");
            let resp = http_call(
                frontend.local_addr(),
                &post("/api/v1/apps/digits/update", &body),
            )
            .await;
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        let resp = http_call(
            frontend.local_addr(),
            "GET /metrics HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        // The predict count is the latency histogram's sample count, and
        // feedback is a plain counter: three kinds, no meters.
        assert!(
            resp.contains(r#""clipper/latency_us":{"kind":"histogram","count":3,"#),
            "{resp}"
        );
        assert!(
            resp.contains(r#""clipper/feedback":{"kind":"counter","value":2}"#),
            "{resp}"
        );
        assert!(!resp.contains(r#""kind":"meter""#), "{resp}");
        assert!(!resp.contains("clipper/predictions"), "{resp}");
    }

    #[tokio::test]
    async fn keep_alive_serves_multiple_requests() {
        let (frontend, _clipper) = start_frontend().await;
        let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
        for i in 0..3 {
            let body = format!("{{\"input\": [{i}.0]}}");
            let req = format!(
                "POST /api/v1/apps/digits/predict HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            conn.write_all(req.as_bytes()).await.unwrap();
            let mut buf = vec![0u8; 4096];
            let n = conn.read(&mut buf).await.unwrap();
            let resp = String::from_utf8_lossy(&buf[..n]);
            assert!(resp.contains(&format!("\"label\":{i}")), "req {i}: {resp}");
        }
    }

    #[tokio::test]
    async fn pipelined_requests_are_carried_across_reads() {
        // Two requests written in one burst: the buffered reader must
        // carve the first body out of the overread and keep the remainder
        // for the second request.
        let (frontend, _clipper) = start_frontend().await;
        let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
        let b1 = "{\"input\": [1.0]}";
        let b2 = "{\"input\": [2.0]}";
        let burst = format!(
            "POST /api/v1/apps/digits/predict HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{b1}\
             POST /api/v1/apps/digits/predict HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{b2}",
            b1.len(),
            b2.len()
        );
        conn.write_all(burst.as_bytes()).await.unwrap();
        conn.shutdown().await.unwrap();
        let mut all = String::new();
        conn.read_to_string(&mut all).await.unwrap();
        assert!(all.contains("\"label\":1"), "{all}");
        assert!(all.contains("\"label\":2"), "{all}");
    }

    #[tokio::test]
    async fn mixed_case_headers_are_honored() {
        // The byte-level head parser must stay case-insensitive for
        // header names and the `close` token.
        let (frontend, _clipper) = start_frontend().await;
        let body = "{\"input\": [6.0]}";
        let raw = format!(
            "POST /api/v1/apps/digits/predict HTTP/1.1\r\nHost: x\r\nCONTENT-LENGTH: {}\r\nConnection: CLOSE\r\n\r\n{body}",
            body.len()
        );
        let mut conn = TcpStream::connect(frontend.local_addr()).await.unwrap();
        conn.write_all(raw.as_bytes()).await.unwrap();
        // No shutdown: `connection: CLOSE` alone must end the exchange.
        let mut resp = String::new();
        conn.read_to_string(&mut resp).await.unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"label\":6"), "{resp}");
        assert!(resp.contains("connection: close"), "{resp}");
    }

    #[tokio::test]
    async fn large_response_bodies_arrive_intact() {
        // Bodies ≥ 4 KiB take the vectored head+body write path; the
        // response must still be a single well-formed HTTP message.
        let (frontend, clipper) = start_frontend().await;
        for i in 0..60 {
            clipper.register_app(
                AppConfig::new(
                    &format!("padded-app-name-{i:04}"),
                    vec![ModelId::new("m", 1)],
                )
                .with_policy(PolicyKind::Static { model_index: 0 })
                .with_slo(Duration::from_millis(100)),
            );
        }
        let resp = http_call(
            frontend.local_addr(),
            "GET /api/v1/apps HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        assert!(body.len() >= 4 * 1024, "body is {} bytes", body.len());
        let advertised: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(advertised, body.len());
        assert!(body.contains("padded-app-name-0059"), "last app present");
    }

    #[tokio::test]
    async fn overly_deep_paths_are_404() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            "GET /a/b/c/d/e/f/g/h/i/j HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("\"code\":\"not_found\""), "{resp}");
    }

    #[tokio::test]
    async fn update_requires_exactly_one_feedback_kind() {
        let (frontend, _clipper) = start_frontend().await;
        let resp = http_call(
            frontend.local_addr(),
            &post("/api/v1/apps/digits/update", "{\"input\": [1.0]}"),
        )
        .await;
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("\"code\":\"bad_request\""), "{resp}");
    }
}
