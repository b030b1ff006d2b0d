//! Transports: the daemon's unix-socket line protocol and the localhost
//! HTTP endpoint, both hand-rolled over the standard library (the
//! workspace carries no network or serialization dependencies).
//!
//! * **Unix socket** — one request per connection: the client writes a
//!   single line of JSON, the server streams NDJSON response lines back
//!   and closes. This is the low-latency path for local tooling.
//! * **HTTP** — `POST /query` with a JSON body answers the same NDJSON
//!   stream (close-delimited, `Connection: close`); `GET /health`
//!   returns a small status object. Enough HTTP/1.1 for `curl`, nothing
//!   more.
//!
//! Each accepted connection is handled on its own thread against the
//! shared [`Engine`]; the store's shard locks make concurrent queries
//! safe, and overlapping cold cells at worst re-simulate (bit-identical
//! results, last append wins).

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::Engine;
use crate::json::{obj, Json};
use crate::proto::{QueryRequest, ResponseLine, MAX_BODY_BYTES};

/// A running server: the accept loop lives on a background thread until
/// [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    wake: Wake,
    accept_thread: Option<JoinHandle<()>>,
}

enum Wake {
    Unix(PathBuf),
    Http(std::net::SocketAddr),
}

impl ServerHandle {
    /// Stops the accept loop and joins it. In-flight connections run to
    /// completion on their own threads; no new connections are
    /// accepted. The unix socket file is removed.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The listener is blocked in accept(); poke it awake.
        match &self.wake {
            Wake::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
            Wake::Http(addr) => {
                let _ = TcpStream::connect(addr);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Wake::Unix(path) = &self.wake {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds a unix-socket server at `path` and starts accepting on a
/// background thread: [`bind_unix`] then [`serve_unix`].
///
/// # Errors
///
/// As [`bind_unix`].
pub fn spawn_unix(engine: Arc<Engine>, path: &Path) -> io::Result<ServerHandle> {
    Ok(serve_unix(engine, bind_unix(path)?, path))
}

/// Binds the unix socket at `path` without accepting on it yet, so a
/// daemon can find out that its path is taken before it opens its store.
/// A socket file nothing answers on (left by a daemon that died) is
/// removed first; a live server's socket is left alone.
///
/// # Errors
///
/// Returns [`io::ErrorKind::AddrInUse`] if a server already answers at
/// `path`, or the bind error if the socket cannot be created.
pub fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    if UnixStream::connect(path).is_ok() {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            "another server is answering on this socket",
        ));
    }
    let _ = std::fs::remove_file(path);
    UnixListener::bind(path)
}

/// Accepts on `listener`, bound by [`bind_unix`] at `path`, on a
/// background thread.
pub fn serve_unix(engine: Arc<Engine>, listener: UnixListener, path: &Path) -> ServerHandle {
    accept_loop(
        engine,
        Wake::Unix(path.to_owned()),
        move || listener.accept().map(|(stream, _)| stream),
        handle_unix,
    )
}

/// Binds an HTTP server on `addr` (e.g. `"127.0.0.1:0"`) and starts
/// accepting on a background thread. Returns the handle and the bound
/// address (useful with port 0).
///
/// # Errors
///
/// Returns the bind error if the address cannot be bound.
pub fn spawn_http(
    engine: Arc<Engine>,
    addr: &str,
) -> io::Result<(ServerHandle, std::net::SocketAddr)> {
    serve_http(engine, TcpListener::bind(addr)?)
}

/// Accepts HTTP connections on an already bound `listener` on a
/// background thread. Returns the handle and the bound address.
///
/// # Errors
///
/// Returns the error if the listener's local address cannot be read.
pub fn serve_http(
    engine: Arc<Engine>,
    listener: TcpListener,
) -> io::Result<(ServerHandle, std::net::SocketAddr)> {
    let local = listener.local_addr()?;
    let handle = accept_loop(
        engine,
        Wake::Http(local),
        move || listener.accept().map(|(stream, _)| stream),
        handle_http,
    );
    Ok((handle, local))
}

/// Starts the accept loop on a background thread: each connection that
/// `accept` returns is answered by `handle` on a thread of its own,
/// until [`ServerHandle::shutdown`].
fn accept_loop<S: Send + 'static>(
    engine: Arc<Engine>,
    wake: Wake,
    mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
    handle: fn(&Engine, S),
) -> ServerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || loop {
        let conn = accept();
        if accept_stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || handle(&engine, stream));
    });
    ServerHandle {
        stop,
        wake,
        accept_thread: Some(accept_thread),
    }
}

/// Runs one request against the engine, writing each response line (and
/// flushing — the stream is incremental by design) to `out`.
fn answer<W: Write>(engine: &Engine, request_text: &str, out: &mut W) {
    let mut emit = |line: &ResponseLine| {
        // A write failure means the client hung up; keep draining the
        // engine's callbacks (results still land in the store).
        let _ = writeln!(out, "{}", line.to_json());
        let _ = out.flush();
    };
    match QueryRequest::from_json_str(request_text) {
        Ok(req) => {
            // Errors were already emitted as an error line.
            let _ = engine.execute(&req, &mut emit);
        }
        Err(e) => emit(&ResponseLine::Error {
            message: e.to_string(),
        }),
    }
}

fn handle_unix(engine: &Engine, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // One request per connection: the client writes its JSON document
    // (newlines allowed) and shuts down its write half; EOF delimits
    // the request. Bounded read — a query document is small.
    let mut request = String::new();
    if BufReader::new(read_half)
        .take(MAX_BODY_BYTES as u64)
        .read_to_string(&mut request)
        .is_err()
        || request.trim().is_empty()
    {
        return;
    }
    let mut writer = BufWriter::new(stream);
    answer(engine, request.trim(), &mut writer);
}

fn handle_http(engine: &Engine, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => return,
    };

    // Headers: we only need Content-Length.
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header).is_err() {
            return;
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
    }

    match (method.as_str(), target.as_str()) {
        ("GET", "/health") => {
            let mut body = obj([
                ("status", Json::Str("ok".to_owned())),
                ("cells", Json::Num(engine.store().len() as f64)),
            ])
            .to_string();
            body.push('\n');
            let _ = write!(
                writer,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
        ("POST", "/query") => {
            // Cap request bodies: a query document is small, and an
            // absurd Content-Length must not drive an allocation.
            if content_length > MAX_BODY_BYTES {
                let _ = write!(
                    writer,
                    "HTTP/1.1 413 Payload Too Large\r\nConnection: close\r\n\r\n"
                );
                let _ = writer.flush();
                return;
            }
            let mut body = vec![0u8; content_length];
            if reader.read_exact(&mut body).is_err() {
                return;
            }
            let Ok(text) = String::from_utf8(body) else {
                let _ = write!(
                    writer,
                    "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n"
                );
                let _ = writer.flush();
                return;
            };
            // The NDJSON body is close-delimited: no Content-Length up
            // front would mean buffering the whole (streamed) response.
            let _ = write!(
                writer,
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
            );
            let _ = writer.flush();
            answer(engine, &text, &mut writer);
        }
        _ => {
            let _ = write!(
                writer,
                "HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n"
            );
        }
    }
    let _ = writer.flush();
}
