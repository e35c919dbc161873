//! The TCP server: one acceptor thread, two threads per connection
//! (reader + in-order writer), all feeding the shared
//! [`SessionManager`].

use super::codec::{read_frame, write_frame, FrameError};
use super::{WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES};
use crate::manager::{Pending, SessionManager};
use crate::protocol::ServeError;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport-level settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Cap on one frame's payload bytes, both directions
    /// ([`DEFAULT_MAX_FRAME_BYTES`] by default). An inbound prefix past
    /// it gets a typed [`ServeError::Protocol`] reply and the
    /// connection closes (the stream cannot be re-aligned).
    pub max_frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// A running TCP front end over a shared [`SessionManager`].
///
/// Dropping the server stops the acceptor; established connections keep
/// serving until their peers hang up (the manager outlives them through
/// its `Arc`).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections for `manager`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        manager: Arc<SessionManager>,
        config: NetConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let max_frame = config.max_frame_bytes;
        let acceptor = std::thread::Builder::new()
            .name("gmaa-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let manager = Arc::clone(&manager);
                    // A machine that cannot spawn a thread cannot serve
                    // this connection; dropping the stream refuses it.
                    let _ = std::thread::Builder::new()
                        .name("gmaa-serve-conn".to_string())
                        .spawn(move || serve_connection(stream, manager, max_frame));
                }
            })?;
        Ok(Server {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the acceptor thread.
    /// Established connections keep serving until their peers hang up.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept with a throwaway
        // connection; if even that fails the listener is already dead.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the reader hands the writer, one entry per inbound frame, in
/// frame order.
enum Outcome {
    /// An admitted (or admission-rejected) API request; the writer
    /// waits for its reply.
    Pending(Pending),
    /// A reply that needs no waiting (drain acks, protocol errors).
    Ready(WireResponse),
    /// Send the reply, then close the connection (stream desynced).
    Fatal(WireResponse),
}

/// One connection's reader loop (runs on the connection thread; the
/// in-order writer runs on a sibling thread).
fn serve_connection(stream: TcpStream, manager: Arc<SessionManager>, max_frame: usize) {
    // Loopback benchmarking is latency-sensitive: without this, Nagle +
    // delayed ACK can put a 40 ms floor under small-frame round trips.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Outcome>();
    let writer = std::thread::Builder::new()
        .name("gmaa-serve-conn-writer".to_string())
        .spawn(move || {
            // No `BufWriter`: each frame leaves in one vectored write.
            let mut w = write_half;
            for outcome in rx {
                let (response, fatal) = match outcome {
                    Outcome::Pending(p) => {
                        let r = match p.wait() {
                            Ok(r) => WireResponse::Ok(r),
                            Err(e) => WireResponse::Err(e),
                        };
                        (r, false)
                    }
                    Outcome::Ready(r) => (r, false),
                    Outcome::Fatal(r) => (r, true),
                };
                let payload = match serde_json::to_string(&response) {
                    Ok(json) => json,
                    // A response that cannot be encoded degrades to a
                    // typed protocol error (hand-built JSON: encoding
                    // just failed, so no second trip through serde).
                    Err(_) => {
                        "{\"Err\":{\"Protocol\":\"response could not be encoded\"}}".to_string()
                    }
                };
                if write_frame(&mut w, payload.as_bytes()).is_err() || fatal {
                    return;
                }
            }
        });
    let Ok(writer) = writer else {
        return;
    };

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, max_frame) {
            Ok(None) | Err(FrameError::Io(_)) => break,
            Ok(Some(payload)) => {
                if !dispatch_frame(&payload, &manager, &tx) {
                    break;
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                // The payload was never read — the stream cannot be
                // re-aligned. Answer, then close.
                let _ = tx.send(Outcome::Fatal(WireResponse::Err(ServeError::Protocol(
                    format!("frame of {len} bytes exceeds the {max}-byte cap"),
                ))));
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Decode and dispatch one inbound frame. `false` means the connection
/// should close (the writer already has the final reply, if any).
fn dispatch_frame(payload: &[u8], manager: &Arc<SessionManager>, tx: &Sender<Outcome>) -> bool {
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| format!("frame is not UTF-8: {e}"))
        .and_then(|text| {
            serde_json::from_str::<WireRequest>(text)
                .map_err(|e| format!("invalid request JSON: {e}"))
        });
    let outcome = match parsed {
        Ok(WireRequest::Api {
            request,
            deadline_ms,
        }) => Outcome::Pending(
            manager.submit_with_deadline(*request, deadline_ms.map(Duration::from_millis)),
        ),
        Ok(WireRequest::Drain) => {
            let response = match manager.shutdown() {
                Ok(sessions) => WireResponse::Drained { sessions },
                Err(e) => WireResponse::Err(e),
            };
            Outcome::Ready(response)
        }
        // Malformed content in a well-formed frame: typed reply, keep
        // the connection — framing is still aligned.
        Err(msg) => Outcome::Ready(WireResponse::Err(ServeError::Protocol(msg))),
    };
    tx.send(outcome).is_ok()
}
