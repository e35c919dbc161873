//! The load generator: deploys `gmaa-serve` on loopback, creates the
//! sessions over TCP, and runs closed-loop rounds from the client
//! threads.
//!
//! [`Framed`] speaks the server's length-prefixed JSON frames, as
//! `gmaa_serve::net::Client` does, but keeps each reply's raw bytes, so a
//! reply is checked by digest without being encoded again. On the traced
//! run it splits each call into encode, write, wait, read and decode
//! spans.

use crate::trace::{Open, Recorder, Span};
use crate::util::fnv1a;
use crate::workload::{Plan, Round, Workload};
use gmaa_serve::net::{NetConfig, Server, WireRequest, WireResponse, DEFAULT_MAX_FRAME_BYTES};
use gmaa_serve::{MemoryStore, Request, Response, ServeError, SessionManager};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    WarmUp,
    Untraced,
    Traced,
}

/// A successful reply: what the checks and metrics need of it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Digest of the `WireResponse` JSON the reply was sent as.
    pub digest: u64,
    pub bytes: usize,
    /// The `Response` variant.
    pub variant: &'static str,
}

/// One served round.
#[derive(Debug)]
pub struct Served {
    pub id: u32,
    pub phase: Phase,
    pub round: Round,
    pub edit: Result<Reply, String>,
    pub read: Result<Reply, String>,
    pub edit_ms: f64,
    pub read_ms: f64,
    /// When the round completed, in seconds since its phase began.
    pub done_s: f64,
}

impl Served {
    /// The edit was acknowledged and the read answered.
    pub fn ok(&self) -> bool {
        matches!(self.edit, Ok(r) if r.variant == "Edited") && self.read.is_ok()
    }
}

/// Everything one client did, in order.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub served: Vec<Served>,
    pub spans: Vec<Span>,
}

/// Round ids carry the client in their top byte, so ids from the two
/// clients never collide.
pub fn round_id(client: usize, seq: usize) -> u32 {
    ((client as u32) << 24) | (seq as u32 & 0x00ff_ffff)
}

fn variant(response: &Response) -> &'static str {
    match response {
        Response::Created => "Created",
        Response::Edited => "Edited",
        Response::Analysis(_) => "Analysis",
        Response::Cycle(_) => "Cycle",
        Response::MonteCarlo(_) => "MonteCarlo",
        Response::Snapshot(_) => "Snapshot",
        Response::Closed => "Closed",
    }
}

/// Digest a reply the way the server sends it on the wire.
pub fn digest_outcome(outcome: Result<Response, ServeError>) -> Result<Reply, String> {
    let response = outcome.map_err(|e| e.to_string())?;
    let variant = variant(&response);
    let json = serde_json::to_string(&WireResponse::Ok(response))
        .map_err(|e| format!("encode reply: {e}"))?;
    Ok(Reply {
        digest: fnv1a(json.as_bytes()),
        bytes: json.len(),
        variant,
    })
}

/// A client connection speaking the length-prefixed JSON frames.
#[derive(Debug)]
pub struct Framed {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Framed {
    pub fn connect(addr: SocketAddr) -> Result<Framed, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Framed { reader, writer })
    }

    /// Send `request` and wait for its reply; with an active recorder,
    /// under a span `name` with one child span per step.
    pub fn call(
        &mut self,
        name: &'static str,
        request: &Request,
        rec: &mut Recorder,
        round: u32,
        parent: Option<Open>,
    ) -> Result<Reply, String> {
        let call = rec.open(name, round, parent);
        let reply = self
            .send(request, rec, round, call)
            .and_then(|()| self.recv(rec, round, call));
        rec.close(call);
        reply
    }

    /// Send one request without waiting; replies come back in order.
    pub fn send(
        &mut self,
        request: &Request,
        rec: &mut Recorder,
        round: u32,
        parent: Option<Open>,
    ) -> Result<(), String> {
        let span = rec.open("net.encode", round, parent);
        let wire = WireRequest::Api {
            request: Box::new(request.clone()),
            deadline_ms: None,
        };
        let json = serde_json::to_string(&wire).map_err(|e| format!("encode request: {e}"))?;
        let len = u32::try_from(json.len()).map_err(|_| "request frame too large".to_string())?;
        rec.close(span);

        let io = |e: std::io::Error| format!("transport: {e}");
        let span = rec.open("net.write", round, parent);
        self.writer.write_all(&len.to_be_bytes()).map_err(io)?;
        self.writer.write_all(json.as_bytes()).map_err(io)?;
        self.writer.flush().map_err(io)?;
        rec.close(span);
        Ok(())
    }

    /// Receive the oldest outstanding reply.
    pub fn recv(
        &mut self,
        rec: &mut Recorder,
        round: u32,
        parent: Option<Open>,
    ) -> Result<Reply, String> {
        let io = |e: std::io::Error| format!("transport: {e}");
        // Waiting for the reply is the server's time plus the wire's, not
        // client-side net work, so it is a layer of its own.
        let span = rec.open("wait.reply", round, parent);
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix).map_err(io)?;
        rec.close(span);

        let span = rec.open("net.read", round, parent);
        let len = u32::from_be_bytes(prefix) as usize;
        if len > DEFAULT_MAX_FRAME_BYTES {
            return Err(format!("reply frame of {len} bytes exceeds the frame cap"));
        }
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload).map_err(io)?;
        rec.close(span);

        let span = rec.open("net.decode", round, parent);
        let text = std::str::from_utf8(&payload).map_err(|e| format!("reply is not UTF-8: {e}"))?;
        let response: WireResponse =
            serde_json::from_str(text).map_err(|e| format!("decode reply: {e}"))?;
        rec.close(span);

        match response {
            WireResponse::Ok(response) => Ok(Reply {
                digest: fnv1a(&payload),
                bytes: payload.len(),
                variant: variant(&response),
            }),
            WireResponse::Err(e) => Err(e.to_string()),
            WireResponse::Drained { .. } => Err("unexpected Drained reply".to_string()),
        }
    }
}

/// The server under test, its manager and the client connections.
pub struct Deployment {
    pub manager: Arc<SessionManager>,
    pub conns: Vec<Framed>,
    server: Server,
}

impl Deployment {
    /// Set-up, the part `setup_s` times: open the store (durable
    /// workloads), start the manager and the TCP server, connect the
    /// clients, and create every session over the wire.
    pub fn set_up(w: &Workload) -> Result<Deployment, String> {
        let manager = if w.durable {
            SessionManager::with_store(w.config, Arc::new(MemoryStore::new()))
                .map_err(|e| format!("start manager: {e}"))?
        } else {
            SessionManager::new(w.config)
        };
        let manager = Arc::new(manager);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&manager), NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut conns = Vec::with_capacity(w.clients);
        for _ in 0..w.clients {
            conns.push(Framed::connect(server.local_addr())?);
        }
        // Each client sends all its creates before reading the replies,
        // as a client loading its tenants in bulk would.
        let mut rec = Recorder::new(false);
        for t in &w.tenants {
            let request = Request::CreateSession {
                session: t.name.clone(),
                model: t.model.clone(),
            };
            conns[t.client].send(&request, &mut rec, 0, None)?;
        }
        for t in &w.tenants {
            match conns[t.client].recv(&mut rec, 0, None) {
                Ok(reply) if reply.variant == "Created" => {}
                other => return Err(format!("create {}: {other:?}", t.name)),
            }
        }
        Ok(Deployment {
            manager,
            conns,
            server,
        })
    }

    /// Close the connections, stop the server, drain the manager, and
    /// wait until the server's connection threads have let go of it, so
    /// its shard workers are joined before anything else runs.
    pub fn tear_down(self) -> Result<(), String> {
        let Deployment {
            mut manager,
            conns,
            mut server,
        } = self;
        drop(conns);
        server.stop();
        let drained = manager
            .shutdown()
            .map(|_| ())
            .map_err(|e| format!("drain: {e}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(manager) {
                Ok(last) => {
                    drop(last);
                    return drained;
                }
                Err(shared) if Instant::now() < deadline => {
                    manager = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err("server connections did not close".to_string()),
            }
        }
    }
}

/// Run one phase on every client thread. Rounds come from each client's
/// warm-up list, or from its plan until `deadline` or `max_rounds`.
/// Returns the phase's wall time in seconds.
pub fn run_phase(
    w: &Workload,
    conns: &mut [Framed],
    plans: &mut [Plan],
    logs: &mut [ClientLog],
    phase: Phase,
    deadline: Instant,
    max_rounds: usize,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (client, ((conn, plan), log)) in conns.iter_mut().zip(plans).zip(logs).enumerate() {
            scope.spawn(move || {
                let mut rec = Recorder::new(phase == Phase::Traced);
                let mut warm_up = if phase == Phase::WarmUp {
                    plan.warm_up(w).into_iter()
                } else {
                    Vec::new().into_iter()
                };
                let mut done = 0;
                loop {
                    let round = if phase == Phase::WarmUp {
                        match warm_up.next() {
                            Some(round) => round,
                            None => break,
                        }
                    } else if done >= max_rounds || Instant::now() >= deadline {
                        break;
                    } else {
                        plan.next(w)
                    };
                    let id = round_id(client, log.served.len());
                    let span = rec.open("client.round", id, None);
                    let t0 = Instant::now();
                    let edit =
                        conn.call("client.edit", &w.edit_request(&round), &mut rec, id, span);
                    let t1 = Instant::now();
                    let read =
                        conn.call("client.read", &w.read_request(&round), &mut rec, id, span);
                    let t2 = Instant::now();
                    rec.close(span);
                    log.served.push(Served {
                        id,
                        phase,
                        round,
                        edit,
                        read,
                        edit_ms: (t1 - t0).as_secs_f64() * 1e3,
                        read_ms: (t2 - t1).as_secs_f64() * 1e3,
                        done_s: (t2 - start).as_secs_f64(),
                    });
                    done += 1;
                }
                log.spans.extend(rec.into_spans());
            });
        }
    });
    start.elapsed().as_secs_f64()
}
