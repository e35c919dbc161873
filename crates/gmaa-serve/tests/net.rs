//! Loopback TCP tests: protocol round trips, pipelining, malformed and
//! oversized frames, overload shedding through the wire, and drain.

mod common;

use common::{model, quick, GateStore};
use gmaa_serve::net::{Client, NetConfig, Server, WireRequest, WireResponse};
use gmaa_serve::{
    MemoryStore, Request, Response, ServeConfig, ServeError, SessionManager, SessionStore,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve(
    config: ServeConfig,
    store: Option<Arc<dyn SessionStore>>,
) -> (Server, Arc<SessionManager>) {
    let manager = Arc::new(match store {
        Some(store) => SessionManager::with_store(config, store).unwrap(),
        None => SessionManager::new(config),
    });
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager), NetConfig::default()).unwrap();
    (server, manager)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        session: quick(),
        ..ServeConfig::default()
    }
}

/// Raw frame I/O for the tests that deliberately speak bad protocol.
fn write_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}

fn read_raw_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    if stream.read_exact(&mut prefix).is_err() {
        return None;
    }
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload).unwrap();
    Some(payload)
}

#[test]
fn tcp_round_trip_matches_in_process_results() {
    let (server, _manager) = serve(quick_config(), None);
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(matches!(
        client
            .request(Request::CreateSession {
                session: "alice".into(),
                model: model(),
            })
            .unwrap(),
        Response::Created
    ));
    let x = model().find_attribute("x").unwrap();
    assert!(matches!(
        client
            .request(Request::SetPerf {
                session: "alice".into(),
                alternative: 0,
                attr: x,
                perf: maut::Perf::level(0),
            })
            .unwrap(),
        Response::Edited
    ));
    let over_tcp = match client
        .request(Request::Analyze {
            session: "alice".into(),
        })
        .unwrap()
    {
        Response::Analysis(a) => a,
        other => panic!("expected analysis, got {other:?}"),
    };

    // The same session driven in-process produces byte-identical JSON:
    // the wire round trip lost nothing.
    let reference = SessionManager::new(quick_config());
    reference
        .request(Request::CreateSession {
            session: "alice".into(),
            model: model(),
        })
        .unwrap();
    reference
        .request(Request::SetPerf {
            session: "alice".into(),
            alternative: 0,
            attr: x,
            perf: maut::Perf::level(0),
        })
        .unwrap();
    let in_process = match reference
        .request(Request::Analyze {
            session: "alice".into(),
        })
        .unwrap()
    {
        Response::Analysis(a) => a,
        other => panic!("expected analysis, got {other:?}"),
    };
    assert_eq!(
        serde_json::to_string(&*over_tcp).unwrap(),
        serde_json::to_string(&*in_process).unwrap()
    );

    // An error round-trips as a typed error, not a dropped connection.
    assert!(matches!(
        client.request(Request::Analyze {
            session: "ghost".into()
        }),
        Err(ServeError::UnknownSession(name)) if name == "ghost"
    ));
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (server, _manager) = serve(quick_config(), None);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for tenant in ["a", "b", "c"] {
        client
            .request(Request::CreateSession {
                session: tenant.into(),
                model: model(),
            })
            .unwrap();
    }
    // Interleave kinds across tenants (and shards) without waiting.
    for tenant in ["a", "b", "c"] {
        client
            .send(
                Request::Analyze {
                    session: tenant.into(),
                },
                None,
            )
            .unwrap();
        client
            .send(
                Request::MonteCarlo {
                    session: tenant.into(),
                    trials: 25,
                },
                None,
            )
            .unwrap();
    }
    assert_eq!(client.in_flight(), 6);
    // Replies come back in send order: analysis, monte carlo, ×3.
    for _ in 0..3 {
        assert!(matches!(client.recv().unwrap(), Response::Analysis(_)));
        assert!(matches!(client.recv().unwrap(), Response::MonteCarlo(_)));
    }
    assert_eq!(client.in_flight(), 0);
}

#[test]
fn malformed_frame_gets_typed_error_and_connection_survives() {
    let (server, _manager) = serve(quick_config(), None);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Well-framed garbage: typed Protocol error, stream stays aligned.
    write_raw_frame(&mut stream, b"this is not json");
    let reply = read_raw_frame(&mut stream).expect("typed reply, not a hangup");
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(
        response,
        WireResponse::Err(ServeError::Protocol(_))
    ));

    // Valid JSON of the wrong shape: same degradation.
    write_raw_frame(&mut stream, b"{\"NoSuchVariant\":1}");
    let reply = read_raw_frame(&mut stream).unwrap();
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(
        response,
        WireResponse::Err(ServeError::Protocol(_))
    ));

    // The same connection still serves real requests.
    let request = serde_json::to_string(&WireRequest::Api {
        request: Box::new(Request::CreateSession {
            session: "s".into(),
            model: model(),
        }),
        deadline_ms: None,
    })
    .unwrap();
    write_raw_frame(&mut stream, request.as_bytes());
    let reply = read_raw_frame(&mut stream).unwrap();
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, WireResponse::Ok(Response::Created)));
}

#[test]
fn deeply_nested_frame_gets_typed_error_and_connection_survives() {
    let (server, _manager) = serve(quick_config(), None);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // 10 000 open brackets (10 KB, far inside the frame cap). As the whole
    // request they fail on shape at the first byte; under an unknown field
    // they are skipped as a value, and the decoder's nesting bound answers
    // instead of overflowing the reader thread's stack.
    let brackets = "[".repeat(10_000);
    let hidden = format!("{{\"Api\":{{\"junk\":{brackets}");
    for (payload, reason) in [(&brackets, "expected enum"), (&hidden, "nesting")] {
        write_raw_frame(&mut stream, payload.as_bytes());
        let reply = read_raw_frame(&mut stream).expect("typed reply, not a hangup");
        let response: WireResponse =
            serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
        match response {
            WireResponse::Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains(reason), "unhelpful message: {msg}");
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    // The process and the same connection keep serving.
    let request = serde_json::to_string(&WireRequest::Api {
        request: Box::new(Request::CreateSession {
            session: "s".into(),
            model: model(),
        }),
        deadline_ms: None,
    })
    .unwrap();
    write_raw_frame(&mut stream, request.as_bytes());
    let reply = read_raw_frame(&mut stream).unwrap();
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(matches!(response, WireResponse::Ok(Response::Created)));
}

/// An integer field takes only an integral token, and an unsigned one no
/// negative token: a `SetPerf` naming alternative `-1` or `0.5` gets a
/// typed `Protocol` error and edits nothing (both once decoded as
/// alternative 0), while `1.0` and `1e0` still name alternative 1.
#[test]
fn garbage_integer_fields_get_protocol_errors_and_edit_nothing() {
    let (server, _manager) = serve(quick_config(), None);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let encode = |request: Request| -> String {
        let wire = WireRequest::Api {
            request: Box::new(request),
            deadline_ms: None,
        };
        serde_json::to_string(&wire).unwrap()
    };
    let roundtrip = |stream: &mut TcpStream, payload: &str| -> WireResponse {
        write_raw_frame(stream, payload.as_bytes());
        let reply = read_raw_frame(stream).expect("typed reply, not a hangup");
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap()
    };
    let create = encode(Request::CreateSession {
        session: "s".into(),
        model: model(),
    });
    assert!(matches!(
        roundtrip(&mut stream, &create),
        WireResponse::Ok(Response::Created)
    ));

    let x = model().find_attribute("x").unwrap();
    let edit = encode(Request::SetPerf {
        session: "s".into(),
        alternative: 1,
        attr: x,
        perf: maut::Perf::level(0),
    });
    assert!(edit.contains("\"alternative\":1,"), "{edit}");
    for (spelling, reason) in [("-1", "negative"), ("0.5", "fractional")] {
        let bad = edit.replace(
            "\"alternative\":1,",
            &format!("\"alternative\":{spelling},"),
        );
        match roundtrip(&mut stream, &bad) {
            WireResponse::Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains(reason), "unhelpful message: {msg}");
            }
            other => panic!("{spelling}: expected Protocol error, got {other:?}"),
        }
    }
    for spelling in ["1.0", "1e0"] {
        let good = edit.replace(
            "\"alternative\":1,",
            &format!("\"alternative\":{spelling},"),
        );
        assert!(matches!(
            roundtrip(&mut stream, &good),
            WireResponse::Ok(Response::Edited)
        ));
    }

    // Only alternative 1 ("b") was edited.
    let mut want = gmaa::AnalysisEngine::new(model()).unwrap();
    want.set_perf(1, x, maut::Perf::level(0)).unwrap();
    let snapshot = encode(Request::Snapshot {
        session: "s".into(),
    });
    match roundtrip(&mut stream, &snapshot) {
        WireResponse::Ok(Response::Snapshot(snap)) => {
            let served: maut::DecisionModel = serde_json::from_str(&snap.model_json).unwrap();
            assert_eq!(&served, want.model());
        }
        other => panic!("expected a snapshot, got {other:?}"),
    }
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let (server, _manager) = serve(quick_config(), None);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A length prefix way past the cap, no payload behind it.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let reply = read_raw_frame(&mut stream).expect("typed reply before close");
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    match response {
        WireResponse::Err(ServeError::Protocol(msg)) => {
            assert!(msg.contains("exceeds"), "unhelpful message: {msg}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }
    // The stream cannot be re-aligned, so the server hangs up.
    assert!(
        read_raw_frame(&mut stream).is_none(),
        "connection not closed"
    );
}

#[test]
fn overload_sheds_through_the_wire() {
    let store = Arc::new(GateStore::new());
    let (server, manager) = serve(
        ServeConfig {
            shards: 1,
            queue_capacity: 2,
            session: quick(),
            ..ServeConfig::default()
        },
        Some(store.clone() as Arc<dyn SessionStore>),
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The create parks the single worker inside the store write...
    client
        .send(
            Request::CreateSession {
                session: "s".into(),
                model: model(),
            },
            None,
        )
        .unwrap();
    store.wait_parked();
    // ...then three pipelined analyzes hit a capacity-2 queue: the
    // server's reader admits two and sheds the third immediately.
    for _ in 0..3 {
        client
            .send(
                Request::Analyze {
                    session: "s".into(),
                },
                None,
            )
            .unwrap();
    }
    // The shed is the reader thread's, and nothing on the wire shows it
    // before the parked worker's replies: wait for the gate to count it,
    // or an opened gate could drain the queue first and admit the third.
    let deadline = Instant::now() + Duration::from_secs(10);
    while manager.admission_stats().aggregate().rejected_overload < 1 {
        assert!(Instant::now() < deadline, "third Analyze was never shed");
        std::thread::sleep(Duration::from_millis(1));
    }
    store.open();
    assert!(matches!(client.recv().unwrap(), Response::Created));
    assert!(matches!(client.recv().unwrap(), Response::Analysis(_)));
    assert!(matches!(client.recv().unwrap(), Response::Analysis(_)));
    match client.recv() {
        Err(ServeError::Overloaded { shard, depth }) => {
            assert_eq!(shard, 0);
            assert_eq!(depth, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let total = manager.stats().aggregate();
    assert_eq!(total.rejected_overload, 1);
    assert_eq!(total.queue_high_water, 2);
}

#[test]
fn drain_flushes_sessions_and_closes_admission() {
    let store = Arc::new(MemoryStore::new());
    let (server, manager) = serve(quick_config(), Some(store.clone() as Arc<dyn SessionStore>));
    let mut client = Client::connect(server.local_addr()).unwrap();
    for tenant in ["a", "b"] {
        client
            .request(Request::CreateSession {
                session: tenant.into(),
                model: model(),
            })
            .unwrap();
    }
    assert_eq!(client.drain().unwrap(), 2);
    assert!(manager.is_shutting_down());
    // The store holds both sessions; admission is closed for everyone,
    // including a fresh connection.
    assert_eq!(store.sessions().unwrap().len(), 2);
    let mut late = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        late.request(Request::Analyze {
            session: "a".into()
        }),
        Err(ServeError::Shutdown)
    ));
}

#[test]
fn request_with_deadline_expiry_surfaces_through_the_wire() {
    // One shard whose worker parks inside the create's snapshot write,
    // so a request queued behind it with a hopeless deadline expires at
    // dequeue and the typed error travels back over the wire.
    let store = Arc::new(GateStore::new());
    let config = ServeConfig {
        shards: 1,
        session: quick(),
        ..ServeConfig::default()
    };
    let (server, manager) = serve(config, Some(store.clone() as Arc<dyn SessionStore>));
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .send(
            Request::CreateSession {
                session: "s".into(),
                model: model(),
            },
            None,
        )
        .unwrap();
    store.wait_parked();
    // Queued behind the parked worker; already past its 0 ms deadline.
    client
        .send(
            Request::Analyze {
                session: "s".into(),
            },
            Some(0),
        )
        .unwrap();
    store.open();

    assert!(matches!(client.recv().unwrap(), Response::Created));
    assert!(matches!(client.recv(), Err(ServeError::DeadlineExceeded)));
    // A generous deadline on an idle shard sails through the same path.
    assert!(matches!(
        client.request_with_deadline(
            Request::Analyze {
                session: "s".into()
            },
            Some(60_000),
        ),
        Ok(Response::Analysis(_))
    ));

    // Exact accounting: the expiry cost a dequeue (counted by kind) but
    // never touched the engine — only one analysis cycle ran.
    let total = manager.stats().aggregate();
    assert_eq!(total.rejected_deadline, 1);
    assert_eq!(total.requests.analyze, 2);
    assert_eq!(total.cycles.full, 1);
    // Load accounting matches: create + one served analysis reached the
    // handler; the expired request consumed no busy_ns denominator slot.
    assert_eq!(total.load.served_requests, 2);
    assert!(total.load.busy_ns > 0);
}

#[test]
fn slow_reading_client_gets_every_reply_in_order() {
    // Pins the current writer-channel contract ahead of the backpressure
    // stretch (see ROADMAP): a client that pipelines deeply without
    // reading its socket queues replies in the per-connection writer
    // channel (unbounded today). The server's reader and shard workers
    // must not stall, no reply may be dropped or reordered, and the
    // connection must stay usable afterwards.
    let (server, manager) = serve(quick_config(), None);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .request(Request::CreateSession {
            session: "s".into(),
            model: model(),
        })
        .unwrap();

    const BURST: usize = 256;
    for _ in 0..BURST {
        client
            .send(
                Request::Snapshot {
                    session: "s".into(),
                },
                None,
            )
            .unwrap();
    }
    assert_eq!(client.in_flight(), BURST);
    // Give the workers time to finish while this client reads nothing:
    // replies pile up in the socket buffer and then the writer channel.
    std::thread::sleep(std::time::Duration::from_millis(300));
    // The server must still answer other clients while the slow reader's
    // backlog sits in its writer channel.
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(
        other.request(Request::Analyze {
            session: "s".into()
        }),
        Ok(Response::Analysis(_))
    ));

    // Now drain the backlog: every reply arrives, in send order.
    for i in 0..BURST {
        match client.recv() {
            Ok(Response::Snapshot(_)) => {}
            other => panic!("reply {i}: expected Snapshot, got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
    // The connection survives the burst.
    assert!(matches!(
        client.request(Request::Analyze {
            session: "s".into()
        }),
        Ok(Response::Analysis(_))
    ));
    let total = manager.stats().aggregate();
    assert_eq!(total.requests.snapshot, BURST as u64);
    assert_eq!(total.rejected_overload, 0);
}
