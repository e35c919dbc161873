//! The serve- and store-layer trace: the served request sequence replayed
//! through an in-process `SessionManager::request`, one thread per client
//! as over TCP, with a [`TimedStore`] in front of the store of durable
//! workloads. Its replies must equal the TCP replies byte for
//! byte (the TCP ≡ in-process contract).

use crate::drive::{digest_outcome, ClientLog, Phase, Reply};
use crate::timed_store::TimedStore;
use crate::trace::{Recorder, Span};
use crate::workload::Workload;
use gmaa_serve::{MemoryStore, Request, Response, ServeStats, SessionManager, SessionStore};
use std::sync::Arc;

#[derive(Debug, Default)]
pub struct InProcOutcome {
    pub measured_mismatches: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    pub stats: ServeStats,
}

fn same(served: &Result<Reply, String>, replayed: &Result<Reply, String>) -> bool {
    matches!((served, replayed), (Ok(s), Ok(r)) if s.digest == r.digest)
}

pub fn replay(w: &Workload, logs: &[ClientLog]) -> Result<InProcOutcome, String> {
    let store = w.durable.then(|| {
        let shard_of = w
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.shard))
            .collect();
        Arc::new(TimedStore::new(MemoryStore::new(), shard_of, w.shards()))
    });
    let manager = match &store {
        Some(store) => {
            let dyn_store: Arc<dyn SessionStore> = Arc::clone(store) as Arc<dyn SessionStore>;
            SessionManager::with_store(w.config, dyn_store).map_err(|e| e.to_string())?
        }
        None => SessionManager::new(w.config),
    };

    let per_client: Vec<(u64, Vec<String>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(client, log)| {
                let (manager, store) = (&manager, &store);
                scope.spawn(move || {
                    let mut mismatches = 0u64;
                    let mut errors = Vec::new();
                    let mut rec = Recorder::new(true);
                    for t in w.tenants_of(client) {
                        let created = manager.request(Request::CreateSession {
                            session: w.tenants[t].name.clone(),
                            model: w.tenants[t].model.clone(),
                        });
                        if !matches!(created, Ok(Response::Created)) {
                            errors.push(format!("in-process create {}: {created:?}", w.tenants[t].name));
                        }
                    }
                    for served in &log.served {
                        let traced = served.phase == Phase::Traced;
                        let shard = w.tenants[served.round.tenant].shard;
                        let calls = [
                            ("serve.edit", w.edit_request(&served.round), &served.edit),
                            ("serve.read", w.read_request(&served.round), &served.read),
                        ];
                        for (name, request, tcp_reply) in calls {
                            let span = if traced {
                                rec.open(name, served.id, None)
                            } else {
                                None
                            };
                            if let (Some(store), Some(span)) = (store, span) {
                                store.enter(shard, span.id, served.id);
                            }
                            let outcome = manager.request(request);
                            rec.close(span);
                            if let Some(store) = store {
                                store.leave(shard);
                            }
                            let replayed = digest_outcome(outcome);
                            if !same(tcp_reply, &replayed) {
                                if served.phase != Phase::WarmUp {
                                    mismatches += 1;
                                }
                                if errors.len() < 5 {
                                    errors.push(format!(
                                        "in-process {name} of round {:#x}: tcp {tcp_reply:?}, in-process {replayed:?}",
                                        served.id
                                    ));
                                }
                            }
                        }
                    }
                    (mismatches, errors, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process replay thread panicked"))
            .collect()
    });

    let mut out = InProcOutcome {
        stats: manager.stats(),
        ..InProcOutcome::default()
    };
    for (mismatches, errors, spans) in per_client {
        out.measured_mismatches += mismatches;
        out.errors.extend(errors);
        out.spans.extend(spans);
    }
    if let Some(store) = &store {
        out.spans.extend(store.take_spans());
    }
    manager
        .shutdown()
        .map_err(|e| format!("drain in-process manager: {e}"))?;
    Ok(out)
}
