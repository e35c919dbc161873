//! Byte-level pin of the JSON wire codec.
//!
//! Every `WireRequest`, `WireResponse` and `ServeError` variant, the
//! analysis and discard-cycle replies the benchmark serves, a Monte Carlo
//! result, a session snapshot, every `StoreError` and `JournalRecord`
//! variant and one pretty-printed model document are encoded with
//! `serde_json`, hashed with 64-bit FNV-1a and compared with the
//! checked-in fixture `tests/fixtures/wire_codec_digests.txt`. The
//! payloads carry the awkward cases on purpose: escaped and multi-byte
//! strings, `-0`, integers past 2^53, `None` fields and non-finite floats.
//!
//! Every case except the non-finite one also decodes its own bytes and
//! re-encodes them: `encode(decode(bytes)) == bytes`.
//!
//! To regenerate after an *intentional* wire-format change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test wire_codec_golden
//! ```

use gmaa::{Analysis, AnalysisEngine, DiscardCycle};
use gmaa_gen::{Family, GenConfig};
use gmaa_serve::net::{WireRequest, WireResponse};
use gmaa_serve::{
    JournalRecord, Request, Response, ServeError, SessionConfig, SessionSnapshot, StoreError,
};
use maut::prelude::*;
use maut::{DecisionModel, ModelError};
use maut_sense::{LpError, MonteCarloConfig, MonteCarloResult};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wire_codec_digests.txt"
);

/// A session name that needs every escape the writer emits, plus
/// multi-byte UTF-8 that it copies through.
const AWKWARD: &str = "tenant \"q\" \\ /\n\t\r\u{1}\u{1f} größe ✓ 🦀";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned document: its name, its bytes and whether it must survive
/// a decode/re-encode round trip.
struct Case {
    name: String,
    json: String,
    round_trip: bool,
}

struct Cases(Vec<Case>);

/// Pin `$value`'s compact encoding (of type `$ty`) and check that it
/// round-trips.
macro_rules! pin {
    ($cases:expr, $name:expr, $ty:ty, $value:expr) => {{
        let name: &str = &$name;
        let json = serde_json::to_string::<$ty>(&$value).expect("value encodes");
        let back: $ty = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{name}: own encoding does not decode: {e}"));
        let again = serde_json::to_string(&back).expect("value re-encodes");
        assert_eq!(again, json, "{name}: encode(decode(bytes)) != bytes");
        $cases.0.push(Case {
            name: name.to_string(),
            json,
            round_trip: true,
        });
    }};
}

impl Cases {
    /// Pin a document that is only ever encoded.
    fn push_encode_only(&mut self, name: &str, json: String) {
        self.0.push(Case {
            name: name.to_string(),
            json,
            round_trip: false,
        });
    }
}

fn small_model() -> DecisionModel {
    let mut b = DecisionModelBuilder::new(AWKWARD);
    let x = b.discrete_attribute("x", "Größe", &["low", "mid \"m\"", "high"]);
    let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
    b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
    b.alternative("a", vec![Perf::level(2), Perf::level(1)]);
    b.alternative("b", vec![Perf::level(0), Perf::level(2)]);
    b.build().expect("valid model")
}

fn engine(model: DecisionModel, trials: usize) -> AnalysisEngine {
    let mut engine = AnalysisEngine::new(model).expect("valid model");
    engine.set_mc_trials(trials).expect("nonzero trials");
    engine
}

fn analysis(model: DecisionModel) -> Analysis {
    engine(model, 200).analyze().expect("analysis runs")
}

fn cycle(family: Family, n: usize, m: usize, seed: u64) -> DiscardCycle {
    engine(
        gmaa_gen::generate(&GenConfig::preset(family, n, m, seed)),
        1,
    )
    .discard_cycle()
    .expect("cycle runs")
}

fn monte_carlo() -> MonteCarloResult {
    engine(neon_reuse::paper_model().model, 300).monte_carlo(MonteCarloConfig::ElicitedIntervals)
}

fn snapshot() -> SessionSnapshot {
    SessionSnapshot {
        session: AWKWARD.to_string(),
        model_json: serde_json::to_string(&small_model()).expect("model encodes"),
        config: SessionConfig {
            mc_trials: 300,
            // Past 2^53: the integer travels exactly.
            mc_seed: u64::MAX,
        },
    }
}

fn store_errors() -> Vec<(&'static str, StoreError)> {
    vec![
        (
            "store-io",
            StoreError::Io(std::io::Error::other("disk \"full\"")),
        ),
        ("store-encode", StoreError::Encode("bad\nbytes".into())),
        ("store-corrupt", StoreError::Corrupt("torn".into())),
        (
            "store-unknown-session",
            StoreError::UnknownSession(AWKWARD.into()),
        ),
    ]
}

fn requests(model: &DecisionModel) -> Vec<(&'static str, Request)> {
    let root = model.tree.root();
    let objective = model.tree.get(root).children[0];
    let session = AWKWARD.to_string();
    vec![
        (
            "create",
            Request::CreateSession {
                session: session.clone(),
                model: model.clone(),
            },
        ),
        (
            "set-perf-level",
            Request::SetPerf {
                session: session.clone(),
                alternative: 1,
                attr: AttributeId::from_index(0),
                perf: Perf::level(2),
            },
        ),
        (
            "set-perf-negative-zero",
            Request::SetPerf {
                session: session.clone(),
                alternative: 0,
                attr: AttributeId::from_index(1),
                perf: Perf::Value(-0.0),
            },
        ),
        (
            "set-perf-range",
            Request::SetPerf {
                session: session.clone(),
                alternative: 0,
                attr: AttributeId::from_index(1),
                perf: Perf::Range(0.1, 1e-7),
            },
        ),
        (
            "set-perf-missing",
            Request::SetPerf {
                session: session.clone(),
                alternative: 0,
                attr: AttributeId::from_index(0),
                perf: Perf::Missing,
            },
        ),
        (
            "set-weight",
            Request::SetWeight {
                session: session.clone(),
                objective,
                weight: Interval::new(0.25, 1.0 / 3.0),
            },
        ),
        (
            "analyze",
            Request::Analyze {
                session: session.clone(),
            },
        ),
        (
            "discard-cycle",
            Request::DiscardCycle {
                session: session.clone(),
            },
        ),
        (
            "monte-carlo",
            Request::MonteCarlo {
                session: session.clone(),
                trials: 10_000,
            },
        ),
        (
            "snapshot",
            Request::Snapshot {
                session: session.clone(),
            },
        ),
        ("close", Request::CloseSession { session }),
    ]
}

fn serve_errors() -> Vec<(&'static str, ServeError)> {
    let mut errors = vec![
        (
            "unknown-session",
            ServeError::UnknownSession(AWKWARD.into()),
        ),
        (
            "duplicate-session",
            ServeError::DuplicateSession("s".into()),
        ),
        ("model-unit", ServeError::Model(ModelError::NoAttributes)),
        (
            "model-struct",
            ServeError::Model(ModelError::LevelOutOfRange {
                alternative: "a".into(),
                attribute: "x".into(),
                level: 7,
                levels: 3,
            }),
        ),
        (
            "model-newtype",
            ServeError::Model(ModelError::UnknownId("zz".into())),
        ),
        ("invalid-request", ServeError::InvalidRequest("no".into())),
        (
            "lp",
            ServeError::Lp(LpError::InvalidBound {
                var: 2,
                lower: 1.5,
                upper: -0.25,
            }),
        ),
        ("snapshot", ServeError::Snapshot("gone".into())),
        ("shard-down", ServeError::ShardDown),
        (
            "overloaded",
            ServeError::Overloaded {
                shard: 1,
                depth: 64,
            },
        ),
        (
            "quota",
            ServeError::QuotaExceeded {
                session: "s".into(),
            },
        ),
        ("deadline", ServeError::DeadlineExceeded),
        ("shutdown", ServeError::Shutdown),
        ("protocol", ServeError::Protocol("bad frame".into())),
        ("internal", ServeError::Internal("broke".into())),
    ];
    for (name, e) in store_errors() {
        errors.push((name, ServeError::Store(e)));
    }
    errors
}

fn all_cases() -> Cases {
    let mut cases = Cases(Vec::new());
    let model = small_model();

    for (name, request) in requests(&model) {
        let wire = WireRequest::Api {
            request: Box::new(request),
            deadline_ms: None,
        };
        pin!(cases, format!("request/{name}"), WireRequest, wire);
    }
    let late = WireRequest::Api {
        request: Box::new(Request::Analyze {
            session: "s".into(),
        }),
        deadline_ms: Some((1 << 53) + 1),
    };
    pin!(cases, "request/deadline-past-2^53", WireRequest, late);
    pin!(cases, "request/drain", WireRequest, WireRequest::Drain);

    let paper = neon_reuse::paper_model().model;
    let paper_cycle = engine(paper.clone(), 1)
        .discard_cycle()
        .expect("cycle runs");
    let responses = vec![
        ("created", Response::Created),
        ("edited", Response::Edited),
        (
            "analysis-paper",
            Response::Analysis(Box::new(analysis(paper.clone()))),
        ),
        ("cycle-paper", Response::Cycle(Box::new(paper_cycle))),
        ("monte-carlo", Response::MonteCarlo(Box::new(monte_carlo()))),
        ("snapshot", Response::Snapshot(Box::new(snapshot()))),
        ("closed", Response::Closed),
    ];
    for (name, response) in responses {
        let wire = WireResponse::Ok(response);
        pin!(cases, format!("response/ok/{name}"), WireResponse, wire);
    }
    for (name, error) in serve_errors() {
        let wire = WireResponse::Err(error);
        pin!(cases, format!("response/err/{name}"), WireResponse, wire);
    }
    let drained = WireResponse::Drained { sessions: u64::MAX };
    pin!(cases, "response/drained", WireResponse, drained);

    pin!(cases, "analysis/paper", Analysis, analysis(paper.clone()));
    let flat = gmaa_gen::generate(&GenConfig::preset(Family::Flat, 40, 10, 5));
    pin!(cases, "analysis/flat-40x10", Analysis, analysis(flat));
    let mixed_750 = cycle(Family::Mixed, 750, 10, 3);
    pin!(cases, "cycle/mixed-750x10", DiscardCycle, mixed_750);
    let mixed_300 = cycle(Family::Mixed, 300, 12, 4);
    pin!(cases, "cycle/mixed-300x12", DiscardCycle, mixed_300);
    pin!(cases, "monte-carlo/paper", MonteCarloResult, monte_carlo());
    pin!(cases, "snapshot", SessionSnapshot, snapshot());
    for (name, e) in store_errors() {
        pin!(cases, name, StoreError, e);
    }
    let perf = JournalRecord::SetPerf(3, AttributeId::from_index(1), Perf::Range(-0.0, 2.5));
    pin!(cases, "journal/set-perf", JournalRecord, perf);
    let weight = JournalRecord::SetWeight(model.tree.root(), Interval::new(0.0, 1.0));
    pin!(cases, "journal/set-weight", JournalRecord, weight);

    // Non-finite floats encode as `null`, which does not decode back
    // into an f64: encode-only.
    let non_finite = ServeError::Model(ModelError::ValueOutOfRange {
        alternative: "a".into(),
        attribute: "x".into(),
        value: f64::NAN,
    });
    let infinite = Perf::Range(f64::NEG_INFINITY, f64::INFINITY);
    cases.push_encode_only(
        "encode-only/non-finite",
        serde_json::to_string(&non_finite).expect("error encodes")
            + &serde_json::to_string(&infinite).expect("perf encodes"),
    );

    // The workspace document format (`gmaa save-paper`).
    let pretty = serde_json::to_string_pretty(&paper).expect("model encodes");
    let back: DecisionModel = serde_json::from_str(&pretty).expect("pretty model decodes");
    assert_eq!(
        serde_json::to_string_pretty(&back).expect("model re-encodes"),
        pretty,
        "pretty model: encode(decode(bytes)) != bytes"
    );
    cases.push_encode_only("pretty/paper-model", pretty);
    cases
}

fn render(cases: &Cases) -> String {
    let mut out = String::from("# case bytes fnv1a (compact JSON unless named pretty/)\n");
    for case in &cases.0 {
        writeln!(
            out,
            "{}\t{}\t{:016x}",
            case.name,
            case.json.len(),
            fnv1a(case.json.as_bytes())
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[test]
fn wire_codec_bytes_match_the_golden_digests() {
    let cases = all_cases();
    assert!(
        cases.0.iter().filter(|c| c.round_trip).count() > 50,
        "every variant is pinned and round-tripped"
    );
    let actual = render(&cases);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "wire bytes moved");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "case list changed"
    );
}

/// `Analysis` and `Cycle` replies recorded while `PotentialOutcome` and
/// `IntensityRank` still carried a `name` beside their `alternative`
/// index. The decoder skips the unknown key, and what it reads
/// re-encodes to exactly the reply served now.
#[test]
fn replies_with_outcome_names_still_decode() {
    let paper = neon_reuse::paper_model().model;
    let paper_cycle = engine(paper.clone(), 1)
        .discard_cycle()
        .expect("cycle runs");
    let replies = [
        (
            "analysis-paper",
            Response::Analysis(Box::new(analysis(paper))),
        ),
        ("cycle-paper", Response::Cycle(Box::new(paper_cycle))),
    ];
    for (name, reply) in replies {
        let path = format!(
            "{}/tests/fixtures/named_replies/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let old = std::fs::read_to_string(&path).expect("recorded reply present");
        for key in [
            r#"{"alternative":0,"name":"COMM","potentially_optimal":true,"#,
            r#""name":"Media Ontology","intensity":"#,
        ] {
            assert!(old.contains(key), "{name}: recorded reply lacks {key}");
        }
        let decoded: WireResponse = serde_json::from_str(&old)
            .unwrap_or_else(|e| panic!("{name}: recorded reply does not decode: {e}"));
        let fresh = serde_json::to_string(&WireResponse::Ok(reply)).expect("reply encodes");
        assert!(!fresh.contains(r#""name":"COMM","potentially_optimal""#));
        assert_eq!(
            serde_json::to_string(&decoded).expect("decoded reply re-encodes"),
            fresh,
            "{name}: the recorded reply decodes to a different reply"
        );
    }
}
