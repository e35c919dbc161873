//! Integration tests for the `gmaa` command-line binary, driven through the
//! compiled executable (`CARGO_BIN_EXE_gmaa`).

use std::process::{Command, Output};

fn gmaa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmaa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn hierarchy_command_prints_fig1() {
    let out = gmaa(&["hierarchy"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Understandability"));
    assert!(text.contains("[funct_requir]"));
    assert_eq!(text.lines().count(), 19);
}

#[test]
fn ranking_command_prints_fig6_top() {
    let out = gmaa(&["ranking"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let media = text.find("Media Ontology").expect("present");
    let kanzaki = text.find("Kanzaki Music").expect("present");
    assert!(media < kanzaki);
}

#[test]
fn rank_by_objective_works_and_rejects_unknown() {
    let out = gmaa(&["rank-by", "understandability"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("Ranking by: Understandability"));

    let bad = gmaa(&["rank-by", "nope"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown objective"));
}

#[test]
fn utility_and_weights_commands() {
    let u = gmaa(&["utility", "purpose_rel"]);
    assert!(u.status.success());
    assert!(stdout(&u).contains("project"));

    let w = gmaa(&["weights"]);
    assert!(w.status.success());
    assert!(stdout(&w).contains("Financial cost of reuse"));
}

#[test]
fn montecarlo_with_small_trials() {
    let out = gmaa(&["--trials", "200", "--seed", "7", "montecarlo"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("200 trials"));
    assert!(text.contains("b^1")); // acceptability table
}

#[test]
fn intensity_command_ranks_all() {
    let out = gmaa(&["intensity"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 23);
    assert!(text
        .lines()
        .next()
        .expect("non-empty")
        .contains("Media Ontology"));
}

/// The potential and intensity verdicts carry only an alternative index;
/// the lines that print them still name each alternative, in the same
/// order as when the verdicts carried the names themselves.
#[test]
fn potential_and_intensity_lines_name_the_alternatives() {
    let potential = stdout(&gmaa(&["potential"]));
    let mut lines = potential.lines();
    assert_eq!(lines.next(), Some("Non-dominated: 13 of 23"));
    let by_model: Vec<&str> = lines.map(|l| l[..24].trim_end()).collect();
    assert_eq!(
        by_model,
        [
            "COMM",
            "MPEG7 Hunter",
            "MPEG-7X",
            "SAPO",
            "DIG35",
            "CSO",
            "AceMedia VDO",
            "VRACORE3 ASSEM",
            "Boemie VDO",
            "Audio Ontology",
            "Media Ontology",
            "Kanzaki Music",
            "Music Ontology",
            "Music Rights",
            "Open Drama",
            "MPEG7 MDS",
            "VraCore3 Simile",
            "Nokia Ontology",
            "SRO",
            "Device Ontology",
            "MPEG7 Ontology",
            "Photography Ontology",
            "M3O",
        ]
    );
    assert!(potential.contains("Kanzaki Music            potentially optimal: false slack -0.1117"));

    let intensity = stdout(&gmaa(&["intensity"]));
    let by_rank: Vec<&str> = intensity.lines().map(|l| l[5..29].trim_end()).collect();
    assert_eq!(
        by_rank,
        [
            "Media Ontology",
            "Boemie VDO",
            "COMM",
            "SAPO",
            "DIG35",
            "CSO",
            "Audio Ontology",
            "MPEG-7X",
            "AceMedia VDO",
            "MPEG7 Hunter",
            "VraCore3 Simile",
            "VRACORE3 ASSEM",
            "Music Ontology",
            "MPEG7 MDS",
            "Device Ontology",
            "SRO",
            "Music Rights",
            "M3O",
            "Nokia Ontology",
            "Open Drama",
            "Kanzaki Music",
            "Photography Ontology",
            "MPEG7 Ontology",
        ]
    );
    assert!(intensity.starts_with("  1. Media Ontology           intensity +4.6068\n"));

    let analyze = stdout(&gmaa(&["--trials", "100", "analyze"]));
    assert!(analyze.contains(
        "Non-dominated: 13; potentially optimal: 13; discarded: [\"Kanzaki Music\", \
         \"Music Ontology\", \"Music Rights\", \"Open Drama\", \"MPEG7 MDS\", \
         \"Nokia Ontology\", \"Device Ontology\", \"MPEG7 Ontology\", \
         \"Photography Ontology\", \"M3O\"]"
    ));
}

#[test]
fn no_command_fails_with_usage() {
    let out = gmaa(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn zero_trials_is_a_usage_error_not_a_panic() {
    let out = gmaa(&["--trials", "0", "analyze"]);
    assert!(!out.status.success());
    assert_ne!(out.status.code(), Some(101), "exit code of a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trials"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn save_and_reload_workspace_via_cli() {
    let dir = std::env::temp_dir().join(format!("gmaa-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_string_lossy().into_owned();

    let save = gmaa(&["save-paper", &dirs]);
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(dir.join("multimedia.json").exists());

    // Read it back through the workspace path.
    let out = gmaa(&["--workspace", &dirs, "--model", "multimedia", "ranking"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("Media Ontology"));

    let missing = gmaa(&["--workspace", &dirs, "--model", "nope", "ranking"]);
    assert!(!missing.status.success());
}
