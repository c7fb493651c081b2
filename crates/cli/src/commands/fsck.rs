//! `spammass fsck` — audit (and optionally repair) a state directory.
//!
//! Validates the three layers that must agree for `spammass update` to
//! warm-start safely: the CRC-guarded `MANIFEST`, every `gen-N/`
//! snapshot's checksummed images and cross-file invariants, and (with
//! `--journal`) the `SPAMDLT` delta journal. With `--repair true` it
//! additionally quarantines damaged generations, rewrites a graph image
//! that loaded only by rebuilding a CRC-failed section, re-points the
//! manifest at the newest valid snapshot, sweeps publication debris, and
//! truncates a torn journal tail.
//!
//! Exit status is the scripting contract: success only when the
//! directory is healthy (after repair, if requested). A damaged
//! directory fails with the full report on stderr.

use crate::args::ParsedArgs;
use crate::CliError;
use spammass_delta::{check_state, repair_state, StateDir};
use std::fmt::Write as _;
use std::path::Path;

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["state", "journal", "repair", "trace", "metrics-out"])?;
    let state = StateDir::new(args.required("state")?);
    let journal = args.optional("journal").map(Path::new);
    let repair: bool = args.parsed_or("repair", false)?;

    let report =
        if repair { repair_state(&state, journal)? } else { check_state(&state, journal)? };

    let mut out = format!("fsck {}\n{report}\n", state.path().display());
    if report.is_healthy() {
        return Ok(out);
    }
    if report.recoverable() && !repair {
        let _ = writeln!(
            out,
            "hint: a valid snapshot survives — run `spammass fsck --state {} --repair true`",
            state.path().display()
        );
    }
    // Damage is a failure exit so scripts can gate on it; the report
    // itself is the error message.
    Err(CliError::Format(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spammass_delta::JournalWriter;
    use spammass_graph::{GraphBuilder, NodeId};
    use std::fs;

    fn parse(parts: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn seeded_state(tag: &str) -> std::path::PathBuf {
        let root = crate::test_dir(&format!("fsck-{tag}"));
        let state = StateDir::new(root.join("state"));
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p = vec![0.25; 4];
        state.save(&g, &[NodeId(0)], &p, &p).unwrap();
        state.save(&g, &[NodeId(0)], &p, &p).unwrap();
        root
    }

    #[test]
    fn healthy_directory_passes() {
        let d = seeded_state("ok");
        let args = parse(&["fsck", "--state", d.join("state").to_str().unwrap()]);
        let out = run(&args).unwrap();
        assert!(out.contains("verdict: healthy"), "{out}");
        assert!(out.contains("manifest: ok (generation 2)"), "{out}");
    }

    #[test]
    fn damaged_directory_fails_then_repairs() {
        let d = seeded_state("repair");
        let state_path = d.join("state");
        // Tear the published generation's graph image.
        let victim = state_path.join("gen-0002").join(StateDir::GRAPH_FILE);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let check = parse(&["fsck", "--state", state_path.to_str().unwrap()]);
        match run(&check) {
            Err(CliError::Format(msg)) => {
                assert!(msg.contains("gen-0002: DAMAGED"), "{msg}");
                assert!(msg.contains("--repair true"), "{msg}");
            }
            other => panic!("expected damage failure, got {other:?}"),
        }

        let repair = parse(&["fsck", "--state", state_path.to_str().unwrap(), "--repair", "true"]);
        let out = run(&repair).unwrap();
        assert!(out.contains("verdict: healthy"), "{out}");
        assert!(out.contains("quarantined gen-0002"), "{out}");
        assert!(out.contains("re-pointed manifest at generation 1"), "{out}");
        // And the directory is loadable again.
        assert!(StateDir::new(&state_path).load().is_ok());
    }

    #[test]
    fn journal_is_audited_and_truncated() {
        let d = seeded_state("journal");
        let state_path = d.join("state");
        let jp = d.join("delta.journal");
        let mut w = JournalWriter::new();
        w.append_batch(&[spammass_delta::DeltaRecord::AddNode { node: NodeId(9) }]);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xAB; 7]); // garbage tail
        fs::write(&jp, &bytes).unwrap();

        let check = parse(&[
            "fsck",
            "--state",
            state_path.to_str().unwrap(),
            "--journal",
            jp.to_str().unwrap(),
        ]);
        assert!(matches!(run(&check), Err(CliError::Format(_))));

        let repair = parse(&[
            "fsck",
            "--state",
            state_path.to_str().unwrap(),
            "--journal",
            jp.to_str().unwrap(),
            "--repair",
            "true",
        ]);
        let out = run(&repair).unwrap();
        assert!(out.contains("truncated journal"), "{out}");
        let repaired = fs::read(&jp).unwrap();
        assert_eq!(spammass_delta::read_journal(&repaired).unwrap().len(), 1);
    }

    #[test]
    fn fsck_requires_state() {
        let args = parse(&["fsck"]);
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }
}
