//! `fasda repro`: its command line, and EXPERIMENTS.md as what it prints.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fasda-cli")).arg("repro").args(args).output().expect("spawn fasda-cli")
}

/// A bad command line exits 1 naming what is wrong, before any table runs:
/// nothing on stdout, and far sooner than the shortest figure.
#[test]
fn bad_command_lines_exit_1_before_running_anything() {
    for (args, names) in [
        (&["fig16", "--help"][..], "unknown option '--help'"),
        (&["fig17", "--steps", "--serial"], "--steps needs a value"),
        (&["fig99"], "unknown figure or table 'fig99' (one of: fig16, fig17, fig18, table1, fig19, ablate_sync, ablate_interp, ablate_filters, ablate_topology, ablate_cellsize, fig16.weak"),
        (&[], "repro needs a figure or table: fig16, "),
        (&["table1", "--steps", "2"], "repro table1 does not read --steps"),
        (&["fig16.gpu", "--serial"], "repro fig16.gpu does not read --serial"),
        (&["fig16", "--steps", "0"], "--steps must be a whole number >= 1"),
        (&["fig19", "--interval", "x"], "--interval must be a whole number >= 1"),
        (&["ablate_sync", "--space", "4"], "per_fpga"),
        (&["fig19", "--space", "2"], "total"),
        (&["fig19", "--space", "4096"], "--space must be at most 12"),
    ] {
        let started = Instant::now();
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(names), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
        assert!(started.elapsed() < Duration::from_secs(20), "{args:?} took {:?}", started.elapsed());
    }
}

/// The file whose generated regions this checks, and how it marks them.
const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
const BEGIN: &str = "\n<!-- generated: fasda-cli repro ";
const END: &str = "<!-- end generated -->";

/// Every generated region of EXPERIMENTS.md is what the command in its
/// marker prints today. Full size: CI's release step runs it, with
/// `cargo test --release -p fasda-cli --test repro -- --ignored`.
#[test]
#[ignore = "full size; run in release with --ignored"]
fn experiments_md_is_what_repro_prints() {
    let doc = std::fs::read_to_string(EXPERIMENTS).expect("read EXPERIMENTS.md");
    let mut rest = doc.as_str();
    let (mut regions, mut diffs) = (0, String::new());
    while let Some(at) = rest.find(BEGIN) {
        let (marker, body) = rest[at + BEGIN.len()..].split_once(" -->\n").expect("a whole BEGIN marker");
        let (region, after) = body.split_once(END).expect("an END marker for every BEGIN");
        rest = after;
        regions += 1;
        let args: Vec<&str> = marker.split_whitespace().collect();
        let out = repro(&args);
        assert!(out.status.success(), "repro {marker}: {}", String::from_utf8_lossy(&out.stderr));
        let printed = String::from_utf8(out.stdout).expect("UTF-8 output");
        let (want, got) = (printed.trim(), region.trim());
        if want != got {
            diffs += &format!("\nrepro {marker}:\n");
            let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
            for i in 0..want.len().max(got.len()) {
                let (w, g) = (want.get(i).copied().unwrap_or(""), got.get(i).copied().unwrap_or(""));
                if w != g {
                    diffs += &format!("- {g}\n+ {w}\n");
                }
            }
        }
    }
    assert!(regions >= 10, "EXPERIMENTS.md has only {regions} generated regions");
    assert!(diffs.is_empty(), "EXPERIMENTS.md differs from what repro prints (- file, + printed):{diffs}");
}
