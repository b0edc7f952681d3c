//! Tiny-size runs of every workload, untraced and traced, on two seeds,
//! and the injected wrong output that each workload must refuse.

use std::path::PathBuf;
use std::sync::Mutex;

use ninja_kernels::ProblemSize;
use ninja_perfbench::{run, Config, Workload};

/// Tracing is process-global, so runs in this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn config(workload: Workload, seed: u64, trace: bool, inject_wrong: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.3,
        trace,
        size: ProblemSize::Test,
        inject_wrong,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{seed}")),
    }
}

#[test]
fn every_workload_runs_clean_on_two_seeds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for seed in [1, 2] {
            for trace in [false, true] {
                let cfg = config(workload, seed, trace, false);
                let out = run(&cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert_eq!(out.tally.failed, 0, "{cfg:?}");
                let line = out
                    .json_line(trace)
                    .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                if trace {
                    let file = cfg
                        .trace_dir
                        .join(format!("trace-{}.json", workload.name()));
                    let json = std::fs::read_to_string(&file).expect("chrome trace written");
                    assert!(json.contains("\"ph\":\"B\""), "{}", file.display());
                    assert!(out.lines.iter().any(|l| l.starts_with("self time")));
                }
            }
        }
    }
}

#[test]
fn an_injected_wrong_output_fails_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = config(workload, 3, trace, true);
            let err = run(&cfg).expect_err("a wrong output must fail the run");
            assert!(
                err.contains("disagree") || err.contains("failed validation"),
                "{workload:?}: {err}"
            );
        }
    }
}

/// The command line: a clean run ends with the result line and exits 0;
/// a wrong output exits 1 without one; bad input exits 2.
#[test]
fn exit_codes_of_the_command() {
    let bench = |args: &[&str], isa: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_ninja-perfbench"));
        cmd.args(args).env_remove("NINJA_ISA");
        if let Some(isa) = isa {
            cmd.env("NINJA_ISA", isa);
        }
        let out = cmd.output().expect("benchmark binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let base = [
        "--workload",
        "serve-closed",
        "--seed",
        "4",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--size",
        "test",
    ];
    let (code, stdout) = bench(&base, None);
    assert_eq!(code, Some(0), "{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );

    let (code, stdout) = bench(&[&base[..], &["--inject-wrong"]].concat(), None);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(!stdout.contains("\"correct\""), "{stdout}");

    assert_eq!(bench(&base[..6], None).0, Some(2), "--trace is required");
    assert_eq!(bench(&[&base[..], &["--bogus"]].concat(), None).0, Some(2));
    assert_eq!(bench(&base, Some("bogus")).0, Some(2), "invalid NINJA_ISA");
}
