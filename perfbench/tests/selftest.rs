//! Reduced-size self-test of every workload, timed and traced: the
//! metric names and units match `BENCHMARK.json`, every answer verifies,
//! and every multi-process run equals its in-process twin bit for bit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::Outcome;
use perfbench::workloads::{self, Options, Workload, WORKLOADS};
use std::path::PathBuf;
use std::sync::Mutex;

/// The workloads share two cores and the socket directory: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(w: Workload, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Relative, so the socket paths stay short; cargo runs integration
    // tests from the package root.
    std::fs::create_dir_all(".bench_tmp").expect("socket dir");
    std::env::set_var("TMPDIR", ".bench_tmp");
    let opt = Options {
        seed: 3,
        seconds: 0.5,
        trace,
        child: dtm_net::ChildCommand {
            exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
            prefix_args: vec!["net-child".to_string()],
        },
        span_file: None,
    };
    workloads::run(&w.reduced(), &opt).expect("workload runs")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in order.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let k = format!("\"{key}\": \"");
        let i = s.find(&k)? + k.len();
        let j = s[i..].find('"')?;
        Some((s[i..i + j].to_string(), i + j))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let (unit, end) = field(rest, "unit").expect("unit follows name");
        rest = &rest[end..];
        out.push((name, unit));
    }
    out
}

fn reported(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn check(w: Workload) {
    let timed = run(w, false);
    assert!(timed.correct, "{}: {:?}", w.name, timed.problems);
    assert_eq!(timed.failed, 0, "{}", w.name);
    assert_eq!(reported(&timed), listed("end_to_end"), "{}", w.name);
    let vf = timed.metric("verified_frac").expect("verified_frac");
    assert_eq!(vf.value, 1.0, "{}", w.name);
    for m in &timed.metrics {
        assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
    }
    timed.to_json().expect("finite result line");

    let traced = run(w, true);
    assert!(traced.correct, "{}: {:?}", w.name, traced.problems);
    assert_eq!(traced.failed, 0, "{}", w.name);
    assert_eq!(reported(&traced), listed("per_layer"), "{}", w.name);
    // Every traced run checks a solve over the workload's processes and
    // one over two peer-linked processes against their in-process twin,
    // and its replay against it.
    assert!(traced.twin_checks >= 3, "{}", w.name);
    for m in &traced.metrics {
        assert!(m.value.is_finite(), "{}: {}", w.name, m.name);
    }
    traced.to_json().expect("finite result line");
}

#[test]
fn cold_reduced() {
    check(WORKLOADS[0]);
}

#[test]
fn dist_reduced() {
    let w = WORKLOADS[1];
    check(w);
    // The round executor repeats its work exactly from request to request.
    let traced = run(w, true);
    assert_eq!(
        traced.metric("core.solves_iqr_frac").map(|m| m.value),
        Some(0.0)
    );
    // Beyond the probe and the replay, the traced stream checks each
    // request against its twin.
    assert!(traced.twin_checks > 3);
}
