//! Chaos test: the dirty-telemetry acceptance gate.
//!
//! Generates a trace, injects faults from a pinned, seed-driven
//! [`iotax_sim::FaultPlan`] (the same plan CI runs), ingests the damaged
//! directory leniently, and *scores* recovery against the ground-truth
//! fault manifest:
//!
//! * every unsalvageable file is quarantined, everything else loads;
//! * ≥ 90 % of the records preceding a truncation point are recovered;
//! * transiently-unreadable files are retried, not lost;
//! * the full five-stage taxonomy completes on the salvaged trace with at
//!   most `Degraded` stage status — never an error, never a panic.

#![expect(
    clippy::let_underscore_must_use,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]

use iotax_cli::{
    export_trace, ingest_trace, ingest_trace_with_reader, inject_faults,
    simulated_transient_reader, IngestOptions,
};
use iotax_core::TaxonomyRun;
use iotax_sim::{FaultKind, FaultPlan, Platform, SimConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Pinned chaos parameters — CI runs the binaries with the same values.
const CHAOS_SEED: u64 = 20_220_914; // SC'22 camera-ready week
const CHAOS_RATE: f64 = 0.20;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotax-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn chaos_20pct_corruption_salvages_quarantines_and_degrades_gracefully() {
    let dir = temp_dir("main");
    let ds = Platform::new(SimConfig::theta().with_jobs(1_200).with_seed(301)).generate();
    let n = export_trace(&ds, &dir).expect("export");
    assert_eq!(n, 1_200);

    let plan = FaultPlan::new(CHAOS_SEED, CHAOS_RATE);
    let manifest = inject_faults(&dir, &plan).expect("inject");
    assert_eq!(manifest.jobs_seen, 1_200);
    let observed_rate = manifest.faults.len() as f64 / 1_200.0;
    assert!(
        (observed_rate - CHAOS_RATE).abs() < 0.05,
        "fault rate drifted: {observed_rate} vs {CHAOS_RATE}"
    );

    // Strict mode refuses the dirty trace outright.
    assert!(
        ingest_trace(&dir, &IngestOptions::strict()).is_err(),
        "strict ingest must fail fast on a 20 % corrupted trace"
    );

    // Lenient ingest, with the manifest driving simulated transient reads.
    let reader = simulated_transient_reader(manifest.clone());
    let opts = IngestOptions { backoff_base_ms: 0, ..Default::default() };
    let (jobs, report) = ingest_trace_with_reader(&dir, &opts, &reader).expect("lenient ingest");
    assert_eq!(report.total_files, 1_200);
    assert_eq!(jobs.len() + report.quarantined.len(), 1_200, "every file accounted for");

    // 1. Quarantine exactness: every quarantined file was genuinely
    //    faulted, and every fault that destroys the header (unsalvageable
    //    by design) is quarantined.
    for q in &report.quarantined {
        assert!(
            manifest.fault_for(q.job_id).is_some(),
            "job {} quarantined without an injected fault: {}",
            q.job_id,
            q.reason
        );
    }
    let quarantined: Vec<u64> = report.quarantined.iter().map(|q| q.job_id).collect();
    for f in manifest.faults.iter().filter(|f| f.header_destroyed) {
        assert!(
            quarantined.contains(&f.job_id),
            "job {} header destroyed but not quarantined",
            f.job_id
        );
    }

    // 2. Salvage recall ≥ 90 % of records before each truncation point,
    //    scored against the ground truth.
    let notes: BTreeMap<u64, u64> =
        report.salvage_notes.iter().map(|s| (s.job_id, s.records_recovered)).collect();
    let mut recoverable = 0u64;
    let mut recovered = 0u64;
    let mut truncations = 0;
    for f in &manifest.faults {
        if f.kind != FaultKind::Truncate || f.header_destroyed {
            continue;
        }
        truncations += 1;
        recoverable += f.records_before_cut.expect("truncate records ground truth");
        recovered += notes.get(&f.job_id).copied().unwrap_or(0);
    }
    assert!(truncations > 10, "chaos seed produced too few truncations: {truncations}");
    if recoverable > 0 {
        let recall = recovered as f64 / recoverable as f64;
        assert!(
            recall >= 0.90,
            "salvage recall {recall:.3} < 0.90 ({recovered}/{recoverable} records, \
             {truncations} truncated files)"
        );
    }

    // 3. Transient files were recovered by retry, never quarantined.
    let transient: Vec<u64> = manifest
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::TransientUnreadable)
        .map(|f| f.job_id)
        .collect();
    assert!(!transient.is_empty(), "chaos seed produced no transient faults");
    for id in &transient {
        assert!(!quarantined.contains(id), "transient job {id} wrongly quarantined");
    }
    assert!(report.retries > 0);
    assert!(report.transient_recovered as usize >= transient.len());

    // 4. The five-stage taxonomy completes on the salvaged trace: every
    //    stage at most Degraded, never an error.
    let rds = iotax_cli::trace_to_dataset(&jobs);
    let taxonomy = TaxonomyRun::new(&rds)
        .baseline()
        .expect("baseline on salvaged trace")
        .app_litmus()
        .expect("app litmus on salvaged trace")
        .system_litmus()
        .expect("system litmus on salvaged trace")
        .ood()
        .expect("ood on salvaged trace")
        .noise_floor()
        .expect("noise floor on salvaged trace")
        .finish();
    assert_eq!(taxonomy.stages.len(), 5, "all five stages report health");
    assert!(taxonomy.baseline_median_error_pct > 0.0);
    for st in &taxonomy.stages {
        if st.degraded {
            assert!(st.reason.is_some(), "{}: degraded without a reason", st.stage);
        }
    }

    // 5. The ingest report serializes as JSON lines (the CI artifact).
    let mut buf = Vec::new();
    report.write_jsonl(&mut buf).expect("jsonl");
    let text = String::from_utf8(buf).expect("utf8");
    assert!(text.lines().count() > report.quarantined.len());
    assert!(
        text.starts_with("{\"record\": \"summary\"") || text.starts_with("{\"record\":\"summary\"")
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_sweep_5_to_30_pct_always_completes() {
    for (tag, rate, seed) in [("low", 0.05, 61u64), ("high", 0.30, 62u64)] {
        let dir = temp_dir(tag);
        let ds = Platform::new(SimConfig::theta().with_jobs(400).with_seed(300 + seed)).generate();
        export_trace(&ds, &dir).expect("export");
        let manifest = inject_faults(&dir, &FaultPlan::new(seed, rate)).expect("inject");
        let reader = simulated_transient_reader(manifest);
        let opts = IngestOptions { backoff_base_ms: 0, ..Default::default() };
        let (jobs, report) =
            ingest_trace_with_reader(&dir, &opts, &reader).expect("lenient ingest");
        assert_eq!(jobs.len() + report.quarantined.len(), 400, "rate {rate}");
        assert!(
            jobs.len() >= (400.0 * (1.0 - rate)) as usize,
            "rate {rate}: only {} jobs survived — salvage should keep most faulted files",
            jobs.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeated_injection_is_byte_deterministic() {
    // Two traces generated and corrupted with identical seeds must be
    // byte-identical — the property CI relies on to make chaos repeatable.
    let mk = |tag: &str| {
        let dir = temp_dir(tag);
        let ds = Platform::new(SimConfig::theta().with_jobs(150).with_seed(303)).generate();
        export_trace(&ds, &dir).expect("export");
        inject_faults(&dir, &FaultPlan::new(CHAOS_SEED, CHAOS_RATE)).expect("inject");
        dir
    };
    let (a, b) = (mk("det-a"), mk("det-b"));
    let mut names: Vec<String> = std::fs::read_dir(a.join("logs"))
        .expect("read dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    assert_eq!(names.len(), 150);
    for name in &names {
        let bytes_a = std::fs::read(a.join("logs").join(name)).expect("read a");
        let bytes_b = std::fs::read(b.join("logs").join(name)).expect("read b");
        assert_eq!(bytes_a, bytes_b, "{name} differs between identically-seeded runs");
    }
    assert_eq!(
        std::fs::read(a.join("faults.json")).expect("manifest a"),
        std::fs::read(b.join("faults.json")).expect("manifest b")
    );
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
