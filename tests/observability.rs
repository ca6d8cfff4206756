//! End-to-end observability: a taxonomy run recorded through a run
//! ledger must come back from `run.json` as a well-formed span tree — the
//! same record `iotax-analyze --ledger` writes for operators.

use iotax::obs::{assemble_span_tree, load_run, Ledger};
use iotax::sim::{Platform, SimConfig};

const STAGES: [&str; 5] =
    ["core.baseline", "core.app_litmus", "core.system_litmus", "core.ood", "core.noise_floor"];

/// One test drives the whole flow; the global sink is process-wide state,
/// so this file deliberately holds a single #[test].
#[test]
fn taxonomy_span_tree_round_trips_through_run_json() {
    let dir = std::env::temp_dir().join(format!("iotax-obs-e2e-{}", std::process::id()));
    let ledger = Ledger::create(&dir, "observability", "0.0.0", Vec::new()).expect("ledger dir");
    let previous = iotax::obs::set_sink(ledger.sink());
    let dataset = Platform::new(SimConfig::theta().with_jobs(1_200).with_seed(90)).generate();
    let report = iotax::core::Taxonomy::quick().run(&dataset);
    iotax::obs::restore_sink(previous);
    ledger.finish(0).expect("writing run.json");

    // The record reads back with its spans and counters.
    let run = load_run(&dir).expect("reading run.json back");
    let spans = &run.spans;
    let counter_names: Vec<&str> = run.counters.iter().map(|c| c.name.as_str()).collect();

    // The generation phases and the instrumented hot loops all reported.
    assert!(spans.iter().any(|s| s.name == "sim.generate"), "simulator span missing");
    for counter in ["sim.jobs_generated", "core.duplicate_sets_found", "ml.gbm.trees_fit"] {
        assert!(counter_names.contains(&counter), "{counter} missing");
    }

    // The reassembled forest contains all five taxonomy stages, in order.
    let forest = assemble_span_tree(spans);
    let stage_roots: Vec<&iotax::obs::SpanNode> =
        forest.iter().filter(|n| n.name.starts_with("core.")).collect();
    let names: Vec<&str> = stage_roots.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(names, STAGES, "stage spans wrong or out of order");

    // Nesting: the grid search ran inside the app litmus stage.
    let app = stage_roots[1];
    assert!(
        app.children.iter().any(|c| c.name == "core.grid_search"),
        "grid search not nested under app_litmus: {:?}",
        app.children.iter().map(|c| &c.name).collect::<Vec<_>>()
    );

    // Timestamps are monotonic: stages open in sequence, children open
    // after their parent and close within its window.
    for pair in stage_roots.windows(2) {
        assert!(pair[0].start_us + pair[0].duration_us <= pair[1].start_us + 1);
    }
    for root in &stage_roots {
        for child in &root.children {
            assert!(child.start_us >= root.start_us);
            assert!(child.start_us + child.duration_us <= root.start_us + root.duration_us + 1);
        }
    }

    // And the report's embedded timings agree with what the ledger saw.
    let embedded: Vec<&str> = report.timings.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(embedded, STAGES);

    let _ = std::fs::remove_dir_all(&dir);
}
