//! Unit checks of the benchmark's own arithmetic and declarations.

use aps_perfbench::metrics::{END_TO_END, PER_LAYER};
use aps_perfbench::spans::{self_times, totals_by_name, Span, Tracer};
use aps_perfbench::stats::{median, percentile, tail, tail_at_most, valid_metric_name};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        pass: 0,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    // root [0,100] ⊃ a [10,40] ⊃ g [15,25]; root ⊃ b [50,60].
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("g", 15, 25, Some(1)),
        span("b", 50, 60, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    // Self times partition the root's wall time.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    let totals = totals_by_name(&spans, None);
    assert_eq!(totals["a"].total_ns, 30);
    assert_eq!(totals["a"].self_ns, 20);
    assert_eq!(totals["root"].count, 1);
}

#[test]
fn tracer_nests_spans_and_tags_passes() {
    let mut tr = Tracer::on();
    tr.set_pass(7);
    let root = tr.begin("root");
    let inner = tr.span("inner", || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        3
    });
    tr.end(root);
    assert_eq!(inner, 3);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans.iter().all(|s| s.pass == 7));
    assert!(spans[1].duration_ns() >= 2_000_000);
    assert_eq!(
        tr.self_ns(root),
        spans[0].duration_ns() - spans[1].duration_ns()
    );
    let mut jsonl = Vec::new();
    tr.write_jsonl(&mut jsonl).unwrap();
    assert_eq!(String::from_utf8(jsonl).unwrap().lines().count(), 2);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::off();
    let id = tr.begin("x");
    tr.span("y", || ());
    tr.end(id);
    assert!(tr.spans().is_empty());
    assert_eq!(tr.self_ns(id), 0);
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&v), Some(2.5));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 100.0), Some(4.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_is_highest_percentile_with_ten_samples_beyond() {
    let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<f64>>();
    assert_eq!(tail(&n(20_000)).map(|t| t.0), Some(99.9));
    assert_eq!(tail(&n(10_000)).map(|t| t.0), Some(99.9));
    assert_eq!(tail(&n(1_000)).map(|t| t.0), Some(99.0));
    assert_eq!(tail(&n(999)).map(|t| t.0), Some(95.0));
    assert_eq!(tail(&n(100)).map(|t| t.0), Some(90.0));
    assert_eq!(tail(&n(40)).map(|t| t.0), Some(75.0));
    assert_eq!(tail(&n(39)), None);
    // Capped at the requested percentile, falling back down the ladder
    // and finally to the median.
    assert_eq!(tail_at_most(&n(20_000), 99.0).map(|t| t.0), Some(99.0));
    assert_eq!(tail_at_most(&n(300), 99.0).map(|t| t.0), Some(95.0));
    assert_eq!(tail_at_most(&n(5), 99.0), Some((50.0, 2.0)));
}

#[test]
fn metric_names_follow_the_pattern() {
    for ok in [
        "setup_s",
        "sim.executor.emit_gap_p99_ms",
        "a-b.c_9",
        "9lives",
    ] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/y",
        "uni€",
        &"x".repeat(65),
    ] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
        assert!(seen.insert(*name), "{name} declared twice");
    }
}

/// `BENCHMARK.json` at the repository root declares exactly the
/// metrics the benchmark emits, with the same units.
#[test]
fn benchmark_json_matches_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let want: Vec<(String, String)> = declared
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed, want, "{key}");
    }
}
