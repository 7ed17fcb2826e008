//! Tests of the benchmark's own helper logic.

use c2nn_perfbench::prom::{histogram_mean, Scrape};
use c2nn_perfbench::report::Outcome;
use c2nn_perfbench::rng::Rng;
use c2nn_perfbench::stats::{
    beyond, harmonic_mean, median, percentile, supports, weighted_percentile, windowed_percentile,
};
use c2nn_perfbench::trace::{covered, reduce, union_len, Span};
use c2nn_perfbench::{catalog, provenance};

#[test]
fn percentile_uses_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.90), 90.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(100, 0.90), 10);
    assert!(supports(100, 0.90));
    assert!(!supports(99, 0.90));
    // about 600 samples: p90 is the highest of p50/p90/p99 that holds
    assert!(supports(600, 0.90));
    assert!(!supports(600, 0.99));
    assert!(supports(1000, 0.99));
    assert!(!supports(0, 0.5));
}

#[test]
fn harmonic_mean_over_equal_budgets_is_total_work_over_total_time() {
    let work = 1e9;
    let times = [1.0, 2.0, 4.0];
    let rates: Vec<f64> = times.iter().map(|t| work / t).collect();
    let total = 3.0 * work / times.iter().sum::<f64>();
    assert!((harmonic_mean(&rates) - total).abs() < 1e-3);
    assert_eq!(harmonic_mean(&[]), 0.0);
    assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
}

#[test]
fn windowed_percentile_ignores_a_slow_stretch_in_a_minority_of_windows() {
    // 100 samples in 5 windows of 20; values 1..=20 in each window
    let steady: Vec<(usize, f64)> = (0..100).map(|i| (i, (i % 20 + 1) as f64)).collect();
    assert_eq!(windowed_percentile(&steady, 100, 5, 0.5), 10.0);
    assert_eq!(windowed_percentile(&steady, 100, 5, 0.9), 18.0);
    // a backlog across windows 1 and 2 leaves the median window untouched
    let slow: Vec<(usize, f64)> = steady
        .iter()
        .map(|&(i, x)| (i, if (20..60).contains(&i) { x * 10.0 } else { x }))
        .collect();
    assert_eq!(windowed_percentile(&slow, 100, 5, 0.9), 18.0);
    // pooled, the same stretch moves p90 tenfold
    let mut pooled: Vec<f64> = slow.iter().map(|&(_, x)| x).collect();
    pooled.sort_by(f64::total_cmp);
    assert!(percentile(&pooled, 0.9) >= 100.0);
    // no samples: every window reads 0
    assert_eq!(windowed_percentile(&[], 100, 5, 0.5), 0.0);
}

#[test]
fn weighted_percentile_is_nearest_rank_over_the_weights() {
    // as 70 samples of 1, 21 of 2 and 9 of 5
    let pairs = [(5.0, 9.0), (1.0, 70.0), (2.0, 21.0)];
    assert_eq!(weighted_percentile(&pairs, 0.5), 1.0);
    assert_eq!(weighted_percentile(&pairs, 0.7), 1.0);
    assert_eq!(weighted_percentile(&pairs, 0.9), 2.0);
    assert_eq!(weighted_percentile(&pairs, 0.95), 5.0);
    let expanded: Vec<f64> = [(1.0, 70), (2.0, 21), (5.0, 9)]
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
        .collect();
    for q in [0.5, 0.7, 0.9, 0.95] {
        assert_eq!(weighted_percentile(&pairs, q), percentile(&expanded, q));
    }
    assert_eq!(weighted_percentile(&[], 0.5), 0.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

const BEFORE: &str = "\
# TYPE c2nn_request_latency_seconds histogram
c2nn_request_latency_seconds_bucket{model=\"uart\",le=\"+Inf\"} 10
c2nn_request_latency_seconds_sum{model=\"uart\"} 0.5
c2nn_request_latency_seconds_count{model=\"uart\"} 10
c2nn_request_latency_seconds_sum{model=\"aes\"} 9
c2nn_request_latency_seconds_count{model=\"aes\"} 3
# TYPE c2nn_serve_wire_bytes_total counter
c2nn_serve_wire_bytes_total{codec=\"json\",direction=\"in\"} 100
c2nn_serve_wire_bytes_total{codec=\"json\",direction=\"out\"} 200
";

const AFTER: &str = "\
# TYPE c2nn_request_latency_seconds histogram
c2nn_request_latency_seconds_bucket{model=\"uart\",le=\"+Inf\"} 70
c2nn_request_latency_seconds_sum{model=\"uart\"} 1.7
c2nn_request_latency_seconds_count{model=\"uart\"} 70
c2nn_request_latency_seconds_sum{model=\"aes\"} 99
c2nn_request_latency_seconds_count{model=\"aes\"} 4
# TYPE c2nn_serve_wire_bytes_total counter
c2nn_serve_wire_bytes_total{codec=\"json\",direction=\"in\"} 150
c2nn_serve_wire_bytes_total{codec=\"json\",direction=\"out\"} 260
";

#[test]
fn histogram_mean_is_sum_delta_over_count_delta() {
    let (b, a) = (
        Scrape::parse(BEFORE).unwrap(),
        Scrape::parse(AFTER).unwrap(),
    );
    let uart = histogram_mean(&b, &a, "c2nn_request_latency_seconds", &[("model", "uart")])
        .expect("observations in the window");
    assert!((uart - 1.2 / 60.0).abs() < 1e-12);
    // an unchanged histogram has no mean in the window
    assert_eq!(
        histogram_mean(&b, &b, "c2nn_request_latency_seconds", &[("model", "uart")]),
        None
    );
}

#[test]
fn scrape_sums_select_by_label_subset() {
    let (b, a) = (
        Scrape::parse(BEFORE).unwrap(),
        Scrape::parse(AFTER).unwrap(),
    );
    let bytes = "c2nn_serve_wire_bytes_total";
    assert_eq!(a.sum(bytes, &[]), 410.0);
    assert_eq!(a.delta(&b, bytes, &[("direction", "out")]), 60.0);
    assert_eq!(a.delta(&b, bytes, &[("codec", "binary")]), 0.0);
    assert!(Scrape::parse("broken{ 1").is_err());
}

fn span(name: &'static str, parent: Option<usize>, thread: u32, start_s: f64, end_s: f64) -> Span {
    Span {
        name,
        id: 0,
        parent,
        thread,
        start_s,
        end_s,
    }
}

#[test]
fn union_of_intervals_is_clipped_and_merged() {
    let mut iv = vec![(8.0, 12.0), (1.0, 3.0), (2.0, 5.0)];
    assert_eq!(union_len(&mut iv, 0.0, 10.0), 6.0);
    assert_eq!(union_len(&mut [], 0.0, 10.0), 0.0);
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("phase", None, 0, 0.0, 10.0),
        span("a", Some(0), 0, 1.0, 3.0),
        span("a", Some(0), 0, 2.0, 5.0),
        span("b", Some(0), 0, 8.0, 12.0),
        // a grandchild covers part of a child, not of the phase
        span("c", Some(2), 0, 2.5, 4.0),
    ];
    let t = reduce(&spans);
    assert_eq!(t["phase"].total_s, 10.0);
    assert_eq!(t["phase"].self_s, 4.0);
    assert_eq!(t["a"].count, 2);
    assert_eq!(t["a"].total_s, 5.0);
    assert_eq!(t["a"].self_s, 3.5);
    assert_eq!(t["c"].self_s, 1.5);
}

#[test]
fn coverage_counts_each_thread_separately() {
    let spans = vec![
        span("phase", None, 0, 0.0, 10.0),
        span("req", Some(0), 1, 0.0, 6.0),
        span("req", Some(0), 2, 4.0, 10.0),
    ];
    assert_eq!(covered(&spans, 0), 12.0);
}

#[test]
fn lengths_cover_the_range_with_a_seed_independent_total() {
    let a = Rng::new(1).lengths(1024, 32, 64);
    let b = Rng::new(2).lengths(1024, 32, 64);
    assert_ne!(a, b);
    assert_eq!(a.iter().sum::<usize>(), b.iter().sum::<usize>());
    assert_eq!(a.iter().min(), Some(&32));
    assert_eq!(a.iter().max(), Some(&64));
    assert_eq!(Rng::new(3).lengths(1, 16, 256), vec![16]);
}

#[test]
fn same_seed_same_stimulus() {
    let s1 = Rng::derive(7, &[1, 2]).stimulus(70, 5);
    let s2 = Rng::derive(7, &[1, 2]).stimulus(70, 5);
    let s3 = Rng::derive(7, &[1, 3]).stimulus(70, 5);
    assert_eq!(s1, s2);
    assert_ne!(s1, s3);
    assert_eq!(s1.cycles.len(), 5);
    assert!(s1.cycles.iter().all(|c| c.len() == 70));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut out = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        ..Outcome::default()
    };
    for (name, _) in catalog::END_TO_END {
        out.set(*name, 1.5);
    }
    let line = out.to_json_line(false);
    let v = c2nn_json::parse(&line).unwrap();
    let c2nn_json::Json::Obj(fields) = &v else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = v.get("metrics").unwrap();
    for (name, unit) in catalog::END_TO_END {
        let m = metrics.get(name).unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
    }
    // a traced line lists every per-layer metric instead
    let traced = c2nn_json::parse(&out.to_json_line(true)).unwrap();
    let c2nn_json::Json::Obj(layer) = traced.get("metrics").unwrap() else {
        panic!("metrics is not an object")
    };
    assert_eq!(layer.len(), catalog::per_layer().len());
}

/// `BENCHMARK.json` must declare exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_matches_the_catalog() {
    let text = std::fs::read_to_string(provenance::repo_root().join("BENCHMARK.json")).unwrap();
    let doc = c2nn_json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = catalog::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = catalog::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(workloads, ["regress", "interactive", "serve"]);
}
