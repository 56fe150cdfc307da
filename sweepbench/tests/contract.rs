//! `BENCHMARK.json` and the driver agree on every name; the statistics
//! match Python's; a wrong CSV row fails the run.

use chopin_obs::json::{self, JsonValue};
use chopin_sweepbench::stats::{median, quantile, Summary};
use chopin_sweepbench::timed::{differing_rows, run_rep};
use chopin_sweepbench::workloads::{permutation, END_TO_END, PER_LAYER, WORKLOADS};
use chopin_sweepbench::Outcome;
use std::path::Path;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn arr_of<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_match_the_driver() {
    let doc = benchmark_json();
    let workloads: Vec<(&str, &str)> = arr_of(&doc, "workloads")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let driver: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, driver);
    for (_, why) in &workloads {
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = arr_of(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (json, metric) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_of(json, "name"), metric.name);
        assert_eq!(str_of(json, "unit"), metric.unit);
        assert_eq!(str_of(json, "better"), metric.better.label());
        assert_eq!(json.get("bound").and_then(JsonValue::as_num), metric.bound);
    }
    let layers = arr_of(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (json, metric) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(str_of(json, "name"), metric.name);
        assert_eq!(str_of(json, "unit"), metric.unit);
        assert_eq!(str_of(json, "better"), metric.better.label());
    }

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(is_name(name), "`{name}` is not [A-Za-z0-9_.-]+");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");

    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
    let paths: Vec<&str> = arr_of(&doc, "paths")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(paths, ["sweepbench"]);
}

#[test]
fn quartiles_match_pythons_statistics_module() {
    // statistics.quantiles(v, n=4) and statistics.median(v), Python 3.11.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0], [1.25, 3.0, 4.75]),
        (&[0.5, 0.25, 0.125, 1.0, 2.0, 4.0, 8.0], [0.25, 1.0, 4.0]),
        (
            &[1.61, 1.80, 1.70, 1.72, 1.66, 1.75, 1.69, 1.77, 1.64, 1.73],
            [1.6549999999999998, 1.71, 1.755],
        ),
    ];
    for (values, [q1, q2, q3]) in cases {
        let s = Summary::of(values);
        for (got, want) in [(s.q1, q1), (s.median, q2), (s.q3, q3)] {
            assert!((got - want).abs() < 1e-12, "{values:?}: {got} != {want}");
        }
        assert_eq!(s.n, values.len());
    }
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
    assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
}

#[test]
fn permutation_is_a_seeded_shuffle_of_the_suite() {
    let one = permutation(1);
    assert_eq!(one, permutation(1), "same seed, same order");
    assert_ne!(one, permutation(2), "another seed, another order");
    let mut sorted = one.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 22);
}

#[test]
fn a_reference_with_one_changed_row_fails_the_run() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweepbench-contract");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A stand-in for runbms: a CSV on stdout, the summary line on stderr.
    let script = "printf 'benchmark,collector\\nfop,G1\\nfop,Serial\\n'; \
                  echo 'runbms: 2 cell(s), 2 completed (0 resumed, 0 infeasible), 0 retries' >&2";
    let args = vec!["-c".to_string(), script.to_string()];
    let good = b"benchmark,collector\nfop,G1\nfop,Serial\n";
    let bad = b"benchmark,collector\nfop,G1\nfop,Parallel\n";
    let stderr = dir.join("stderr.txt");

    let rep = run_rep(Path::new("sh"), &args, &dir, good, 2, &stderr).expect("sh runs");
    assert_eq!((rep.cells, rep.failed), (2, 0), "{:?}", rep.problem);
    assert!(rep.wall_s >= rep.setup_s && rep.setup_s > 0.0);
    assert_eq!(
        Outcome::new(rep.cells, rep.failed, Vec::new()).exit_code(),
        0
    );

    let rep = run_rep(Path::new("sh"), &args, &dir, bad, 2, &stderr).expect("sh runs");
    assert_eq!(rep.failed, 1, "the changed row counts as one failure");
    let outcome = Outcome::new(rep.cells, rep.failed, Vec::new());
    assert_eq!(outcome.exit_code(), 1);
    assert!(outcome
        .json_line()
        .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));

    let quarantined = "printf 'benchmark,collector\\n'; \
                       echo 'runbms: 2 cell(s), 1 completed (0 resumed, 0 infeasible), 2 retries' >&2";
    let args = vec!["-c".to_string(), quarantined.to_string()];
    let rep = run_rep(
        Path::new("sh"),
        &args,
        &dir,
        b"benchmark,collector\n",
        2,
        &stderr,
    )
    .expect("sh runs");
    assert_eq!(rep.failed, 1, "a cell missing from the summary line fails");

    let args = vec!["-c".to_string(), "exit 3".to_string()];
    let rep = run_rep(Path::new("sh"), &args, &dir, good, 2, &stderr).expect("sh runs");
    assert_eq!(rep.failed, 2, "a non-zero exit fails every cell");
}

#[test]
fn differing_rows_counts_changed_missing_and_extra_lines() {
    assert_eq!(differing_rows(b"a\nb\n", b"a\nb\n"), 0);
    assert_eq!(differing_rows(b"a\nc\n", b"a\nb\n"), 1);
    assert_eq!(differing_rows(b"a\n", b"a\nb\n"), 1);
    assert_eq!(differing_rows(b"a\nb\nc\n", b"a\nb\n"), 1);
}

#[test]
fn result_line_is_json_with_exactly_the_contract_keys() {
    let outcome = Outcome::new(
        1210,
        0,
        vec![
            ("sweep_s".to_string(), 1.8123456789, "s"),
            ("setup_s".to_string(), 0.0014, "s"),
        ],
    );
    let doc = json::parse(&outcome.json_line()).expect("valid JSON");
    let JsonValue::Obj(members) = &doc else {
        panic!("an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let sweep = doc
        .get("metrics")
        .and_then(|m| m.get("sweep_s"))
        .expect("sweep_s");
    assert_eq!(
        sweep.get("value").and_then(JsonValue::as_num),
        Some(1.8123456789)
    );
    assert_eq!(sweep.get("unit").and_then(JsonValue::as_str), Some("s"));
}
