//! Suite mode: every workload in its own child process of this binary,
//! and the `--repeat` repeatability table.

use crate::metrics::END_TO_END;
use crate::stats::median;
use crate::workloads::Workload;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child's result line, parsed back.
struct ChildResult {
    correct: bool,
    /// `name → (value, unit)`, in the order reported.
    metrics: Vec<(String, f64, String)>,
    json: String,
}

/// Reads the `"name": {"value": v, "unit": "u"}` entries of a result
/// object this binary printed.
fn parse_result(line: &str) -> Option<ChildResult> {
    let correct = crate::json::field(line, "correct")? == "true";
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let name = entry.trim_start_matches('"').split('"').next()?;
        let value = crate::json::field(entry, "value")?.parse().ok()?;
        let unit = crate::json::field(entry, "unit")?.trim_matches('"');
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    Some(ChildResult {
        correct,
        metrics,
        json: line.to_string(),
    })
}

fn run_child(workload: Workload, args: &Args, traced: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let child = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning a workload child");
    // Waits for the child to end, whatever it printed.
    let output = child.wait_with_output().expect("waiting for the child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(parse_result)?;
    Some(ChildResult {
        correct: result.correct && output.status.success(),
        ..result
    })
}

/// `(workload, metric) → one value per repetition`.
type Table = BTreeMap<(usize, String), (String, Vec<f64>)>;

/// Runs the suite `args.repeat` times. Returns whether every run was
/// correct and — with repetitions — the two halves agree within every
/// end-to-end bound.
pub fn run(args: &Args) -> bool {
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut table: Table = BTreeMap::new();
    let mut documents = Vec::new();
    let mut all_correct = true;
    for repetition in 0..args.repeat {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for &traced in passes {
                let Some(result) = run_child(workload, args, traced) else {
                    eprintln!("{}: the child printed no result", workload.name());
                    all_correct = false;
                    continue;
                };
                all_correct &= result.correct;
                for (name, value, unit) in &result.metrics {
                    println!("{} {name} {value} {unit}", workload.name());
                    table
                        .entry((w, name.clone()))
                        .or_insert_with(|| (unit.clone(), Vec::new()))
                        .1
                        .push(*value);
                }
                documents.push(format!(
                    "{{\"workload\": \"{}\", \"repetition\": {repetition}, \"trace\": {}, \"result\": {}}}",
                    workload.name(),
                    traced as u8,
                    result.json
                ));
            }
        }
    }
    let document = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}",
        args.seed,
        args.seconds,
        documents.join(",\n")
    );
    if let Some(path) = &args.out {
        std::fs::write(path, document + "\n").expect("writing --out");
    }
    let agree = args.repeat < 2 || print_repeatability(&table);
    println!(
        "suite: {}",
        if all_correct && agree { "ok" } else { "FAILED" }
    );
    all_correct && agree
}

/// Prints min / median / max and relative spread per (metric, workload)
/// and compares the median of the first half of the repetitions with
/// that of the second against each end-to-end bound.
fn print_repeatability(table: &Table) -> bool {
    println!("\nrepeatability: workload metric unit min median max spread bound verdict");
    let mut agree = true;
    for ((w, name), (unit, values)) in table {
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let mid = median(values);
        let spread = if mid != 0.0 {
            (hi - lo) / mid.abs()
        } else {
            0.0
        };
        let bound = END_TO_END.iter().find(|(n, _, _)| n == name).map(|b| b.2);
        let verdict = match bound {
            None => "-".to_string(),
            Some(bound) => {
                let (first, second) = values.split_at(values.len().div_ceil(2));
                let (a, b) = (median(first), median(second));
                // Two sets of one program: which is "the change" is
                // arbitrary, so a gap in either direction disagrees.
                if a != 0.0 && (a - b).abs() / a.abs() > bound {
                    agree = false;
                    format!("DISAGREE ({a} vs {b})")
                } else {
                    "agree".to_string()
                }
            }
        };
        println!(
            "{} {name} {unit} {lo} {mid} {hi} {spread:.4} {} {verdict}",
            Workload::ALL[*w].name(),
            bound.map_or("-".to_string(), |b| b.to_string()),
        );
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::run::RunResult;

    #[test]
    fn a_result_line_parses_back() {
        let result = RunResult {
            workload: Workload::HotReuse,
            traced: false,
            correct: true,
            attempted: 1000,
            failed: 0,
            per_slice: Vec::new(),
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 0.8127,
                    unit: "s",
                },
                Metric {
                    name: "throughput_rps",
                    value: 34_000.5,
                    unit: "req/s",
                },
            ],
            errors: Vec::new(),
        };
        let line = result.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        let parsed = parse_result(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.8127, "s".to_string()),
                ("throughput_rps".to_string(), 34_000.5, "req/s".to_string()),
            ]
        );
    }

    #[test]
    fn halves_beyond_the_bound_disagree() {
        let mut table: Table = BTreeMap::new();
        table.insert(
            (0, "throughput_rps".into()),
            ("req/s".into(), vec![100.0, 101.0, 99.0, 60.0, 61.0, 59.0]),
        );
        assert!(!print_repeatability(&table));
        table.insert(
            (0, "throughput_rps".into()),
            ("req/s".into(), vec![100.0, 101.0, 99.0, 95.0, 96.0, 94.0]),
        );
        assert!(print_repeatability(&table));
        table.insert(
            (0, "latency_p99_us".into()),
            ("us".into(), vec![100.0, 100.0, 50.0, 50.0]),
        );
        assert!(!print_repeatability(&table));
    }
}
