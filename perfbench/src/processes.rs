//! An untraced run measures in several fresh processes, one after the
//! other, and reports the median of their figures. Each process pairs its
//! CPU time per request with its own reading of the host probe.
//!
//! On the shared virtual host the benchmark was written on, one process's
//! CPU time per request differed from the next one's by up to 18% at the
//! same seed, with nothing stolen (`saturate_64`: 34.5–40.6 µs in the five
//! processes of one run). Thread placement and memory layout are fixed for
//! the life of a process, so only fresh processes sample them. Each child
//! is this binary with `--child`, the same workload and seed, and an equal
//! share of `--seconds`.

use std::process::{Command, ExitCode, Stdio};

use crate::stats::median;

/// Fresh processes an untraced run measures in.
pub const PROCESSES: usize = 5;

/// What one child reported on its last line.
#[derive(Debug, PartialEq)]
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    cpu_per_request_rel: f64,
    cpu_us_per_request: f64,
    setup_s: f64,
}

/// Runs the children one at a time, passes their output through with a
/// `pN` prefix, and prints the aggregate result as the last line.
pub fn run(workload: &str, seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let share = seconds / PROCESSES as f64;
    let mut children = Vec::with_capacity(PROCESSES);
    let mut audit: Vec<String> = Vec::new();
    for p in 0..PROCESSES {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &share.to_string(), "--trace", "0", "--child"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("perfbench: process {p} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines() {
            println!("p{p} {line}");
        }
        audit.extend(stdout.lines().filter_map(|l| l.strip_prefix("audit ")).map(str::to_owned));
        match stdout.lines().last().and_then(parse) {
            Some(child) => children.push(child),
            None => {
                eprintln!("perfbench: process {p} printed no result ({})", output.status);
                return ExitCode::FAILURE;
            }
        }
    }
    let field = |key: &str| -> String {
        let prefix = format!("{key}=");
        let values: Vec<&str> = audit
            .iter()
            .filter_map(|a| a.split_whitespace().find_map(|kv| kv.strip_prefix(prefix.as_str())))
            .collect();
        values.join(",")
    };
    let rel: Vec<f64> = children.iter().map(|c| c.cpu_per_request_rel).collect();
    let cpu: Vec<f64> = children.iter().map(|c| c.cpu_us_per_request).collect();
    let setup: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
    println!(
        "audit processes={PROCESSES} steal_share={} windows_used={} driver_bound={} \
         cpu_per_request_rel={rel:.4?} cpu_us_per_request={cpu:.2?} \
         cpu_us_per_request_p50={} setup_s={setup:.4?}",
        field("steal_share"),
        field("windows_used"),
        field("driver_bound"),
        median(cpu.clone()),
    );
    let correct = children.iter().all(|c| c.correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\
         \"cpu_per_request_rel\": {{\"value\": {}, \"unit\": \"ratio\"}}, \
         \"setup_s\": {{\"value\": {}, \"unit\": \"s\"}}}}}}",
        children.iter().map(|c| c.attempted).sum::<u64>().max(1),
        children.iter().map(|c| c.failed).sum::<u64>(),
        median(rel),
        median(setup),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The fields of a child's result line; `None` when one is missing.
fn parse(line: &str) -> Option<Child> {
    Some(Child {
        correct: after(line, "\"correct\": ")?.starts_with("true"),
        attempted: number(line, "\"attempted\": ")? as u64,
        failed: number(line, "\"failed\": ")? as u64,
        cpu_per_request_rel: number(line, "\"cpu_per_request_rel\": {\"value\": ")?,
        cpu_us_per_request: number(line, "\"cpu_us_per_request\": {\"value\": ")?,
        setup_s: number(line, "\"setup_s\": {\"value\": ")?,
    })
}

fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|at| &line[at + key.len()..])
}

/// The number that follows `key` in `line`.
fn number(line: &str, key: &str) -> Option<f64> {
    let rest = after(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_child_result_line() {
        let line = "{\"correct\": true, \"attempted\": 120, \"failed\": 2, \"metrics\": \
                    {\"cpu_per_request_rel\": {\"value\": 0.16, \"unit\": \"ratio\"}, \
                    \"cpu_us_per_request\": {\"value\": 35.25, \"unit\": \"us\"}, \
                    \"setup_s\": {\"value\": 0.0241, \"unit\": \"s\"}}}";
        let child = Child {
            correct: true,
            attempted: 120,
            failed: 2,
            cpu_per_request_rel: 0.16,
            cpu_us_per_request: 35.25,
            setup_s: 0.0241,
        };
        assert_eq!(parse(line), Some(child));
        assert_eq!(parse(&line.replace("true", "false")).map(|c| c.correct), Some(false));
        assert_eq!(parse("audit nproc=2"), None);
    }
}
