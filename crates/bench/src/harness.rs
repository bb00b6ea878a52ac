//! The one surface the seven recorded benches (`BENCH_<bench>.json`)
//! report and gate through: the command line, the record format, gate
//! evaluation, self-validation and the exit code. A bin builds its
//! scenario, pushes rows and gates into a [`Report`] and calls
//! [`Report::finish`]; nothing else in this crate parses flags, writes a
//! record or decides a verdict.
//!
//! Every record is one envelope:
//! `{"bench", "cores", "smoke", "params": {…}, "rows": [{"row": kind, …}],
//! "gates": [{"name", "value", "op", "bound", "pass"}]}`.
//! A run exits 1 iff a gate fails, smoke preset or full. A gate whose
//! precondition the host does not meet is simply not pushed.

use clipper_workload::Table;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The whole command line of a recorded bench: `[--smoke] [--out <path>]`.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// Run the short CI preset instead of the recorded one.
    pub smoke: bool,
    /// Where the record goes (default `BENCH_<bench>.json`).
    pub out: PathBuf,
}

impl Args {
    /// Parse the process arguments; anything but `--smoke` / `--out <path>`
    /// prints the usage line and exits 2.
    pub fn parse(bench: &str) -> Args {
        Self::parse_from(bench, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("usage: {bench} [--smoke] [--out <path>] ({e})");
            std::process::exit(2)
        })
    }

    fn parse_from(bench: &str, mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            smoke: false,
            out: format!("BENCH_{bench}.json").into(),
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = args.next().ok_or("--out needs a path")?.into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// How a gate's measured value must relate to its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `value <= bound`
    AtMost,
    /// `value >= bound`
    AtLeast,
    /// `value == bound` (exact counts and 0/1 flags)
    Equals,
}

impl Op {
    /// Whether `value` meets `bound`; a NaN on either side never does.
    pub fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::AtMost => value <= bound,
            Op::AtLeast => value >= bound,
            Op::Equals => value == bound,
        }
    }

    /// The op's spelling in a record.
    fn name(self) -> &'static str {
        match self {
            Op::AtMost => "at_most",
            Op::AtLeast => "at_least",
            Op::Equals => "equals",
        }
    }
}

/// One evaluated gate, as recorded.
#[derive(Serialize, Deserialize)]
pub struct Gate {
    pub name: String,
    /// `null` when the measurement was not a finite number (never passes).
    pub value: Option<f64>,
    /// `at_most`, `at_least` or `equals`.
    pub op: String,
    pub bound: f64,
    pub pass: bool,
}

/// The envelope every `BENCH_*.json` is.
#[derive(Serialize, Deserialize)]
pub struct Record {
    pub bench: String,
    /// `std::thread::available_parallelism` on the recording host.
    pub cores: usize,
    pub smoke: bool,
    /// Scenario constants (`heartbeat_ms`, `drop_prob`, …).
    pub params: BTreeMap<String, Value>,
    /// Measurements; each object's `"row"` names its kind.
    pub rows: Vec<Value>,
    pub gates: Vec<Gate>,
}

/// A record being built by one bench run.
pub struct Report {
    out: PathBuf,
    record: Record,
}

fn to_value(v: &impl Serialize) -> Value {
    let json = serde_json::to_string(v).expect("rows and params serialize");
    serde_json::from_str(&json).expect("serialized JSON parses")
}

impl Report {
    pub fn new(args: &Args, bench: &str) -> Report {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "== {bench}: {} preset, {cores} cores ==\n",
            if args.smoke { "smoke" } else { "full" }
        );
        Report {
            out: args.out.clone(),
            record: Record {
                bench: bench.to_string(),
                cores,
                smoke: args.smoke,
                params: BTreeMap::new(),
                rows: Vec::new(),
                gates: Vec::new(),
            },
        }
    }

    /// The recording host's core count, for gates that need parallelism.
    pub fn cores(&self) -> usize {
        self.record.cores
    }

    /// Record a scenario constant.
    pub fn param(&mut self, name: &str, value: impl Serialize) {
        self.record
            .params
            .insert(name.to_string(), to_value(&value));
    }

    /// Record one measurement: `row`'s fields plus `"row": kind`.
    pub fn row(&mut self, kind: &str, row: &impl Serialize) {
        let Value::Object(mut fields) = to_value(row) else {
            panic!("a {kind} row must serialize as a JSON object");
        };
        fields.insert("row".to_string(), Value::String(kind.to_string()));
        self.record.rows.push(Value::Object(fields));
    }

    /// Evaluate and record one gate.
    pub fn gate(&mut self, name: &str, value: f64, op: Op, bound: f64) {
        self.record.gates.push(Gate {
            name: name.to_string(),
            value: value.is_finite().then_some(value),
            op: op.name().to_string(),
            bound,
            pass: op.holds(value, bound),
        });
    }

    /// [`Report::gate`] for a yes/no condition, recorded as 1 or 0.
    pub fn gate_true(&mut self, name: &str, condition: bool) {
        self.gate(name, f64::from(u8::from(condition)), Op::Equals, 1.0);
    }

    /// Write the record, check the file parses back as the envelope,
    /// print the gates table and exit: 1 iff any gate failed.
    pub fn finish(&self) -> ! {
        std::process::exit(self.conclude())
    }

    fn conclude(&self) -> i32 {
        let json = serde_json::to_string(&self.record).expect("serialize record");
        std::fs::write(&self.out, json).expect("write record");
        let reread = std::fs::read_to_string(&self.out).expect("re-read record");
        let parsed: Record = serde_json::from_str(&reread).expect("the record parses back");
        assert!(!parsed.rows.is_empty(), "malformed record: no rows");
        println!("\nwrote {}", self.out.display());

        let mut table = Table::new(&["gate", "value", "op", "bound", "verdict"]);
        for g in &parsed.gates {
            table.row(&[
                g.name.clone(),
                g.value.map_or("NaN".into(), |v| format!("{v:.3}")),
                g.op.clone(),
                format!("{:.3}", g.bound),
                if g.pass { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
        table.print();
        let failed = parsed.gates.iter().filter(|g| !g.pass).count();
        if failed > 0 {
            eprintln!("FAIL: {failed} of {} gates", parsed.gates.len());
        }
        i32::from(failed > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from("x", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_are_smoke_and_out_in_either_order_and_nothing_else() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.smoke, defaults.out),
            (false, "BENCH_x.json".into())
        );
        let want = Args {
            smoke: true,
            out: "p".into(),
        };
        assert_eq!(parse(&["--smoke", "--out", "p"]).unwrap(), want);
        assert_eq!(parse(&["--out", "p", "--smoke"]).unwrap(), want);
        for deleted in ["--seconds", "--iters", "--rate", "--frontends", "--full"] {
            assert!(
                parse(&[deleted, "1"]).is_err(),
                "{deleted} must be rejected"
            );
        }
        assert!(parse(&["--smoke", "--out"]).is_err(), "dangling --out");
    }

    #[test]
    fn ops_hold_at_and_inside_their_bound_only() {
        let eps = 1e-9;
        assert!(Op::AtMost.holds(2.0, 2.0) && Op::AtMost.holds(2.0 - eps, 2.0));
        assert!(!Op::AtMost.holds(2.0 + eps, 2.0));
        assert!(Op::AtLeast.holds(2.0, 2.0) && Op::AtLeast.holds(2.0 + eps, 2.0));
        assert!(!Op::AtLeast.holds(2.0 - eps, 2.0));
        assert!(Op::Equals.holds(0.0, 0.0));
        assert!(!Op::Equals.holds(eps, 0.0) && !Op::Equals.holds(-eps, 0.0));
        for op in [Op::AtMost, Op::AtLeast, Op::Equals] {
            assert!(!op.holds(f64::NAN, 1.0), "NaN never passes {op:?}");
        }
    }

    #[derive(Serialize)]
    struct Arm {
        p99_ms: f64,
    }

    #[derive(Serialize)]
    struct Event {
        container: String,
        silent_ms: u64,
    }

    fn report(name: &str) -> Report {
        let out = std::env::temp_dir().join(format!("harness_{name}_{}.json", std::process::id()));
        Report::new(&Args { smoke: true, out }, "x")
    }

    #[test]
    fn two_row_kinds_round_trip_through_the_file_and_passing_gates_exit_zero() {
        let mut r = report("roundtrip");
        r.param("heartbeat_ms", 50u64);
        r.row("arm", &Arm { p99_ms: 4.5 });
        let event = Event {
            container: "flap-0".into(),
            silent_ms: 219,
        };
        r.row("event", &event);
        r.gate("p99_ms", 4.5, Op::AtMost, 5.0);
        r.gate_true("warm", true);
        assert_eq!(r.conclude(), 0);

        let file = std::fs::read_to_string(&r.out).unwrap();
        let back: Record = serde_json::from_str(&file).unwrap();
        std::fs::remove_file(&r.out).unwrap();
        assert_eq!((back.bench.as_str(), back.smoke), ("x", true));
        assert_eq!(back.params["heartbeat_ms"], 50u64);
        assert_eq!(back.rows[0]["row"], "arm");
        assert_eq!(back.rows[0]["p99_ms"], 4.5);
        assert_eq!(back.rows[1]["row"], "event");
        assert_eq!(back.rows[1]["container"], "flap-0");
        assert_eq!(back.rows[1]["silent_ms"], 219u64);
        assert!(back.gates.iter().all(|g| g.pass));
        assert_eq!(back.gates[0].op, "at_most");
    }

    #[test]
    fn one_failing_gate_is_recorded_and_fails_the_run() {
        let mut r = report("failing");
        r.row("arm", &Arm { p99_ms: 9.0 });
        r.gate("lost", 0.0, Op::Equals, 0.0);
        r.gate("p99_ms", 9.0, Op::AtMost, 5.0);
        r.gate("ratio", f64::NAN, Op::AtLeast, 1.0);
        assert_eq!(r.conclude(), 1);
        let file = std::fs::read_to_string(&r.out).unwrap();
        let back: Record = serde_json::from_str(&file).unwrap();
        std::fs::remove_file(&r.out).unwrap();
        let verdicts: Vec<bool> = back.gates.iter().map(|g| g.pass).collect();
        assert_eq!(verdicts, [true, false, false]);
        assert_eq!(back.gates[2].value, None);
    }
}
