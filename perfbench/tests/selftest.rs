//! Self-test of the benchmark: runs every workload on a tiny model and
//! checks the result line against `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["milstm-journal", "milstm-restart"];

/// Just enough JSON for the result line and `BENCHMARK.json`. Objects keep
/// their keys in order, duplicates included, so a test can see a metric
/// printed twice.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value in {text:?}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                let found: Vec<&Json> =
                    fields.iter().filter(|(k, _)| k == key).map(|(_, v)| v).collect();
                assert_eq!(found.len(), 1, "key {key} must appear exactly once");
                found[0]
            }
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        fields.push((k, self.value()));
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"));
    spec.get(section)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_owned(), m.get("unit").str().to_owned()))
        .collect()
}

fn run(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--tiny", "--seconds", "0"])
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary runs")
}

/// Runs one tiny workload and returns its result line.
fn result(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let out = run(&[&["--workload", workload, "--trace", trace], extra].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed: {}", String::from_utf8_lossy(&out.stderr));
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_declared_metric_is_printed_once_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let r = result(w, trace, &[]);
            assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), &Json::Bool(true), "{w} trace {trace}");
            assert_eq!(r.get("failed").num(), 0.0);
            assert!(r.get("attempted").num() >= 2.0);
            let metrics = r.get("metrics");
            let printed: Vec<&str> = metrics.keys();
            let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, names, "{w} trace {trace} prints exactly the declared metrics");
            for (name, unit) in &want {
                let m = metrics.get(name);
                assert_eq!(m.keys(), ["value", "unit"]);
                assert_eq!(m.get("unit").str(), unit, "{w}: unit of {name}");
                assert!(m.get("value").num().is_finite());
            }
        }
    }
}

#[test]
fn exact_metrics_and_counts_repeat_across_runs_and_seeds() {
    // Host times vary; plan quality, counts and ratios of counts must not,
    // and no workload depends on the seed.
    let exact = |r: &Json| -> Vec<(String, f64)> {
        match r.get("metrics") {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(name, m)| {
                    let unit = m.get("unit").str();
                    ["steady_ms", "explore_trials", "explore_overhead_ms"].contains(&name.as_str())
                        || unit == "count"
                        || (unit == "ratio" && name != "trace.overhead_frac")
                })
                .map(|(name, m)| (name.clone(), m.get("value").num()))
                .collect(),
            _ => unreachable!(),
        }
    };
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let a = exact(&result(w, trace, &["--seed", "3"]));
            let b = exact(&result(w, trace, &["--seed", "3"]));
            let c = exact(&result(w, trace, &["--seed", "4"]));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{w} trace {trace}");
            assert_eq!(a, c, "{w} trace {trace}: seed 3 vs seed 4");
        }
    }
}

#[test]
fn an_injected_output_mismatch_is_reported_as_a_failure() {
    for w in WORKLOADS {
        let r = result(w, "0", &["--inject-mismatch"]);
        assert_eq!(r.get("correct"), &Json::Bool(false), "{w}");
        assert!(r.get("failed").num() >= 1.0, "{w}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "milstm-journal", "--trace", "2"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
