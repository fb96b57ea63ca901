//! Runs every workload at its smoke size and checks the output contract:
//! the result line's keys, every declared metric with its unit (against
//! `BENCHMARK.json` at the repository root), the correctness verdict, and
//! that quality metrics repeat bit for bit across two runs of one seed.
//! Timings are not checked.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: &[&str] = &[
    "flow-hier",
    "flow-hier-eplace",
    "route-congested",
    "serve-batch",
];
const QUALITY: &[&str] = &["hpwl", "scaled_hpwl", "rc", "routed_overflow"];

/// Minimal JSON value, enough for the benchmark's own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected `{}` at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
            }
        }
    }
}

/// `(name, unit)` of every metric of one BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Parser::parse(&text);
    match json.get(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().str().to_string(),
                    m.get("unit").unwrap().str().to_string(),
                )
            })
            .collect(),
        other => panic!("BENCHMARK.json has no `{section}` list: {other:?}"),
    }
}

struct Run {
    code: i32,
    result: Json,
    meta: Json,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_rdp-ttqbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .env(
            "CARGO_TARGET_DIR",
            std::env::temp_dir().join("rdp-ttqbench-smoke"),
        )
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a meta line and a result line, got:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        code: out.status.code().unwrap_or(-1),
        result: Parser::parse(lines[lines.len() - 1]),
        meta: Parser::parse(lines[lines.len() - 2]),
    }
}

fn metrics(run: &Run) -> BTreeMap<String, (String, String)> {
    match run.result.get("metrics") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| {
                let value = match v.get("value") {
                    Some(Json::Num(n)) => n.clone(),
                    other => panic!("metric {k} has no numeric value: {other:?}"),
                };
                (k.clone(), (value, v.get("unit").unwrap().str().to_string()))
            })
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn check_contract(workload: &str, run: &Run, want: &[(String, String)]) {
    assert_eq!(run.code, 0, "{workload}: exit code");
    assert_eq!(
        run.result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        run.result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: correctness"
    );
    let attempted: u64 = match run.result.get("attempted") {
        Some(Json::Num(n)) => n.parse().expect("whole number"),
        other => panic!("attempted: {other:?}"),
    };
    assert!(attempted >= 1, "{workload}: attempted");
    assert_eq!(
        run.result.get("failed"),
        Some(&Json::Num("0".into())),
        "{workload}: failed"
    );
    let got = metrics(run);
    let got_names: Vec<(&str, &str)> = got
        .iter()
        .map(|(k, (_, u))| (k.as_str(), u.as_str()))
        .collect();
    let mut want_names: Vec<(&str, &str)> =
        want.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
    want_names.sort();
    assert_eq!(got_names, want_names, "{workload}: metric names and units");
    for key in ["revision", "cores", "kernel_threads", "profile", "seed"] {
        assert!(
            run.meta.get("meta").and_then(|m| m.get(key)).is_some(),
            "{workload}: stamp lacks {key}"
        );
    }
}

#[test]
fn every_workload_meets_the_output_contract_and_repeats_its_quality() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for &w in WORKLOADS {
        let a = run(w, 3, false);
        check_contract(w, &a, &e2e);
        let b = run(w, 3, false);
        let (qa, qb) = (metrics(&a), metrics(&b));
        for q in QUALITY {
            assert_eq!(
                qa[*q].0, qb[*q].0,
                "{w}: {q} differs between two runs of seed 3"
            );
        }
        let t = run(w, 3, true);
        check_contract(w, &t, &layers);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_rdp-ttqbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
