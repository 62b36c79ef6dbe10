//! Smoke runs of every workload at tiny sizes, traced and untraced. Each
//! run must exit 0 and end with one parseable JSON line holding exactly the
//! `correct`, `attempted`, `failed` and `metrics` keys, and every metric
//! `BENCHMARK.json` names for that mode must appear with its unit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (enough of JSON for the result line and
/// `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return Err("object key is not a string".into());
                    };
                    self.eat(b':')?;
                    if map.insert(key.clone(), self.value()?).is_some() {
                        return Err(format!("duplicate key {key}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        Some(b'\\') => {
                            let c = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                            self.i += 2;
                            match c {
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .map_err(|e| e.to_string())?;
                                    let code =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(code).ok_or("bad escape")?);
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }
}

fn obj(v: &Json) -> &BTreeMap<String, Json> {
    match v {
        Json::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    let spec = Parser::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = obj(&spec).get(list) else {
        panic!("BENCHMARK.json lacks `{list}`");
    };
    items
        .iter()
        .map(|m| {
            let m = obj(m);
            match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            }
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        Parser::parse(last).unwrap_or_else(|e| panic!("result line does not parse ({e}): {last}"));
    let result = obj(&result);
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(matches!(result["correct"], Json::Bool(_)));
    let (Json::Num(attempted), Json::Num(failed)) = (&result["attempted"], &result["failed"])
    else {
        panic!("attempted/failed are not numbers");
    };
    assert!(*attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0);
    let metrics = obj(&result["metrics"]);
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        metrics.len(),
        want.len(),
        "metric count differs from BENCHMARK.json"
    );
    for (name, unit) in want {
        let m = obj(metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing")));
        assert_eq!(
            m.get("unit"),
            Some(&Json::Str(unit.clone())),
            "{workload}: unit of {name}"
        );
        assert!(
            matches!(m.get("value"), Some(Json::Num(_))),
            "{workload}: {name} has no numeric value"
        );
        assert!(
            stdout.contains(&format!("metric {name} = ")),
            "{workload}: {name} not printed by name"
        );
    }
}

#[test]
fn corpus_nuts_smoke() {
    smoke("corpus_nuts", false);
    smoke("corpus_nuts", true);
}

#[test]
fn serve_hot_smoke() {
    smoke("serve_hot", false);
    smoke("serve_hot", true);
}

#[test]
fn serve_churn_smoke() {
    smoke("serve_churn", false);
    smoke("serve_churn", true);
}

#[test]
fn svi_guide_smoke() {
    smoke("svi_guide", false);
    smoke("svi_guide", true);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn json_parser_round_trips_a_result_line() {
    let v = Parser::parse(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5e-3, "unit": "ms"}}}"#).unwrap();
    assert_eq!(
        obj(&obj(&v)["metrics"])["a"],
        Json::Obj(BTreeMap::from([
            ("unit".to_string(), Json::Str("ms".into())),
            ("value".to_string(), Json::Num(1.5e-3))
        ]))
    );
    assert!(Parser::parse("{\"a\": 1,}").is_err());
}
