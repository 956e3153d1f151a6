//! Runs every workload of `BENCHMARK.json` in smoke mode, untraced and
//! traced, through the same code path as the benchmark command, and checks
//! that each declared metric is printed with its declared unit and makes up
//! the JSON line, that a traced run prints the layer metrics of its own
//! path and none of the other path's, and that no operation failed.

use std::collections::BTreeMap;
use std::path::Path;

use perfbench::report::Host;
use perfbench::{Config, Workload, END_TO_END, FRAME_LAYERS, PER_LAYER, WIRE_LAYERS};

/// A JSON value, parsed just far enough to read `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Str(String),
    Num,
    Other,
    List(Vec<Json>),
    Map(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Map(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(l) => l,
            _ => panic!("not a list"),
        }
    }

    fn keys(&self) -> Vec<String> {
        match self {
            Json::Map(m) => m.keys().cloned().collect(),
            _ => panic!("not an object"),
        }
    }
}

fn parse(s: &mut &[u8]) -> Json {
    let skip = |s: &mut &[u8]| {
        while s.first().is_some_and(u8::is_ascii_whitespace) {
            *s = &s[1..];
        }
    };
    skip(s);
    let json = match s[0] {
        b'{' | b'[' => {
            let object = s[0] == b'{';
            *s = &s[1..];
            let (mut map, mut list) = (BTreeMap::new(), Vec::new());
            loop {
                skip(s);
                match s[0] {
                    b'}' | b']' => break,
                    b',' => *s = &s[1..],
                    _ if object => {
                        let Json::Str(key) = parse(s) else {
                            panic!("object key is not a string")
                        };
                        skip(s);
                        assert_eq!(s[0], b':');
                        *s = &s[1..];
                        map.insert(key, parse(s));
                    }
                    _ => list.push(parse(s)),
                }
            }
            *s = &s[1..];
            if object {
                Json::Map(map)
            } else {
                Json::List(list)
            }
        }
        b'"' => {
            let end = s[1..]
                .iter()
                .position(|&c| c == b'"')
                .expect("closed string")
                + 1;
            let text = String::from_utf8(s[1..end].to_vec()).expect("utf-8");
            *s = &s[end + 1..];
            Json::Str(text)
        }
        c if c == b'-' || c.is_ascii_digit() => {
            let end = s
                .iter()
                .position(|c| !b"-+.eE0123456789".contains(c))
                .unwrap_or(s.len());
            *s = &s[end..];
            Json::Num
        }
        _ => {
            let end = s
                .iter()
                .position(|c| !c.is_ascii_alphabetic())
                .unwrap_or(s.len());
            *s = &s[end..];
            Json::Other
        }
    };
    skip(s);
    json
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_nothing_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text =
        std::fs::read(root.join("BENCHMARK.json")).expect("BENCHMARK.json at the repository root");
    let bench = parse(&mut text.as_slice());
    assert!(matches!(bench.get("run_seconds"), Json::Num));

    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        end_to_end,
        as_owned(&END_TO_END),
        "END_TO_END matches BENCHMARK.json"
    );
    assert_eq!(
        per_layer,
        as_owned(&PER_LAYER),
        "PER_LAYER matches BENCHMARK.json"
    );

    let host = Host::detect(&root, true);
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    for w in bench.get("workloads").list() {
        let workload = Workload::parse(w.get("name").str()).expect("declared workload exists");
        for (trace, metrics) in [(false, &end_to_end), (true, &per_layer)] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.3,
                trace,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let report = perfbench::run(&cfg, &host).expect("smoke run");
            let lines = report.lines();
            let name = workload.name();
            let printed = |metric: &str| {
                lines.lines().find_map(|l| {
                    let mut f = l.split_whitespace();
                    (f.next() == Some(metric)).then(|| (f.next().map(str::parse::<f64>), f.next()))
                })
            };
            let own: Vec<(String, String)> = if trace {
                workload
                    .path_layers()
                    .iter()
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .collect()
            } else {
                Vec::new()
            };
            for (metric, unit) in metrics.iter().chain(&own) {
                let Some((Some(Ok(value)), Some(printed_unit))) = printed(metric) else {
                    panic!("{name}: {metric} not printed as `name value unit`:\n{lines}");
                };
                assert_eq!(printed_unit, unit, "{name}: unit of {metric}");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            let other: &[(&str, &str)] = if workload.is_wire() {
                &FRAME_LAYERS
            } else {
                &WIRE_LAYERS
            };
            for (metric, _) in other {
                assert!(
                    printed(metric).is_none(),
                    "{name}: {metric} belongs to the other path"
                );
            }
            let json = report.json();
            let mut keys = parse(&mut json.as_bytes()).get("metrics").keys();
            let mut want: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
            keys.sort();
            want.sort();
            assert_eq!(
                keys, want,
                "{name}: the JSON line holds the declared metrics"
            );
            assert!(report.attempted > 0, "{name}: nothing attempted");
            assert_eq!(report.failed, 0, "{name}: fail ratio must be 0");
            assert!(report.json().starts_with("{\"correct\": true"));
        }
    }
}
