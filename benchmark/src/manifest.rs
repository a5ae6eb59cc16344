//! `BENCHMARK.json`, compiled in: the workload and metric lists the
//! runner emits against, so the two cannot drift.

use crate::stats::valid_name;
use fasda_trace::Json;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: u64,
}

impl Manifest {
    pub fn load() -> Manifest {
        Manifest::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid")
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .map(Json::items)
                .filter(|l| !l.is_empty())
                .ok_or(format!("no '{key}' list"))
        };
        let name_of = |j: &Json| -> Result<String, String> {
            let n = j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("entry without a name")?;
            if !valid_name(n) {
                return Err(format!("invalid name '{n}'"));
            }
            Ok(n.to_string())
        };
        let metric = |j: &Json| -> Result<MetricDef, String> {
            let name = name_of(j)?;
            let better = j.get("better").and_then(Json::as_str);
            Ok(MetricDef {
                unit: j
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("{name}: no unit"))?
                    .into(),
                higher_is_better: match better {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(format!("{name}: 'better' must be higher or lower")),
                },
                bound: j.get("bound").and_then(Json::as_f64),
                name,
            })
        };
        let m = Manifest {
            workloads: list("workloads")?
                .iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_i64)
                .filter(|s| (1..=60).contains(s))
                .ok_or("run_seconds must be 1..=60")? as u64,
        };
        let mut seen = std::collections::BTreeSet::new();
        for n in m
            .workloads
            .iter()
            .chain(m.metrics(false).chain(m.metrics(true)).map(|d| &d.name))
        {
            if !seen.insert(n.as_str()) {
                return Err(format!("name '{n}' used twice"));
            }
        }
        if let Some(d) = m
            .end_to_end
            .iter()
            .find(|d| !d.bound.is_some_and(|b| (0.0..=0.25).contains(&b)))
        {
            return Err(format!(
                "{}: end-to-end bound must be within 0..=0.25",
                d.name
            ));
        }
        Ok(m)
    }

    /// The metric list of one pass: per-layer when traced, end-to-end
    /// otherwise.
    pub fn metrics(&self, traced: bool) -> impl Iterator<Item = &MetricDef> {
        if traced {
            self.per_layer.iter()
        } else {
            self.end_to_end.iter()
        }
    }
}

/// One measured value and the number of samples behind it (1 for a
/// single measurement or an exact count).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// What a workload hands back: its operations, and the metrics it
/// measured, by name.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let prev = self
            .metrics
            .insert(name.to_string(), Measured { value, samples });
        assert!(prev.is_none(), "metric '{name}' measured twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// The result line of the contract: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, with every metric of the pass present. A
    /// per-layer metric this workload does not exercise reads 0; an
    /// end-to-end metric must have been measured. Errors on a measured
    /// name the manifest does not list.
    pub fn result_line(&self, manifest: &Manifest, traced: bool) -> Result<Json, String> {
        let defs: Vec<&MetricDef> = manifest.metrics(traced).collect();
        if let Some(stray) = self
            .metrics
            .keys()
            .find(|k| !defs.iter().any(|d| &d.name == *k))
        {
            return Err(format!(
                "measured metric '{stray}' is not in BENCHMARK.json"
            ));
        }
        let mut metrics = Json::obj();
        for d in defs {
            let value = match self.metrics.get(&d.name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(_) => return Err(format!("metric '{}' is not finite", d.name)),
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric '{}' was not measured", d.name)),
            };
            metrics = metrics.field(
                &d.name,
                Json::obj()
                    .field("value", value)
                    .field("unit", d.unit.as_str())
                    .build(),
            );
        }
        Ok(Json::obj()
            .field("correct", self.failed == 0)
            .field("attempted", Json::uint(self.attempted))
            .field("failed", Json::uint(self.failed))
            .field("metrics", metrics.build())
            .build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_valid_and_names_the_fixed_lists() {
        let m = Manifest::load();
        assert_eq!(
            m.workloads,
            [
                "dense8",
                "sparse8",
                "straggler8",
                "chaos-recover8",
                "shard2",
                "svc-burst"
            ]
        );
        let e2e: Vec<&str> = m.end_to_end.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "host_ns_per_sim_cycle",
                "run_cpu_s",
                "peak_rss_mb",
                "sim_us_per_day",
                "job_latency_p50_ms",
                "job_latency_p95_ms",
                "jobs_per_s"
            ]
        );
        let setup = &m.end_to_end[0];
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(m.per_layer.len() <= 128);
        assert!(m
            .workloads
            .iter()
            .all(|w| crate::workloads::ALL.contains(&w.as_str())));
    }

    #[test]
    fn result_line_round_trips_against_the_manifest() {
        let m = Manifest::load();
        for traced in [false, true] {
            let mut o = Outcome {
                attempted: 4,
                failed: 0,
                ..Default::default()
            };
            for (i, d) in m.metrics(traced).enumerate() {
                // Leave every third per-layer metric unmeasured.
                if !traced || i % 3 != 0 {
                    o.set(&d.name, 1.5 + i as f64, 3);
                }
            }
            let line = o.result_line(&m, traced).expect("line").compact();
            assert!(!line.contains('\n'));
            let back = Json::parse(&line).expect("parses");
            let Json::Obj(fields) = &back else {
                panic!("object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(got)) = back.get("metrics") else {
                panic!("metrics")
            };
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = m.metrics(traced).map(|d| d.name.as_str()).collect();
            assert_eq!(names, want);
            for (d, (_, v)) in m.metrics(traced).zip(got) {
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit.as_str()));
                assert!(v.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn result_line_rejects_strays_and_missing_end_to_end() {
        let m = Manifest::load();
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        assert!(o.result_line(&m, false).is_err(), "nothing measured");
        o.set("not.a.metric", 1.0, 1);
        assert!(o.result_line(&m, true).is_err(), "stray name");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        let ok = r#"{"workloads":[{"name":"a","why":"x"}],
            "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.2}],
            "per_layer":[{"name":"l.x","unit":"count","better":"higher"}],"run_seconds":5}"#;
        assert!(Manifest::parse(ok).is_ok());
        assert!(
            Manifest::parse(&ok.replace("l.x", "a")).is_err(),
            "duplicate name"
        );
        assert!(
            Manifest::parse(&ok.replace("l.x", "l x")).is_err(),
            "bad name"
        );
        assert!(
            Manifest::parse(&ok.replace("0.2", "0.3")).is_err(),
            "bound too wide"
        );
        assert!(Manifest::parse(&ok.replace("\"lower\"", "\"down\"")).is_err());
    }
}
