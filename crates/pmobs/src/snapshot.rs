//! The serialized form of a [`crate::Registry`]: the stable
//! `hippo.metrics.v1` JSON schema every pipeline stage, `hippoctl
//! --metrics` file, and `BENCH_*.json` artifact speaks.
//!
//! Schema (all maps sorted by key, spans by id):
//!
//! ```json
//! {
//!   "schema": "hippo.metrics.v1",
//!   "spans": [
//!     {"id": 0, "parent": null, "name": "repair.detect",
//!      "start_us": 12, "dur_us": 3456}
//!   ],
//!   "counters": {"vm.instructions": 1024},
//!   "gauges": {"bench.pass_rate": 1.0},
//!   "histograms": {
//!     "explore.worker.candidates": {
//!       "count": 4, "sum": 128.0, "min": 16.0, "max": 48.0,
//!       "buckets": [[4, 1], [5, 3]]
//!     }
//!   }
//! }
//! ```
//!
//! Histogram buckets are sparse `[log2_index, count]` pairs: bucket `i`
//! holds observations `v` with `2^i <= v < 2^(i+1)` (values below 1 land
//! in bucket 0).

use serde::{Deserialize, Value};
use std::collections::BTreeMap;

/// The schema identifier emitted and required by this version.
pub const SCHEMA: &str = "hippo.metrics.v1";

/// Number of log2 histogram buckets (covers u64 magnitudes).
pub const HIST_BUCKETS: usize = 64;

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Dense id, in open order.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Dot-separated stage name, e.g. `repair.detect.exploration`.
    pub name: String,
    /// Microseconds from the registry's epoch to the span open.
    pub start_us: u64,
    /// Span duration in microseconds (0 for spans never closed).
    pub dur_us: u64,
}

/// A histogram summary: count/sum/min/max plus sparse log2 buckets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hist {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Sparse `[log2 index, count]` pairs, index-sorted.
    pub buckets: Vec<(u8, u64)>,
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The log2 bucket an observation falls into.
fn bucket_index(v: f64) -> u8 {
    if v < 1.0 {
        return 0;
    }
    let b = v.log2().floor() as i64;
    b.clamp(0, HIST_BUCKETS as i64 - 1) as u8
}

/// A point-in-time copy of a registry's contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All spans, id-ordered.
    pub spans: Vec<SpanRec>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Hist>,
}

/// A schema violation found while parsing a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// What was malformed.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metrics schema error: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

fn bad(message: impl Into<String>) -> SchemaError {
    SchemaError {
        message: message.into(),
    }
}

/// Compact JSON for one value. The vendored serializer has no failure path.
fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

/// A JSON object; the caller lists the fields in key order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

/// The value under `key` when `v` is an object that has it; of repeated
/// keys the last one counts.
fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?
        .iter()
        .rev()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// The entries of the object under `key`, or the schema error naming it.
fn entries<'a>(
    v: &'a Value,
    key: &str,
) -> Result<impl Iterator<Item = (&'a str, &'a Value)>, SchemaError> {
    let m = get(v, key)
        .and_then(Value::as_map)
        .ok_or_else(|| bad(format!("`{key}` must be an object")))?;
    Ok(m.iter().filter_map(|(k, v)| Some((k.as_str()?, v))))
}

/// A number as a `u64`, accepting integral floats.
fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) => u64::try_from(n).ok(),
        Value::F64(f) if f.fract() == 0.0 && f >= 0.0 && f <= u64::MAX as f64 => Some(f as u64),
        _ => None,
    }
}

/// A number as an `f64`.
fn as_f64(v: &Value) -> Option<f64> {
    f64::from_value(v).ok()
}

impl Snapshot {
    /// Serializes to the stable schema, pretty enough for humans (one
    /// top-level key per line) while staying deterministic.
    pub fn to_json(&self) -> String {
        let u = Value::U64;
        let spans = Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    object([
                        ("dur_us", u(s.dur_us)),
                        ("id", u(s.id)),
                        ("name", Value::Str(s.name.clone())),
                        ("parent", s.parent.map_or(Value::Null, u)),
                        ("start_us", u(s.start_us)),
                    ])
                })
                .collect(),
        );
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(i, c)| Value::Seq(vec![u(i.into()), u(c)]))
                .collect();
            let fields = object([
                ("buckets", Value::Seq(buckets)),
                ("count", u(h.count)),
                ("max", Value::F64(h.max)),
                ("min", Value::F64(h.min)),
                ("sum", Value::F64(h.sum)),
            ]);
            (k.as_str(), fields)
        });
        let rows = [
            ("schema", Value::Str(SCHEMA.to_string())),
            ("spans", spans),
            (
                "counters",
                object(self.counters.iter().map(|(k, &c)| (k.as_str(), u(c)))),
            ),
            (
                "gauges",
                object(
                    self.gauges
                        .iter()
                        .map(|(k, &g)| (k.as_str(), Value::F64(g))),
                ),
            ),
            ("histograms", object(histograms)),
        ];
        // One top-level key per line: big files stay diffable.
        let rows: Vec<String> = rows
            .iter()
            .map(|(key, v)| format!("  {}: {}", json(*key), json(v)))
            .collect();
        format!("{{\n{}\n}}\n", rows.join(",\n"))
    }

    /// Parses a snapshot from its JSON form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a missing/mismatched `schema` tag, or any
    /// field of the wrong shape.
    pub fn from_json(text: &str) -> Result<Snapshot, SchemaError> {
        let v: Value = serde_json::from_str(text).map_err(|e| bad(e.to_string()))?;
        let schema = get(&v, "schema")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing `schema` tag"))?;
        if schema != SCHEMA {
            return Err(bad(format!("unsupported schema `{schema}`")));
        }
        let mut snap = Snapshot::default();
        for sv in get(&v, "spans")
            .and_then(Value::as_seq)
            .ok_or_else(|| bad("`spans` must be an array"))?
        {
            let field_u64 = |k: &str| {
                get(sv, k)
                    .and_then(as_u64)
                    .ok_or_else(|| bad(format!("span field `{k}` must be a u64")))
            };
            snap.spans.push(SpanRec {
                id: field_u64("id")?,
                parent: match get(sv, "parent") {
                    None | Some(Value::Null) => None,
                    Some(p) => {
                        Some(as_u64(p).ok_or_else(|| bad("span `parent` must be null or a u64"))?)
                    }
                },
                name: get(sv, "name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("span `name` must be a string"))?
                    .to_string(),
                start_us: field_u64("start_us")?,
                dur_us: field_u64("dur_us")?,
            });
        }
        for (k, cv) in entries(&v, "counters")? {
            let c = as_u64(cv).ok_or_else(|| bad(format!("counter `{k}` must be a u64")))?;
            snap.counters.insert(k.to_string(), c);
        }
        for (k, gv) in entries(&v, "gauges")? {
            let g = as_f64(gv).ok_or_else(|| bad(format!("gauge `{k}` must be a number")))?;
            snap.gauges.insert(k.to_string(), g);
        }
        for (k, hv) in entries(&v, "histograms")? {
            let num = |f: &str| {
                get(hv, f)
                    .and_then(as_f64)
                    .ok_or_else(|| bad(format!("histogram `{k}.{f}` must be a number")))
            };
            let mut h = Hist {
                count: get(hv, "count")
                    .and_then(as_u64)
                    .ok_or_else(|| bad(format!("histogram `{k}.count` must be a u64")))?,
                sum: num("sum")?,
                min: num("min")?,
                max: num("max")?,
                buckets: vec![],
            };
            for b in get(hv, "buckets")
                .and_then(Value::as_seq)
                .ok_or_else(|| bad(format!("histogram `{k}.buckets` must be an array")))?
            {
                let pair = b
                    .as_seq()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad(format!("histogram `{k}` bucket must be a pair")))?;
                let idx = as_u64(&pair[0])
                    .filter(|&i| i < HIST_BUCKETS as u64)
                    .ok_or_else(|| bad(format!("histogram `{k}` bucket index out of range")))?;
                let cnt = as_u64(&pair[1])
                    .ok_or_else(|| bad(format!("histogram `{k}` bucket count must be a u64")))?;
                h.buckets.push((idx as u8, cnt));
            }
            snap.histograms.insert(k.to_string(), h);
        }
        Ok(snap)
    }

    /// Renders the per-stage timings breakdown `hippoctl fix --timings`
    /// prints: spans aggregated by name with call counts, total/mean
    /// milliseconds, and share of the root wall time.
    pub fn render_timings(&self) -> String {
        use std::fmt::Write as _;
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(&s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        let wall_us = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0)
            .saturating_sub(self.spans.iter().map(|s| s.start_us).min().unwrap_or(0));
        let mut rows: Vec<(&str, u64, u64)> =
            agg.into_iter().map(|(n, (c, d))| (n, c, d)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let name_w = rows
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(5)
            .max("stage".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>6}  {:>10}  {:>9}  {:>6}",
            "stage", "calls", "total ms", "mean ms", "%wall"
        );
        for (name, calls, dur_us) in rows {
            let total_ms = dur_us as f64 / 1e3;
            let mean_ms = total_ms / calls as f64;
            let pct = if wall_us > 0 {
                dur_us as f64 * 100.0 / wall_us as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<name_w$}  {calls:>6}  {total_ms:>10.3}  {mean_ms:>9.3}  {pct:>5.1}%"
            );
        }
        if self.spans.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        }
        if !self.histograms.is_empty() {
            let name_w = self.histograms.keys().map(String::len).max().unwrap_or(0);
            let name_w = name_w.max("histogram".len());
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>6}  {:>10}  {:>10}",
                "histogram", "count", "mean", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<name_w$}  {:>6}  {:>10.3}  {:>10.3}",
                    h.count,
                    h.mean(),
                    h.max
                );
            }
        }
        out
    }

    /// The distinct pipeline stages covered: first dotted component of
    /// every span name (e.g. `repair`, `explore`, `vm`, `trace`).
    pub fn span_stages(&self) -> std::collections::BTreeSet<String> {
        self.spans
            .iter()
            .map(|s| {
                s.name
                    .split('.')
                    .next()
                    .unwrap_or(s.name.as_str())
                    .to_string()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        let mut h = Hist::default();
        for v in [0.0, 0.5, 1.0, 1.9, 2.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        // 0.0 and 0.5, 1.0 and 1.9 share buckets 0; 2.0 in 1; 1000 in 9.
        assert_eq!(h.buckets, vec![(0, 4), (1, 1), (9, 1)]);
        assert!((h.mean() - (1005.4 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn timings_table_aggregates_by_name() {
        let mut snap = Snapshot {
            spans: vec![
                SpanRec {
                    id: 0,
                    parent: None,
                    name: "repair.detect".into(),
                    start_us: 0,
                    dur_us: 3000,
                },
                SpanRec {
                    id: 1,
                    parent: Some(0),
                    name: "vm.run".into(),
                    start_us: 100,
                    dur_us: 2000,
                },
                SpanRec {
                    id: 2,
                    parent: None,
                    name: "vm.run".into(),
                    start_us: 3200,
                    dur_us: 800,
                },
            ],
            ..Snapshot::default()
        };
        let mut boots = Hist::default();
        boots.observe(40.0);
        boots.observe(60.0);
        snap.histograms
            .insert("explore.oracle_boot_us".into(), boots);
        let t = snap.render_timings();
        assert!(t.contains("repair.detect"), "{t}");
        assert!(
            t.lines()
                .any(|l| l.starts_with("explore.oracle_boot_us") && l.contains("50.000")),
            "{t}"
        );
        assert!(t.contains("vm.run"), "{t}");
        // vm.run appears once, aggregated over 2 calls.
        assert_eq!(t.matches("vm.run").count(), 1, "{t}");
        assert_eq!(
            snap.span_stages().into_iter().collect::<Vec<_>>(),
            vec!["repair".to_string(), "vm".to_string()]
        );
    }
}
