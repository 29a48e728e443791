//! Argument parsing, the flat JSON result line, and small statistics
//! helpers shared by every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// `--key value` pairs from the command line.
pub struct Args(BTreeMap<String, String>);

impl Args {
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args(map))
    }

    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.0.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} must be an unsigned integer, got `{v}`"))
        })
    }

    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.0.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} must be a number, got `{v}`"))
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.u64(key, 0) != 0
    }
}

/// One instance's result: an ordered flat JSON object of numbers and
/// strings, printed as a single line for `run.py` to aggregate.
#[derive(Default)]
pub struct Out {
    body: String,
}

impl Out {
    fn key(&mut self, k: &str) {
        self.body.push(if self.body.is_empty() { '{' } else { ',' });
        write!(self.body, "\"{k}\":").expect("write to String");
    }

    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v}").expect("write to String");
        } else {
            self.body.push_str("null");
        }
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.num(k, v as f64);
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.body.push('"');
        for c in v.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    write!(self.body, "\\u{:04x}", c as u32).expect("write to String")
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
    }

    /// Every counter of a report's merged statistics, as `stat.<name>`.
    pub fn stats(&mut self, stats: &hal_des::StatSet) {
        for (name, v) in stats.counters() {
            self.int(&format!("stat.{name}"), v);
        }
    }

    pub fn finish(mut self) -> String {
        if self.body.is_empty() {
            self.body.push('{');
        }
        self.body.push('}');
        self.body
    }
}

/// Median of a sample (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of a sample (0 when empty). Sorts in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Run `f` repeatedly in batches until `budget` has passed; return the
/// median over batches of host ns per call. `f(n)` must perform `n`
/// calls. Timing whole batches keeps clock reads out of the measured
/// cost.
pub fn time_per_call(budget: Duration, batch: u64, mut f: impl FnMut(u64)) -> f64 {
    f(batch); // warm caches and lazy allocations first
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f(batch);
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_call)
}

/// A small deterministic generator (splitmix64) for benchmark inputs:
/// the same seed always gives the same hop lists and placements.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
