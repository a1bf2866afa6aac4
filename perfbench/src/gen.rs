//! Seeded input generation. Everything a workload feeds the program —
//! generated sources, request and job orders, op streams — comes from a
//! [`Rng`] seeded by the benchmark's `--seed`, so one seed always gives the
//! same inputs and the program never sees the seed itself.

use pmapps::redis::RedisOp;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so each workload part
    /// draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Shape of a generated "publish" program: a PM loop of `loop_len`
/// flushed stores (trace size), `sites` unflushed straight-line stores
/// (repair work), and one unflushed store reached through a helper chain
/// of `depth` calls that a volatile caller shares (the hoisting path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publish {
    pub pool: u64,
    pub loop_len: u64,
    pub sites: u64,
    pub depth: u64,
    pub salt: u64,
}

impl Publish {
    /// Draws a shape from the ranges the fix and serve workloads use.
    pub fn draw(rng: &mut Rng, pool: u64) -> Publish {
        Publish {
            pool,
            loop_len: rng.range(256, 2048),
            sites: rng.range(1, 12),
            depth: rng.range(1, 3),
            salt: rng.range(1, 1_000_000),
        }
    }

    /// `n` shapes with the same spread every seed: loop lengths one per
    /// stratum of the range, site counts and depths dealt evenly, all
    /// jittered and shuffled by the seed. A deck's latency mix then barely
    /// moves between seeds while its programs all differ.
    pub fn stratified(rng: &mut Rng, n: u64, first_pool: u64) -> Vec<Publish> {
        let mut sites: Vec<u64> = (0..n).map(|j| 1 + j % 12).collect();
        let mut depth: Vec<u64> = (0..n).map(|j| 1 + j % 3).collect();
        rng.shuffle(&mut sites);
        rng.shuffle(&mut depth);
        (0..n)
            .map(|j| Publish {
                pool: first_pool + j,
                loop_len: 256 + (1792 * j + rng.range(0, 1791)) / n,
                sites: sites[j as usize],
                depth: depth[j as usize],
                salt: rng.range(1, 1_000_000),
            })
            .collect()
    }

    pub fn file_name(&self) -> String {
        format!("publish_{}.pmc", self.pool)
    }

    /// The pmlang source.
    pub fn source(&self) -> String {
        let mut s = String::new();
        s.push_str("fn put0(p: ptr, off: int, v: int) {\n    store8(p, off, v);\n}\n");
        for d in 1..=self.depth {
            s.push_str(&format!(
                "fn put{d}(p: ptr, off: int, v: int) {{\n    put{}(p, off, v + 1);\n}}\n",
                d - 1
            ));
        }
        s.push_str("fn main() {\n");
        s.push_str(&format!(
            "    var p: ptr = pmem_map({}, 65536);\n",
            self.pool
        ));
        s.push_str("    var scratch: ptr = alloc(4096);\n    var k: int = 0;\n");
        s.push_str(&format!("    while (k < {}) {{\n", self.loop_len));
        s.push_str(&format!(
            "        store8(p + k * 8, 0, k + {});\n        clwb(p + k * 8);\n        k = k + 1;\n    }}\n    sfence();\n",
            self.salt
        ));
        s.push_str(&format!("    put{}(scratch, 0, 1);\n", self.depth));
        s.push_str(&format!(
            "    put{}(p, 16384, {});\n",
            self.depth, self.salt
        ));
        for j in 0..self.sites {
            s.push_str(&format!(
                "    store8(p, {}, {});\n",
                16448 + j * 64,
                self.salt + j
            ));
        }
        s.push_str("    print(load8(p, 16384) + load8(p, 16448) + load8(scratch, 0));\n}\n");
        s
    }
}

/// A Redis calibration stream with the same shape as the paper's: eight
/// fresh sets, an in-place overwrite, hit and miss gets and deletes, a
/// scan and a read-modify-write — every server code path once — with
/// seeded keys.
pub fn redis_calibration(rng: &mut Rng) -> Vec<RedisOp> {
    let base = rng.range(1, 1000) as i64;
    let keys: Vec<i64> = (0..8).map(|i| base + i * rng.range(1, 7) as i64).collect();
    let mut ops: Vec<RedisOp> = keys.iter().map(|&k| RedisOp::set(k, 64)).collect();
    ops.push(RedisOp::set(keys[0], 64));
    ops.push(RedisOp::set(keys[1], 64));
    ops.push(RedisOp::get(keys[0]));
    ops.push(RedisOp::get(base + 100_000));
    ops.push(RedisOp::del(keys[2]));
    ops.push(RedisOp::del(base + 100_001));
    ops.push(RedisOp::scan(keys[0], 8));
    ops.push(RedisOp::rmw(keys[3], 64));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn publish_programs_compile_and_carry_bugs() {
        let mut rng = Rng::new(3, 0);
        for pool in 0..4 {
            let p = Publish::draw(&mut rng, pool);
            let m = pmlang::compile_one(&p.file_name(), &p.source()).expect("compiles");
            let c = pmcheck::run_and_check(&m, "main", pmvm::VmOptions::default()).expect("runs");
            assert!(!c.report.is_clean(), "{p:?} must carry bugs");
        }
    }
}
