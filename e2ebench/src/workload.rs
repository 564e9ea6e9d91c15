//! The three workloads and their seeded op streams.

/// HV Code prime: 12 disks, 12×12 elements per stripe, 120 of them data.
pub const P: usize = 13;
/// Bytes per element.
pub const ELEMENT: usize = 4096;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Server connection workers.
pub const WORKERS: usize = 2;
/// The double failure of `degraded_read` (and of every timed rebuild).
pub const FAILED_DISKS: [usize; 2] = [0, 6];
/// Ops generated per client; a client that runs past the end starts the
/// stream over (its writes keep fresh sequence numbers).
const STREAM_OPS: usize = 1 << 17;
/// Zipf skew of `hot_mixed` starts.
const THETA: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One request: `len` elements from data address `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub addr: usize,
    pub len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 70 % reads, 30 % writes of 2 elements at Zipf(0.9) starts over a
    /// volume that fits the stripe cache.
    HotMixed,
    /// The paper's `uniform_w_10`: writes of 10 elements at uniform
    /// starts over a volume 8× the cache.
    UniformWrite,
    /// Reads of 1, 5, 10 or 15 elements at uniform starts with disks 0
    /// and 6 failed (Fig. 7).
    DegradedRead,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_mixed" => Some(Workload::HotMixed),
            "uniform_write" => Some(Workload::UniformWrite),
            "degraded_read" => Some(Workload::DegradedRead),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMixed => "hot_mixed",
            Workload::UniformWrite => "uniform_write",
            Workload::DegradedRead => "degraded_read",
        }
    }

    /// Stripes in the volume: 48 fit the default 64-stripe cache, 512 are
    /// 8× it.
    pub fn stripes(self) -> usize {
        match self {
            Workload::HotMixed => 48,
            Workload::UniformWrite | Workload::DegradedRead => 512,
        }
    }

    /// Whether the volume runs with [`FAILED_DISKS`] failed.
    pub fn degraded(self) -> bool {
        self == Workload::DegradedRead
    }

    /// One op stream per client, a pure function of `seed`.
    pub fn streams(self, seed: u64, data_elements: usize) -> Vec<Vec<Op>> {
        let zipf = (self == Workload::HotMixed).then(|| ZipfStarts::new(data_elements - 1, THETA));
        (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
                (0..STREAM_OPS)
                    .map(|_| match self {
                        Workload::HotMixed => {
                            let kind = if rng.below(10) < 7 {
                                Kind::Read
                            } else {
                                Kind::Write
                            };
                            let addr = zipf
                                .as_ref()
                                .expect("hot_mixed has starts")
                                .sample(&mut rng);
                            Op { kind, addr, len: 2 }
                        }
                        Workload::UniformWrite => Op {
                            kind: Kind::Write,
                            addr: rng.below(data_elements - 9),
                            len: 10,
                        },
                        Workload::DegradedRead => {
                            let len = [1, 5, 10, 15][rng.below(4)];
                            Op {
                                kind: Kind::Read,
                                addr: rng.below(data_elements - len + 1),
                                len,
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// FNV-1a over every op of every stream: the reproducibility record's
/// input fingerprint.
pub fn stream_hash(streams: &[Vec<Op>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in streams.iter().flatten() {
        let kind = match op.kind {
            Kind::Read => 0u64,
            Kind::Write => 1,
        };
        for v in [kind, op.addr as u64, op.len as u64] {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over starts `0..n` by inverse CDF of rank^(−θ): start 0 is the
/// hottest, as in `raid_workloads::skew::zipf_write_trace`.
struct ZipfStarts {
    cdf: Vec<f64>,
}

impl ZipfStarts {
    fn new(n: usize, theta: f64) -> ZipfStarts {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-theta);
                acc
            })
            .collect();
        ZipfStarts { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_in_range() {
        for w in [
            Workload::HotMixed,
            Workload::UniformWrite,
            Workload::DegradedRead,
        ] {
            let n = w.stripes() * 120;
            let a = w.streams(7, n);
            assert_eq!(stream_hash(&a), stream_hash(&w.streams(7, n)));
            assert_ne!(stream_hash(&a), stream_hash(&w.streams(8, n)));
            assert!(a.iter().flatten().all(|op| op.addr + op.len <= n));
        }
    }
}
