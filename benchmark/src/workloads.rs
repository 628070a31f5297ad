//! The five workloads and their seeded transaction streams.
//!
//! A stream is a pure function of `(workload, seed, position)`: the program
//! under test receives only the transactions generated here. The generator
//! owns its random numbers, so a change to the repository's own RNG or
//! distributions cannot silently change the benchmark's inputs.

use safetx_core::{ConsistencyLevel, ProofScheme};
use std::time::Duration;

/// Servers per deployment; every transaction sends one query to each.
pub const SERVERS: u64 = 3;

/// Integer value every item is seeded with.
pub const SEED_VALUE: i64 = 10;

/// Item ids on server `s` start at `s * ITEM_STRIDE`.
pub const ITEM_STRIDE: u64 = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `safetx_runtime::Cluster`: messages cross in-process channels.
    Threaded,
    /// `safetx_net::NetCluster`: messages are framed over Unix sockets.
    Net,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each client submits its next transaction when the previous one
    /// completes.
    Closed { clients: usize },
    /// One generator offers seeded Poisson arrivals at a fixed rate; one
    /// collector waits for the completions.
    Open { rate_per_s: f64 },
}

/// One workload. A field the workload does not name here is left at
/// `ClusterConfig::default()`, so a flipped default shows in the numbers.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    pub scheme: ProofScheme,
    pub consistency: ConsistencyLevel,
    pub load: Load,
    /// TM worker threads of the `TxnService`.
    pub service_workers: usize,
    pub items_per_server: u64,
    /// Every `hot_every`-th transaction writes item 0 on every server
    /// (0 = no hot key).
    pub hot_every: u64,
    /// Wallets issued during set-up; users are drawn Zipf(1.0) from them.
    pub users: usize,
    /// Every `churn_every`-th transaction first publishes the next policy
    /// version and installs it at one replica (0 = the policy never moves).
    pub churn_every: u64,
    pub wal_sync_cost: Option<Duration>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "threaded_cont",
        why: "Continuous/Global on the threaded Cluster: most proofs and 2PV rounds per commit, cache always hits, so safetx-core and channel hops do the work and safetx-net none.",
        transport: Transport::Threaded,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        load: Load::Closed { clients: 2 },
        service_workers: 2,
        items_per_server: 64,
        hot_every: 0,
        users: 1,
        churn_every: 0,
        wal_sync_cost: None,
    },
    Workload {
        name: "net_cont",
        why: "The identical stream on NetCluster over Unix sockets: only the transport differs from threaded_cont, so the gap is the wire tax a safetx-net change must move.",
        transport: Transport::Net,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        load: Load::Closed { clients: 2 },
        service_workers: 2,
        items_per_server: 64,
        hot_every: 0,
        users: 1,
        churn_every: 0,
        wal_sync_cost: None,
    },
    Workload {
        name: "hot_deferred",
        why: "Deferred/View with every 2nd transaction on one hot item of 4: proof work is minimal, so no-wait locks and service retry/backoff dominate; goodput under conflict.",
        transport: Transport::Threaded,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        load: Load::Closed { clients: 2 },
        service_workers: 2,
        items_per_server: 4,
        hot_every: 2,
        users: 1,
        churn_every: 0,
        wal_sync_cost: None,
    },
    Workload {
        name: "churn_punctual",
        why: "Punctual/View, Zipf users over 512 wallets, a policy version published every 64th transaction: installs and cache invalidations beside lookups, so a cache gain that costs invalidation shows.",
        transport: Transport::Threaded,
        scheme: ProofScheme::Punctual,
        consistency: ConsistencyLevel::View,
        load: Load::Closed { clients: 2 },
        service_workers: 2,
        items_per_server: 64,
        hot_every: 0,
        users: 512,
        churn_every: 64,
        wal_sync_cost: None,
    },
    Workload {
        name: "open_sync",
        why: "Open loop at a fixed 600/s with a 100 us WAL sync and 8 workers: arrivals overlap in bursts, so group commit, round batching and admission queueing show here only.",
        transport: Transport::Threaded,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        load: Load::Open { rate_per_s: 600.0 },
        service_workers: 8,
        items_per_server: 64,
        hot_every: 0,
        users: 1,
        churn_every: 0,
        wal_sync_cost: Some(Duration::from_micros(100)),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn churns(&self) -> bool {
        self.churn_every > 0
    }
}

/// A policy move the harness performs before submitting a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStep {
    /// The one replica that installs the new version at once; the others
    /// catch up through 2PV update rounds.
    pub replica: u64,
}

/// Everything position `g` of a stream decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    /// Index into the wallets issued at set-up.
    pub user: usize,
    /// The item written at each server.
    pub items: [u64; SERVERS as usize],
    pub churn: Option<ChurnStep>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` with 53 random bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded transaction stream of one workload.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// Cumulative Zipf(1.0) distribution over the users.
    user_cdf: Vec<f64>,
}

impl Stream {
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let mut total = 0.0;
        let mut user_cdf: Vec<f64> = (1..=workload.users)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        for p in &mut user_cdf {
            *p /= total;
        }
        Stream {
            workload: *workload,
            seed,
            user_cdf,
        }
    }

    /// Independent random bits for `(position, lane)`.
    fn bits(&self, g: u64, lane: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)) ^ g)
    }

    pub fn draw(&self, g: u64) -> Draw {
        let w = &self.workload;
        let hot = w.hot_every > 0 && g.is_multiple_of(w.hot_every);
        let mut items = [0u64; SERVERS as usize];
        for (s, item) in items.iter_mut().enumerate() {
            let slot = if hot {
                0
            } else {
                self.bits(g, s as u64) % w.items_per_server
            };
            *item = s as u64 * ITEM_STRIDE + slot;
        }
        let u = unit(self.bits(g, 7));
        let user = self.user_cdf.partition_point(|&p| p <= u).min(w.users - 1);
        let churn = (w.churns() && g.is_multiple_of(w.churn_every)).then(|| ChurnStep {
            replica: (g / w.churn_every) % SERVERS,
        });
        Draw { user, items, churn }
    }

    /// Poisson arrival offsets in nanoseconds from the start of the load,
    /// strictly increasing; the gaps are those of stream positions `first`
    /// on, so each segment of a run meets bursts of its own.
    pub fn arrivals_ns(&self, rate_per_s: f64, first: u64) -> impl Iterator<Item = u64> + '_ {
        let mean_ns = 1e9 / rate_per_s;
        let mut at = 0u64;
        (first..).map(move |i| {
            let u = unit(self.bits(i, 11));
            let gap = (-(1.0 - u).ln() * mean_ns).max(1.0);
            at += gap as u64;
            at
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let a: Vec<Draw> = (0..500).map(|g| Stream::new(w, 42).draw(g)).collect();
            let b: Vec<Draw> = (0..500).map(|g| Stream::new(w, 42).draw(g)).collect();
            let c: Vec<Draw> = (0..500).map(|g| Stream::new(w, 43).draw(g)).collect();
            assert_eq!(a, b, "{}: same seed, same stream", w.name);
            assert_ne!(a, c, "{}: another seed, another stream", w.name);
        }
    }

    #[test]
    fn draws_are_positional_not_sequential() {
        // Position g draws the same transaction whether or not earlier
        // positions were drawn: two clients may take positions in any order.
        let stream = Stream::new(by_name("churn_punctual").unwrap(), 9);
        let forward: Vec<Draw> = (0..100).map(|g| stream.draw(g)).collect();
        let backward: Vec<Draw> = (0..100).rev().map(|g| stream.draw(g)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
    }

    #[test]
    fn items_stay_on_their_server_and_in_range() {
        for w in &WORKLOADS {
            let stream = Stream::new(w, 1);
            for g in 0..2_000 {
                let draw = stream.draw(g);
                for (s, item) in draw.items.iter().enumerate() {
                    let slot = item - s as u64 * ITEM_STRIDE;
                    assert!(slot < w.items_per_server, "{}: slot {slot}", w.name);
                }
                assert!(draw.user < w.users);
            }
        }
    }

    #[test]
    fn hot_deferred_sends_every_second_transaction_to_item_zero() {
        let stream = Stream::new(by_name("hot_deferred").unwrap(), 3);
        for g in (0..100).step_by(2) {
            assert_eq!(stream.draw(g).items, [0, ITEM_STRIDE, 2 * ITEM_STRIDE]);
        }
    }

    #[test]
    fn churn_is_positional_and_rotates_replicas() {
        let stream = Stream::new(by_name("churn_punctual").unwrap(), 5);
        let steps: Vec<(u64, u64)> = (0..256)
            .filter_map(|g| stream.draw(g).churn.map(|c| (g, c.replica)))
            .collect();
        assert_eq!(steps, vec![(0, 0), (64, 1), (128, 2), (192, 0)]);
        let quiet = Stream::new(by_name("threaded_cont").unwrap(), 5);
        assert!((0..256).all(|g| quiet.draw(g).churn.is_none()));
    }

    #[test]
    fn zipf_users_favour_low_ranks() {
        let stream = Stream::new(by_name("churn_punctual").unwrap(), 11);
        let mut counts = vec![0u32; 512];
        for g in 0..20_000 {
            counts[stream.draw(g).user] += 1;
        }
        // Zipf(1.0) over 512: rank 1 holds 1/H(512) = 14.6 % of the mass.
        assert!((2_500..3_400).contains(&counts[0]), "rank 1: {}", counts[0]);
        assert!(counts[0] > 3 * counts[3]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 300);
    }

    #[test]
    fn arrivals_are_seeded_increasing_and_at_the_stated_rate() {
        let w = by_name("open_sync").unwrap();
        let take = |seed: u64, first: u64| -> Vec<u64> {
            Stream::new(w, seed)
                .arrivals_ns(1_200.0, first)
                .take(12_000)
                .collect()
        };
        let (a, b, c) = (take(42, 0), take(42, 0), take(7, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, take(42, 1_000_000), "another segment, other gaps");
        assert!(a.windows(2).all(|p| p[0] < p[1]));
        let seconds = *a.last().unwrap() as f64 / 1e9;
        assert!(
            (9.5..10.5).contains(&seconds),
            "12000 arrivals took {seconds} s"
        );
    }
}
