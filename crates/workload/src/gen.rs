//! Transaction generation.

use crate::dist::{PoissonArrivals, QueryCount, Zipf};
use safetx_sim::SimRng;
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{DataItemId, Duration, ServerId, TxnId, UserId};
use serde::{Deserialize, Serialize};

/// Shape of the generated workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of transactions.
    pub transactions: usize,
    /// Queries per transaction.
    pub queries_per_txn: QueryCount,
    /// Number of servers in the deployment.
    pub servers: usize,
    /// Items hosted per server.
    pub items_per_server: u64,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Zipf exponent for item popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Mean inter-arrival time between transactions (Poisson arrivals).
    pub mean_interarrival: Duration,
    /// Prefer distinct servers for a transaction's queries (the paper's
    /// worst-case layout: one query per participant).
    pub distinct_servers: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            transactions: 100,
            queries_per_txn: QueryCount::Fixed(3),
            servers: 3,
            items_per_server: 64,
            read_fraction: 0.5,
            zipf_exponent: 0.8,
            mean_interarrival: Duration::from_millis(10),
            distinct_servers: true,
        }
    }
}

impl WorkloadConfig {
    /// The item id hosted at `server` with local rank `rank`.
    ///
    /// Items are partitioned by server: server `s` hosts ids
    /// `s * items_per_server .. (s+1) * items_per_server`.
    #[must_use]
    pub fn item_at(&self, server: ServerId, rank: u64) -> DataItemId {
        DataItemId::new(server.index() * self.items_per_server + rank)
    }
}

/// Deterministic transaction generator.
#[derive(Debug)]
pub struct TxnGenerator {
    config: WorkloadConfig,
    rng: SimRng,
    zipf: Zipf,
    next_txn: u64,
}

impl TxnGenerator {
    /// Creates a generator with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics when the config has zero servers or zero items per server.
    #[must_use]
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        assert!(config.servers > 0, "no servers");
        assert!(config.items_per_server > 0, "no items");
        let zipf = Zipf::new(config.items_per_server as usize, config.zipf_exponent);
        TxnGenerator {
            config,
            rng: SimRng::new(seed),
            zipf,
            next_txn: 0,
        }
    }

    /// Generates one transaction for `user`.
    pub fn next_txn(&mut self, user: UserId) -> TransactionSpec {
        let id = TxnId::new(self.next_txn);
        self.next_txn += 1;
        let u = self.config.queries_per_txn.sample(&mut self.rng);
        let start = self.rng.range_u64(0, self.config.servers as u64);
        let mut queries = Vec::with_capacity(u);
        for qi in 0..u {
            let server = if self.config.distinct_servers {
                ServerId::new((start + qi as u64) % self.config.servers as u64)
            } else {
                ServerId::new(self.rng.range_u64(0, self.config.servers as u64))
            };
            let rank = self.zipf.sample(&mut self.rng) as u64;
            let item = self.config.item_at(server, rank);
            let read = self.rng.chance(self.config.read_fraction);
            let (action, ops) = if read {
                ("read", vec![Operation::Read(item)])
            } else {
                ("write", vec![Operation::Add(item, 1)])
            };
            queries.push(QuerySpec::new(server, action, "records", ops));
        }
        TransactionSpec::new(id, user, queries)
    }

    /// Generates the full schedule: `(arrival offset, spec)` pairs with
    /// exponential inter-arrival times.
    pub fn schedule(&mut self, user: UserId) -> Vec<(Duration, TransactionSpec)> {
        let arrivals = PoissonArrivals::new(
            self.config.mean_interarrival,
            // Derived, not shared: the arrival process must not interleave
            // draws with the spec-generation RNG stream.
            self.rng.next_u64(),
        );
        arrivals
            .take(self.config.transactions)
            .map(|at| (at, self.next_txn(user)))
            .collect()
    }

    /// Seed values every item starts from (so reads and `Add`s always find
    /// integers).
    pub fn initial_items(&self) -> impl Iterator<Item = (ServerId, DataItemId, Value)> + '_ {
        (0..self.config.servers as u64).flat_map(move |s| {
            let server = ServerId::new(s);
            (0..self.config.items_per_server)
                .map(move |r| (server, self.config.item_at(server, r), Value::Int(100)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            transactions: 10,
            servers: 4,
            items_per_server: 8,
            ..Default::default()
        }
    }

    #[test]
    fn transactions_have_unique_increasing_ids() {
        let mut g = TxnGenerator::new(config(), 7);
        let a = g.next_txn(UserId::new(0));
        let b = g.next_txn(UserId::new(0));
        assert!(b.id > a.id);
    }

    #[test]
    fn distinct_servers_yield_one_query_per_participant() {
        let cfg = WorkloadConfig {
            queries_per_txn: QueryCount::Fixed(4),
            servers: 4,
            distinct_servers: true,
            ..config()
        };
        let mut g = TxnGenerator::new(cfg, 1);
        for _ in 0..20 {
            let t = g.next_txn(UserId::new(0));
            assert_eq!(t.participants().len(), 4);
        }
    }

    #[test]
    fn items_stay_in_their_servers_partition() {
        let cfg = config();
        let mut g = TxnGenerator::new(cfg.clone(), 2);
        for _ in 0..50 {
            let t = g.next_txn(UserId::new(0));
            for q in &t.queries {
                for item in q.touched_items() {
                    let server_base = q.server.index() * cfg.items_per_server;
                    assert!(
                        (server_base..server_base + cfg.items_per_server).contains(&item.index()),
                        "item {item} outside {}'s partition",
                        q.server
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_arrivals_are_monotone() {
        let mut g = TxnGenerator::new(config(), 3);
        let schedule = g.schedule(UserId::new(1));
        assert_eq!(schedule.len(), 10);
        for pair in schedule.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let a: Vec<_> = TxnGenerator::new(config(), 9).schedule(UserId::new(1));
        let b: Vec<_> = TxnGenerator::new(config(), 9).schedule(UserId::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn initial_items_cover_all_partitions() {
        let g = TxnGenerator::new(config(), 4);
        let items: Vec<_> = g.initial_items().collect();
        assert_eq!(items.len(), 4 * 8);
    }

    #[test]
    fn read_fraction_extremes() {
        let all_reads = WorkloadConfig {
            read_fraction: 1.0,
            ..config()
        };
        let mut g = TxnGenerator::new(all_reads, 5);
        let t = g.next_txn(UserId::new(0));
        assert!(t.queries.iter().all(|q| !q.has_writes()));

        let all_writes = WorkloadConfig {
            read_fraction: 0.0,
            ..config()
        };
        let mut g = TxnGenerator::new(all_writes, 5);
        let t = g.next_txn(UserId::new(0));
        assert!(t.queries.iter().all(QuerySpec::has_writes));
    }
}
