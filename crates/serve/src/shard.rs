//! Graph-affinity routing across engine shards, with hot-graph
//! replication.
//!
//! The router answers one question at admission time: *which shard runs
//! this request?* The base policy is pure affinity — shard
//! `fingerprint % shards` — so every request for a graph lands where that
//! graph's working state (result-cache entries it recently produced,
//! warm `ScratchPool` scratch, the CSR arrays themselves in
//! that worker's cache hierarchy) is already resident. Affinity is
//! deterministic: at a fixed shard count the same fingerprint always has
//! the same *home* shard.
//!
//! Affinity alone strands capacity under skew: one viral graph saturates
//! its home shard while the others idle. Two mechanisms relieve that,
//! borrowing the partition-and-communicate discipline of spatial
//! architectures — keep work where its state lives, and account every
//! departure from that:
//!
//! * **Replication** (here): the router tracks per-fingerprint arrival
//!   rates in a sliding window. When a graph's arrivals within the window
//!   cross the configured threshold, its *routing set* grows by one shard
//!   (consecutive shards after the home, wrapping), up to the configured
//!   maximum, and subsequent requests round-robin across the set. Each
//!   added replica warms up on first use; the shared result cache means a
//!   replica never recomputes what another shard already answered.
//! * **Work stealing** (in the engine's worker loop): an idle shard takes
//!   the oldest *batch* job from the deepest foreign backlog. Interactive
//!   jobs are never stolen — their latency budget is exactly what the
//!   warm-shard affinity protects.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hot-graph replication policy. Embedded in
/// [`crate::ServeConfig`]; `threshold == 0` disables replication so the
/// router is pure deterministic affinity.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Arrivals for one fingerprint within [`ReplicationConfig::window`]
    /// that trigger growing its routing set by one shard. `0` disables
    /// replication entirely.
    pub threshold: u32,
    /// Sliding arrival-rate window.
    pub window: Duration,
    /// Hard cap on a fingerprint's routing-set size (clamped to the shard
    /// count at engine start).
    pub max_replicas: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            threshold: 16,
            window: Duration::from_secs(1),
            max_replicas: 4,
        }
    }
}

/// Per-fingerprint arrival tracking.
#[derive(Debug)]
struct HotEntry {
    window_start: Instant,
    arrivals: u32,
    /// Routing-set size, 1 = home shard only. Sticky for the engine's
    /// lifetime: once a graph proved hot enough to replicate, collapsing
    /// its set again would just re-cool the extra shard.
    replicas: u32,
    /// Round-robin cursor over the routing set.
    rr: u32,
}

/// Where the router sent a request, and whether this arrival grew the
/// graph's routing set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Shard the request was routed to.
    pub shard: usize,
    /// Deterministic home shard of the fingerprint.
    pub home: usize,
    /// Routing-set size after this arrival.
    pub replicas: u32,
    /// Whether this arrival crossed the threshold and added a replica.
    pub replicated_now: bool,
}

/// Fingerprint → shard router. See the module docs.
#[derive(Debug)]
pub struct Router {
    shards: usize,
    replication: ReplicationConfig,
    table: Mutex<HashMap<u64, HotEntry>>,
}

/// Bound on tracked fingerprints; crossing it evicts entries whose window
/// lapsed without replication (a cold graph needs no routing state).
const TABLE_CAP: usize = 1024;

impl Router {
    /// A router over `shards` shards with the given replication policy.
    pub fn new(shards: usize, mut replication: ReplicationConfig) -> Self {
        let shards = shards.max(1);
        replication.max_replicas = replication.max_replicas.clamp(1, shards);
        Router {
            shards,
            replication,
            table: Mutex::new(HashMap::new()),
        }
    }

    /// Deterministic home shard of a fingerprint.
    pub fn home(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards as u64) as usize
    }

    /// Routes one arrival. With replication disabled (or a single shard)
    /// this is exactly `home(fingerprint)` with no state touched.
    pub fn route(&self, fingerprint: u64) -> RouteDecision {
        let home = self.home(fingerprint);
        if self.shards == 1 || self.replication.threshold == 0 {
            return RouteDecision {
                shard: home,
                home,
                replicas: 1,
                replicated_now: false,
            };
        }
        let now = Instant::now();
        let mut table = self.table.lock().unwrap();
        if table.len() >= TABLE_CAP && !table.contains_key(&fingerprint) {
            let window = self.replication.window;
            table.retain(|_, e| e.replicas > 1 || now.duration_since(e.window_start) <= window);
        }
        let entry = table.entry(fingerprint).or_insert(HotEntry {
            window_start: now,
            arrivals: 0,
            replicas: 1,
            rr: 0,
        });
        if now.duration_since(entry.window_start) > self.replication.window {
            entry.window_start = now;
            entry.arrivals = 0;
        }
        entry.arrivals += 1;
        let mut replicated_now = false;
        if entry.arrivals >= self.replication.threshold
            && (entry.replicas as usize) < self.replication.max_replicas
        {
            entry.replicas += 1;
            entry.arrivals = 0;
            entry.window_start = now;
            replicated_now = true;
        }
        let shard = if entry.replicas <= 1 {
            home
        } else {
            let offset = entry.rr % entry.replicas;
            entry.rr = entry.rr.wrapping_add(1);
            (home + offset as usize) % self.shards
        };
        RouteDecision {
            shard,
            home,
            replicas: entry.replicas,
            replicated_now,
        }
    }

    /// Current routing-set size of a fingerprint (1 when untracked).
    pub fn replicas_of(&self, fingerprint: u64) -> u32 {
        self.table
            .lock()
            .unwrap()
            .get(&fingerprint)
            .map_or(1, |e| e.replicas)
    }
}

/// Point-in-time statistics of one engine shard, inside
/// [`crate::EngineStats`].
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Queue depth when the stats were read.
    pub queue_depth_last: u64,
    /// Highest queue depth this shard ever observed.
    pub queue_depth_max: u64,
    /// Requests this shard's workers executed from their own queue.
    pub executed_local: u64,
    /// Batch jobs this shard's workers stole *from* other shards and ran.
    pub steals_in: u64,
    /// Batch jobs other shards stole out of this shard's queue.
    pub steals_out: u64,
    /// Requests answered from the cache on this shard's path (admission
    /// hits while routed here, plus late hits at dequeue). Always equals
    /// `cache_hits_home + cache_hits_replica + cache_hits_stolen`.
    pub cache_hits: u64,
    /// Cache hits while this shard was the graph's home shard
    /// (`fingerprint % shards`).
    pub cache_hits_home: u64,
    /// Cache hits while this shard served as a replica in a hot graph's
    /// grown routing set.
    pub cache_hits_replica: u64,
    /// Cache hits observed by jobs stolen out of this shard's backlog
    /// (executed elsewhere; attribution stays with the routed shard).
    pub cache_hits_stolen: u64,
    /// Submissions rejected because this shard's queue class was full.
    pub shed: u64,
    /// Hot fingerprints whose routing set grew onto this shard.
    pub replicas_hosted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affinity_only(shards: usize) -> Router {
        Router::new(
            shards,
            ReplicationConfig {
                threshold: 0,
                ..ReplicationConfig::default()
            },
        )
    }

    #[test]
    fn routing_is_deterministic_affinity() {
        let router = affinity_only(4);
        for fp in [0u64, 1, 5, 7, 1 << 40, u64::MAX] {
            let first = router.route(fp);
            assert_eq!(first.shard, (fp % 4) as usize);
            assert_eq!(first.home, first.shard);
            assert_eq!(first.replicas, 1);
            for _ in 0..32 {
                assert_eq!(router.route(fp), first, "same fp → same shard, always");
            }
        }
    }

    #[test]
    fn hot_fingerprint_replicates_and_round_robins() {
        let router = Router::new(
            4,
            ReplicationConfig {
                threshold: 8,
                window: Duration::from_secs(60),
                max_replicas: 3,
            },
        );
        let fp = 42u64; // home shard 2
        let mut replications = 0;
        let mut shards_seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = router.route(fp);
            shards_seen.insert(d.shard);
            replications += u32::from(d.replicated_now);
        }
        assert_eq!(replications, 2, "threshold crossed once per added replica");
        assert_eq!(router.replicas_of(fp), 3);
        assert_eq!(
            shards_seen,
            [2usize, 3, 0].into_iter().collect(),
            "routing set = consecutive shards after home, wrapping"
        );
        // A cold fingerprint is untouched by the hot one's routing set.
        assert_eq!(router.route(1).shard, 1);
    }

    #[test]
    fn replication_respects_shard_count_cap() {
        let router = Router::new(
            2,
            ReplicationConfig {
                threshold: 1,
                window: Duration::from_secs(60),
                max_replicas: 16, // clamped to 2
            },
        );
        for _ in 0..32 {
            router.route(9);
        }
        assert_eq!(router.replicas_of(9), 2);
    }

    #[test]
    fn slow_arrivals_never_replicate() {
        let router = Router::new(
            4,
            ReplicationConfig {
                threshold: 3,
                window: Duration::from_millis(10),
                max_replicas: 4,
            },
        );
        for _ in 0..3 {
            let d = router.route(7);
            assert!(!d.replicated_now);
            assert_eq!(d.replicas, 1);
            std::thread::sleep(Duration::from_millis(15)); // window lapses
        }
        assert_eq!(router.replicas_of(7), 1);
    }

    #[test]
    fn single_shard_short_circuits() {
        let router = Router::new(1, ReplicationConfig::default());
        for fp in 0..32u64 {
            assert_eq!(router.route(fp).shard, 0);
        }
        assert!(router.table.lock().unwrap().is_empty(), "no state tracked");
    }
}
