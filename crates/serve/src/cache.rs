//! Sharded LRU result cache with TTL.
//!
//! Keys are `(graph fingerprint, config hash)` — see
//! [`asa_graph::CsrGraph::fingerprint`] and [`crate::config_hash`]. Shards
//! are independent mutexed maps selected by key hash, so concurrent
//! workers rarely contend; within a shard, recency is a monotone tick
//! bumped on every hit and eviction removes the least-recently-used entry
//! (a linear scan — per-shard capacities are small by design, and a scan
//! over a dozen entries is cheaper than maintaining an intrusive list).
//! Entries older than the TTL are treated as absent and dropped on touch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asa_infomap::InfomapResult;
use asa_obs::Counter;

/// Cache key: `(graph fingerprint, config hash)`.
pub type CacheKey = (u64, u64);

#[derive(Debug)]
struct Entry {
    value: Arc<InfomapResult>,
    inserted: Instant,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
}

/// Sharded LRU+TTL cache for detection results. See the module docs.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    ttl: Duration,
    tick: AtomicU64,
    /// Entries dropped because their TTL elapsed (on touch or as a
    /// preferred eviction victim) — distinct from capacity pressure.
    expired: Counter,
    /// Live entries evicted by LRU capacity pressure.
    evicted: Counter,
}

impl ResultCache {
    /// A cache of at most `capacity` entries spread over `shards` shards
    /// (each shard holds `ceil(capacity / shards)`), expiring entries
    /// `ttl` after insertion. `capacity == 0` disables caching entirely.
    /// Every TTL-expiry drop counts on `expired`, every LRU-capacity
    /// eviction on `evicted`.
    pub fn new(
        capacity: usize,
        shards: usize,
        ttl: Duration,
        expired: Counter,
        evicted: Counter,
    ) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            ttl,
            tick: AtomicU64::new(0),
            expired,
            evicted,
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // The fingerprint halves are already well-mixed FNV output; fold
        // them and take the low bits.
        let h = key.0 ^ key.1.rotate_left(32);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit. Expired entries
    /// are removed and read as absent.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<InfomapResult>> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard_of(key).lock().unwrap();
        match shard.map.get_mut(key) {
            Some(entry) if entry.inserted.elapsed() <= self.ttl => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            Some(_) => {
                shard.map.remove(key);
                self.expired.incr();
                None
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the shard's least-recently
    /// used entry when the shard is full.
    pub fn insert(&self, key: CacheKey, value: Arc<InfomapResult>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_of(&key).lock().unwrap();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            // Prefer dropping anything already expired; otherwise the LRU.
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| (e.inserted.elapsed() <= self.ttl, e.last_used))
                .map(|(k, e)| (*k, e.inserted.elapsed() > self.ttl));
            if let Some((victim, was_expired)) = victim {
                shard.map.remove(&victim);
                if was_expired {
                    self.expired.incr();
                } else {
                    self.evicted.incr();
                }
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                inserted: Instant::now(),
                last_used: tick,
            },
        );
    }

    /// Entries currently resident (including not-yet-collected expired
    /// ones).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asa_graph::GraphBuilder;
    use asa_infomap::{detect_communities, InfomapConfig};
    use asa_obs::Obs;

    fn result() -> Arc<InfomapResult> {
        let mut b = GraphBuilder::undirected(4);
        for &(u, v) in &[(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        Arc::new(detect_communities(&b.build(), &InfomapConfig::default()))
    }

    /// A cache plus its `(expired, evicted)` drop counters.
    fn cache(capacity: usize, shards: usize, ttl: Duration) -> (ResultCache, Counter, Counter) {
        let obs = Obs::new_enabled();
        let (expired, evicted) = (obs.counter("t.expired"), obs.counter("t.evicted"));
        let cache = ResultCache::new(capacity, shards, ttl, expired.clone(), evicted.clone());
        (cache, expired, evicted)
    }

    #[test]
    fn hit_miss_and_counters() {
        let (cache, expired, evicted) = cache(8, 2, Duration::from_secs(60));
        let value = result();
        assert!(cache.get(&(1, 1)).is_none());
        cache.insert((1, 1), Arc::clone(&value));
        let got = cache.get(&(1, 1)).expect("hit");
        assert!(Arc::ptr_eq(&got, &value));
        assert_eq!((expired.value(), evicted.value()), (0, 0));
    }

    #[test]
    fn ttl_expires_entries() {
        let (cache, expired, evicted) = cache(8, 1, Duration::from_millis(10));
        cache.insert((1, 1), result());
        assert!(cache.get(&(1, 1)).is_some());
        std::thread::sleep(Duration::from_millis(20));
        assert!(cache.get(&(1, 1)).is_none(), "entry must expire after TTL");
        assert!(cache.is_empty(), "expired entry is dropped on touch");
        assert_eq!((expired.value(), evicted.value()), (1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard, capacity 2: touch (1,_) then insert a third key;
        // (2,_) is the LRU victim.
        let (cache, expired, evicted) = cache(2, 1, Duration::from_secs(60));
        cache.insert((1, 0), result());
        cache.insert((2, 0), result());
        assert!(cache.get(&(1, 0)).is_some());
        cache.insert((3, 0), result());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(1, 0)).is_some(), "recently used survives");
        assert!(cache.get(&(2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&(3, 0)).is_some());
        assert_eq!((expired.value(), evicted.value()), (0, 1));
    }

    #[test]
    fn zero_capacity_disables() {
        let (cache, _, _) = cache(0, 4, Duration::from_secs(60));
        cache.insert((1, 1), result());
        assert!(cache.get(&(1, 1)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let (cache, _, _) = cache(64, 8, Duration::from_secs(60));
        for k in 0..64u64 {
            cache.insert((k, k.wrapping_mul(0x9e37)), result());
        }
        assert!(cache.len() > 32, "most inserts must be resident");
        let mut hits = 0;
        for k in 0..64u64 {
            if cache.get(&(k, k.wrapping_mul(0x9e37))).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 32);
    }
}
