//! Process resource accounting: RSS, CPU time, context switches, fds —
//! and (behind the `alloc-track` feature) a counting global allocator.
//!
//! Everything reads Linux procfs (`/proc/self/status`, `/proc/self/stat`,
//! `/proc/self/fd`) with plain `std::fs`; on platforms without procfs
//! [`sample`] returns `None` and every consumer degrades gracefully (bench
//! metadata omits the fields, exposition skips the process families).
//!
//! The headline number is **peak RSS** (`VmHWM`): every bench JSON
//! certifies the memory high-water mark, so [`crate::expose`] publishes it
//! and the bench harness embeds it in `BENCH_*.json` run metadata.

use std::time::Duration;

/// Kernel tick length used by `/proc/self/stat` CPU fields. USER_HZ is
/// 100 on every Linux configuration this crate targets (the value has
/// been ABI-frozen for userspace since 2.6); reading it "properly" needs
/// `sysconf(_SC_CLK_TCK)`, i.e. libc, which this crate deliberately
/// avoids.
const CLK_TCK: f64 = 100.0;

/// One point-in-time reading of the process' resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceSample {
    /// Resident set size, bytes (`VmRSS`).
    pub rss_bytes: u64,
    /// Peak resident set size, bytes (`VmHWM`) — the high-water mark over
    /// the whole process lifetime.
    pub peak_rss_bytes: u64,
    /// User-mode CPU time consumed, seconds (`utime`, all threads).
    pub cpu_user_s: f64,
    /// Kernel-mode CPU time consumed, seconds (`stime`, all threads).
    pub cpu_sys_s: f64,
    /// Voluntary context switches (blocking waits).
    pub voluntary_ctx_switches: u64,
    /// Involuntary context switches (preemptions).
    pub involuntary_ctx_switches: u64,
    /// Open file descriptors.
    pub open_fds: u64,
}

impl ResourceSample {
    /// Total CPU time (user + sys) as a [`Duration`].
    pub fn cpu_total(&self) -> Duration {
        Duration::from_secs_f64((self.cpu_user_s + self.cpu_sys_s).max(0.0))
    }
}

/// `"Key:   12345 kB"` → `12345`, for `/proc/self/status` lines.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Parses the `utime`/`stime` fields (14 and 15, 1-based) out of
/// `/proc/self/stat`. The comm field (2) may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
fn cpu_times(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is state (field 3), so utime (14) is fields[11].
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime as f64 / CLK_TCK, stime as f64 / CLK_TCK))
}

/// Reads the current process' resource usage from procfs. `None` when
/// procfs is unavailable or unparsable (non-Linux platforms).
pub fn sample() -> Option<ResourceSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (cpu_user_s, cpu_sys_s) = cpu_times(&stat)?;
    let kb = 1024;
    Some(ResourceSample {
        rss_bytes: status_field(&status, "VmRSS:")? * kb,
        peak_rss_bytes: status_field(&status, "VmHWM:")? * kb,
        cpu_user_s,
        cpu_sys_s,
        voluntary_ctx_switches: status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0),
        involuntary_ctx_switches: status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0),
        // Counts the read_dir handle itself too; one-off error is noise
        // at the scales health checks care about.
        open_fds: std::fs::read_dir("/proc/self/fd")
            .map(|d| d.count() as u64)
            .unwrap_or(0),
    })
}

/// Counting wrapper around the system allocator, enabled by the
/// `alloc-track` cargo feature. Install it in a binary (or test) with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: asa_obs::resource::alloc_track::CountingAllocator =
///     asa_obs::resource::alloc_track::CountingAllocator;
/// ```
///
/// then read totals with [`alloc_track::stats`]. The accounting is four
/// relaxed atomics per allocation — measurable but small; that is why it
/// is opt-in per binary rather than always on.
#[cfg(feature = "alloc-track")]
pub mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static DEALLOCS: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Heap accounting totals since process start.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct AllocStats {
        /// Successful allocations (including the alloc half of realloc).
        pub allocs: u64,
        /// Deallocations (including the free half of realloc).
        pub deallocs: u64,
        /// Bytes currently live.
        pub live_bytes: u64,
        /// Largest `live_bytes` ever observed.
        pub high_water_bytes: u64,
    }

    /// Current totals. All zero unless a `CountingAllocator` is installed
    /// as the `#[global_allocator]`.
    pub fn stats() -> AllocStats {
        AllocStats {
            allocs: ALLOCS.load(Ordering::Relaxed),
            deallocs: DEALLOCS.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
            high_water_bytes: HIGH_WATER_BYTES.load(Ordering::Relaxed),
        }
    }

    fn on_alloc(bytes: u64) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        HIGH_WATER_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(bytes: u64) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        // Saturating: a dealloc of memory allocated before the counter
        // was installed must not wrap the live total.
        let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        });
    }

    /// The counting `#[global_allocator]`; see the module docs.
    pub struct CountingAllocator;

    // SAFETY: delegates allocation itself entirely to `System`; the
    // wrapper only updates atomics, which allocate nothing.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_field_parses_kb_lines() {
        let status = "Name:\tx\nVmRSS:\t  1234 kB\nVmHWM:\t  5678 kB\n";
        assert_eq!(status_field(status, "VmRSS:"), Some(1234));
        assert_eq!(status_field(status, "VmHWM:"), Some(5678));
        assert_eq!(status_field(status, "VmMissing:"), None);
    }

    #[test]
    fn cpu_times_skip_comm_with_spaces_and_parens() {
        // comm is "(weird name))" — fields count from the *last* ')'.
        let stat = "123 (weird name)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        let (u, s) = cpu_times(stat).unwrap();
        assert!((u - 2.5).abs() < 1e-9, "utime 250 ticks = 2.5 s, got {u}");
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn live_sample_is_plausible_on_linux() {
        let Some(s) = sample() else {
            return; // non-procfs platform: nothing to assert
        };
        assert!(s.rss_bytes > 0);
        assert!(s.peak_rss_bytes >= s.rss_bytes);
        assert!(s.open_fds > 0);
        assert!(s.cpu_user_s >= 0.0 && s.cpu_sys_s >= 0.0);
        assert!(s.cpu_total() >= Duration::ZERO);
    }
}
