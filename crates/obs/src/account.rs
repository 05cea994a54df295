//! Per-thread read accounts: the repository reads one scope made.
//!
//! The metrics registry sums every thread's reads, so it cannot say which
//! query made them. [`account_reads`] opens a scope on the calling thread
//! — the shape of [`collect_local`](crate::collect_local) for spans — and
//! the repository adds each read's outcome to it with [`record_read`], a
//! no-op when no scope is open. What another thread reads meanwhile is
//! not this scope's, and an account does not depend on whether the
//! registry is enabled.

use std::cell::Cell;

/// Repository reads made inside one [`account_reads`] scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadAccount {
    /// Loads answered from the dataset cache.
    pub cache_hits: u64,
    /// Loads that went to disk, whole or pruned.
    pub cache_misses: u64,
    /// Pruned (scan-spec-restricted) reads.
    pub scan_pruned: u64,
    /// Container bytes decoded by pruned reads.
    pub scan_bytes_read: u64,
    /// Container bytes skipped by pruned reads.
    pub scan_bytes_skipped: u64,
    /// Chromosome blocks decoded by pruned reads.
    pub scan_blocks_read: u64,
    /// Chromosome blocks skipped by pruned reads.
    pub scan_blocks_skipped: u64,
}

thread_local! {
    /// The account of the innermost open scope on this thread.
    static OPEN: Cell<Option<ReadAccount>> = const { Cell::new(None) };
}

/// Run `f` and return the repository reads it made on this thread. An
/// inner scope keeps its reads to itself.
pub fn account_reads<T>(f: impl FnOnce() -> T) -> (T, ReadAccount) {
    let outer = OPEN.with(|open| open.replace(Some(ReadAccount::default())));
    let out = f();
    let account = OPEN.with(|open| open.replace(outer)).unwrap_or_default();
    (out, account)
}

/// Add one read to this thread's open account, if there is one.
pub fn record_read(add: impl FnOnce(&mut ReadAccount)) {
    OPEN.with(|open| {
        if let Some(mut account) = open.get() {
            add(&mut account);
            open.set(Some(account));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_counts_its_own_thread_only() {
        record_read(|a| a.cache_hits += 1);
        let ((), account) = account_reads(|| {
            record_read(|a| a.cache_misses += 1);
            std::thread::spawn(|| record_read(|a| a.cache_misses += 1)).join().unwrap();
            let ((), inner) = account_reads(|| record_read(|a| a.scan_pruned += 1));
            assert_eq!(inner, ReadAccount { scan_pruned: 1, ..ReadAccount::default() });
        });
        assert_eq!(account, ReadAccount { cache_misses: 1, ..ReadAccount::default() });
        let ((), empty) = account_reads(|| ());
        assert_eq!(empty, ReadAccount::default(), "no scope was left open");
    }
}
