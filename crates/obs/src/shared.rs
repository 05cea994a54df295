//! What concurrent callers of the same work share: its one execution
//! ([`SingleFlight`]) and a recency-ordered, byte-accounted map of its
//! results ([`ByteLru`]).
//!
//! Both are mechanism only. Which keys exist, how many bytes may stay,
//! and when an entry stops being valid are the caller's policy — the
//! repository's dataset cache and the query result cache are the two
//! callers, and each keeps its own.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Enter a lock even if a holder panicked: what these locks guard is
/// consistent between statements, and one caller's panic must not
/// become every later caller's.
fn enter<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How a [`SingleFlight::run`] call got its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The caller's own cache check answered; nothing ran.
    Hit,
    /// Nothing was cached or in flight: this caller led, and ran the
    /// work itself.
    Miss,
    /// Waited for a concurrent leader and shares its value.
    Coalesced,
}

impl FlightOutcome {
    /// Stable lowercase name for spans and logs.
    pub fn name(self) -> &'static str {
        match self {
            FlightOutcome::Hit => "hit",
            FlightOutcome::Miss => "miss",
            FlightOutcome::Coalesced => "coalesced",
        }
    }
}

/// Per-key rendezvous: concurrent calls for the same key run the work
/// once. The first caller to find no flight under its key leads; the
/// others wait and share the leader's value (an `Arc`, typically).
///
/// * The leader's closure returns only after it has published its value
///   wherever the cache check looks, so followers are released into a
///   world where the value is already resident.
/// * A leader that returns `Err` or panics still lands its flight:
///   followers wake, retry from the cache check, and one of them leads —
///   each surfaces its own typed error, or succeeds if the failure was
///   transient or particular to the leader (a deadline, say).
/// * The in-flight entry is gone before followers wake, so a retrying
///   follower never rejoins the flight that just failed.
/// * Poisoned locks are entered, not propagated.
#[derive(Debug)]
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

/// One in-progress execution. `landed` is `None` while the leader runs,
/// then `Some(Some(value))`, or `Some(None)` for a failed leader.
#[derive(Debug)]
struct Flight<V> {
    landed: Mutex<Option<Option<V>>>,
    arrived: Condvar,
}

/// The leader's obligation to land its flight, met on drop so that a
/// panicking leader meets it too.
struct Landing<'a, K: Borrow<Q> + Hash + Eq, Q: Hash + Eq + ?Sized, V> {
    flights: &'a SingleFlight<K, V>,
    key: &'a Q,
    flight: &'a Flight<V>,
    value: Option<V>,
}

impl<K: Borrow<Q> + Hash + Eq, Q: Hash + Eq + ?Sized, V> Drop for Landing<'_, K, Q, V> {
    fn drop(&mut self) {
        *enter(&self.flight.landed) = Some(self.value.take());
        enter(&self.flights.inflight).remove(self.key);
        self.flight.arrived.notify_all();
    }
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight { inflight: Mutex::new(HashMap::new()) }
    }
}

impl<K: Hash + Eq, V: Clone> SingleFlight<K, V> {
    /// The value for `key`: from `cached` if it answers, else from one
    /// execution of `lead` shared by every concurrent caller of the same
    /// key. `cached` runs again after every failed flight this caller
    /// waited on, and once more when it takes the lead; `lead` runs at
    /// most once per call.
    pub fn run<Q, E>(
        &self,
        key: &Q,
        cached: impl Fn() -> Option<V>,
        lead: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, FlightOutcome), E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut lead = Some(lead);
        loop {
            if let Some(value) = cached() {
                return Ok((value, FlightOutcome::Hit));
            }
            let (flight, leader) = {
                let mut inflight = enter(&self.inflight);
                match inflight.get(key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight =
                            Arc::new(Flight { landed: Mutex::new(None), arrived: Condvar::new() });
                        inflight.insert(key.to_owned(), Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if leader {
                let mut landing = Landing { flights: self, key, flight: &flight, value: None };
                // A check that missed just before an earlier leader
                // landed finds no flight, so its caller leads: the value
                // that leader published answers it, and anyone who has
                // joined this flight since.
                if let Some(value) = cached() {
                    landing.value = Some(value.clone());
                    return Ok((value, FlightOutcome::Hit));
                }
                let lead = lead.take().expect("a caller that led has returned");
                let value = lead()?;
                landing.value = Some(value.clone());
                return Ok((value, FlightOutcome::Miss));
            }
            let mut landed = enter(&flight.landed);
            while landed.is_none() {
                landed = flight.arrived.wait(landed).unwrap_or_else(|p| p.into_inner());
            }
            if let Some(Some(value)) = landed.clone() {
                return Ok((value, FlightOutcome::Coalesced));
            }
        }
    }

    /// Is no flight in progress? (A finished flight, failed or not, must
    /// leave nothing behind.)
    pub fn is_idle(&self) -> bool {
        enter(&self.inflight).is_empty()
    }
}

/// A map that knows its entries' sizes and the order they were last
/// used in. It evicts nothing on its own: the caller states its bounds
/// by calling [`ByteLru::pop_lru`] until they hold.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Tick of last use → key; the first entry is the least recent.
    order: BTreeMap<u64, K>,
    bytes: u64,
    tick: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: u64,
    used: u64,
}

impl<K, V> Default for ByteLru<K, V> {
    fn default() -> Self {
        ByteLru { entries: HashMap::new(), order: BTreeMap::new(), bytes: 0, tick: 0 }
    }
}

impl<K: Hash + Eq + Clone, V> ByteLru<K, V> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of the sizes the held entries were inserted at.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Look `key` up and make it the most recently used. The key already
    /// in the order is moved to its new place, not cloned.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.get_mut(key)?;
        let owned = self.order.remove(&slot.used).expect("every entry has its place in the order");
        self.tick += 1;
        slot.used = self.tick;
        self.order.insert(self.tick, owned);
        Some(&slot.value)
    }

    /// Look `key` up without touching recency: its value and the bytes it
    /// was inserted at.
    pub fn peek<Q>(&self, key: &Q) -> Option<(&V, u64)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|slot| (&slot.value, slot.bytes))
    }

    /// Insert `value` at `bytes` as the most recently used entry. An
    /// entry already under `key` is replaced, its bytes given back first.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) {
        self.remove(&key);
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        self.entries.insert(key, Slot { value, bytes, used: self.tick });
        self.bytes += bytes;
    }

    /// Remove one entry; its value and the bytes it was held at.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<(V, u64)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.remove(key)?;
        self.order.remove(&slot.used);
        self.bytes -= slot.bytes;
        Some((slot.value, slot.bytes))
    }

    /// Remove the least recently used entry; `None` when empty.
    pub fn pop_lru(&mut self) -> Option<(K, V, u64)> {
        let (_, key) = self.order.pop_first()?;
        let slot = self.entries.remove(&key).expect("every place in the order has its entry");
        self.bytes -= slot.bytes;
        Some((key, slot.value, slot.bytes))
    }

    /// Every entry, in no particular order and without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, slot)| (key, &slot.value))
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        *self = ByteLru::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// `n` threads released together, each running `call` once.
    fn stampede<T: Send + 'static>(
        n: usize,
        call: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<std::thread::Result<T>> {
        let barrier = Arc::new(Barrier::new(n));
        let call = Arc::new(call);
        let threads: Vec<_> = (0..n)
            .map(|i| {
                let (barrier, call) = (Arc::clone(&barrier), Arc::clone(&call));
                std::thread::spawn(move || {
                    barrier.wait();
                    call(i)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join()).collect()
    }

    #[test]
    fn concurrent_callers_are_one_execution_and_equal_values() {
        // The leader publishes before it lands, so with a cache in the
        // loop N callers are exactly one execution and N equal values.
        let flights = Arc::new(SingleFlight::<u64, Arc<u32>>::default());
        let cache = Arc::new(Mutex::new(None::<Arc<u32>>));
        let executions = Arc::new(AtomicUsize::new(0));
        let (f, c, e) = (Arc::clone(&flights), Arc::clone(&cache), Arc::clone(&executions));
        let results = stampede(12, move |_| {
            f.run::<u64, ()>(
                &9,
                || c.lock().unwrap().clone(),
                || {
                    e.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    let value = Arc::new(7);
                    *c.lock().unwrap() = Some(Arc::clone(&value));
                    Ok(value)
                },
            )
            .unwrap()
            .0
        });
        let values: Vec<Arc<u32>> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert!(values.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn failed_leader_wakes_followers_who_surface_their_own_error() {
        let flights = Arc::new(SingleFlight::<u64, Arc<u32>>::default());
        let f = Arc::clone(&flights);
        let results = stampede(8, move |i| {
            f.run(
                &3,
                || None,
                || {
                    std::thread::sleep(Duration::from_millis(10));
                    Err(i)
                },
            )
        });
        for (i, result) in results.into_iter().enumerate() {
            // Nobody is handed a neighbour's failure: each caller ends up
            // leading a flight itself and reports what its own run said.
            assert_eq!(result.unwrap().unwrap_err(), i);
        }
        assert!(flights.is_idle(), "failed flights leave nothing in flight");
    }

    #[test]
    fn panicked_leader_wakes_followers_who_retry() {
        let flights = Arc::new(SingleFlight::<u64, Arc<u32>>::default());
        let attempts = Arc::new(AtomicUsize::new(0));
        let (f, a) = (Arc::clone(&flights), Arc::clone(&attempts));
        let results = stampede(8, move |_| {
            f.run::<u64, ()>(
                &5,
                || None,
                || {
                    let first = a.fetch_add(1, Ordering::SeqCst) == 0;
                    std::thread::sleep(Duration::from_millis(30));
                    assert!(!first, "the first leader dies mid-flight");
                    Ok(Arc::new(1))
                },
            )
        });
        let panicked = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "only the first leader panics");
        for result in results.into_iter().flatten() {
            assert_eq!(*result.unwrap().0, 1, "everyone else got a value from a later flight");
        }
        assert!(attempts.load(Ordering::SeqCst) >= 2);
        assert!(flights.is_idle(), "a panicked flight leaves nothing in flight");
    }

    #[test]
    fn a_leader_whose_check_missed_a_landed_value_takes_it_and_runs_nothing() {
        // The first check misses; by the time this caller leads, an
        // earlier leader has published, and the second check sees it.
        let flights = SingleFlight::<u64, Arc<u32>>::default();
        let checks = AtomicUsize::new(0);
        let cached = || (checks.fetch_add(1, Ordering::SeqCst) > 0).then(|| Arc::new(4));
        let (value, outcome) = flights
            .run::<u64, ()>(&1, cached, || panic!("the landed value answers; lead never runs"))
            .unwrap();
        assert_eq!((*value, outcome), (4, FlightOutcome::Hit));
        assert_eq!(checks.load(Ordering::SeqCst), 2);
        assert!(flights.is_idle(), "the flight it took the lead of has landed");
    }

    #[test]
    fn lru_orders_by_last_use() {
        let mut lru = ByteLru::<String, u32>::default();
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            lru.insert(key.to_owned(), i as u32, 10);
        }
        assert_eq!(lru.get("a"), Some(&0));
        assert_eq!(lru.get("missing"), None);
        assert_eq!((lru.len(), lru.bytes()), (3, 30));
        let popped: Vec<String> = std::iter::from_fn(|| lru.pop_lru()).map(|(k, ..)| k).collect();
        assert_eq!(popped, ["b", "c", "a"], "a was used last");
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }

    #[test]
    fn lru_peek_leaves_the_order_alone() {
        let mut lru = ByteLru::<String, u32>::default();
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            lru.insert(key.to_owned(), i as u32, 10 + i as u64);
        }
        assert_eq!(lru.peek("a"), Some((&0, 10)));
        assert_eq!(lru.peek("c"), Some((&2, 12)));
        assert_eq!(lru.peek("missing"), None);
        let popped: Vec<String> = std::iter::from_fn(|| lru.pop_lru()).map(|(k, ..)| k).collect();
        assert_eq!(popped, ["a", "b", "c"], "a peek is not a use");
    }

    #[test]
    fn lru_replaces_in_place_and_gives_bytes_back() {
        let mut lru = ByteLru::<u64, &str>::default();
        lru.insert(1, "one", 100);
        lru.insert(2, "two", 50);
        lru.insert(1, "uno", 30);
        assert_eq!((lru.len(), lru.bytes()), (2, 80));
        assert_eq!(lru.pop_lru(), Some((2, "two", 50)), "the replaced key is the newest");
        assert_eq!(lru.remove(&1), Some(("uno", 30)));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn lru_pop_on_empty_and_clear() {
        let mut lru = ByteLru::<u64, ()>::default();
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
        lru.insert(1, (), 8);
        lru.insert(2, (), 8);
        assert_eq!(lru.iter().count(), 2);
        lru.clear();
        assert_eq!((lru.len(), lru.bytes(), lru.pop_lru()), (0, 0, None));
    }
}
