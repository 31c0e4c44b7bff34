//! Hot program swap: a generation-counted publication cell that lets
//! reader threads pick up the newest broadcast program without ever
//! blocking on the re-allocator.
//!
//! [`EpochCell`] holds one `Arc` to the newest value behind an
//! `RwLock`, fronted by an atomic generation counter. Readers take the
//! read lock only for the nanoseconds of an `Arc` clone; the publisher
//! takes the write lock only to swap the pointer, and drops the
//! replaced `Arc` after releasing it. No reader ever waits on
//! allocation work, and the cell keeps no replaced generation alive:
//! one lives on only while a reader still holds its `Arc`.
//!
//! Each published value carries its generation number, so in-flight
//! requests hold an `Arc` to the exact generation that served them and
//! their waiting time is accounted to it even after a swap — the
//! "reallocate while serving" bookkeeping of dynamic windows
//! rescheduling (Farach-Colton et al.).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A value stamped with the generation that published it.
#[derive(Debug)]
pub struct Versioned<T> {
    /// Monotone publication counter (0 = the initial value).
    pub generation: u64,
    /// The published value.
    pub value: T,
}

/// Single-writer, many-reader generation-counted publication cell.
///
/// # Example
///
/// ```
/// use dbcast_serve::EpochCell;
///
/// let cell = EpochCell::new("v0");
/// assert_eq!(cell.current().generation, 0);
/// cell.publish("v1");
/// let cur = cell.current();
/// assert_eq!((cur.generation, cur.value), (1, "v1"));
/// ```
#[derive(Debug)]
pub struct EpochCell<T> {
    value: RwLock<Arc<Versioned<T>>>,
    /// The published generation, readable without the lock (the serve
    /// loop stamps every tick's flight events with it).
    generation: AtomicU64,
}

impl<T> EpochCell<T> {
    /// Creates the cell holding `initial` as generation 0.
    pub fn new(initial: T) -> Self {
        EpochCell {
            value: RwLock::new(Arc::new(Versioned { generation: 0, value: initial })),
            generation: AtomicU64::new(0),
        }
    }

    /// The latest published generation number.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Returns the current value: an `Arc` clone, which waits at most
    /// for a publisher's pointer swap, never for its re-allocation work.
    pub fn current(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.value.read().expect("epoch cell poisoned"))
    }

    /// Publishes `value` as the next generation and returns its number.
    ///
    /// Intended for a single writer (the serving runtime): concurrent
    /// publishers would each read the same generation and publish it
    /// twice.
    pub fn publish(&self, value: T) -> u64 {
        let gen = self.generation.load(Ordering::Acquire) + 1;
        let next = Arc::new(Versioned { generation: gen, value });
        let replaced = {
            let mut slot = self.value.write().expect("epoch cell poisoned");
            // Bumped under the lock: a reader never gets a value newer
            // than the counter it reads afterwards.
            self.generation.store(gen, Ordering::Release);
            std::mem::replace(&mut *slot, next)
        };
        // A replaced generation's program can be large; free it (when no
        // reader still holds it) outside the lock.
        drop(replaced);
        gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn publish_bumps_generation_and_value() {
        let cell = EpochCell::new(10);
        assert_eq!(cell.current().value, 10);
        assert_eq!(cell.publish(20), 1);
        assert_eq!(cell.publish(30), 2);
        let cur = cell.current();
        assert_eq!(cur.generation, 2);
        assert_eq!(cur.value, 30);
        assert_eq!(cell.generation(), 2);
    }

    #[test]
    fn every_publish_replaces_the_current_value() {
        let cell = EpochCell::new(0usize);
        for i in 1..=192 {
            cell.publish(i);
            assert_eq!(cell.current().value, i);
        }
    }

    #[test]
    fn old_generations_stay_alive_through_held_arcs() {
        let cell = EpochCell::new(String::from("old"));
        let held = cell.current();
        cell.publish(String::from("new"));
        assert_eq!(held.value, "old");
        assert_eq!(held.generation, 0);
        assert_eq!(cell.current().value, "new");
    }

    #[test]
    fn readers_always_see_a_complete_value_under_concurrency() {
        let cell = Arc::new(EpochCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let cur = cell.current();
                        // Generation stamps the value: they always agree,
                        // and time never goes backwards.
                        assert_eq!(cur.generation, cur.value);
                        assert!(cur.generation >= last);
                        last = cur.generation;
                    }
                });
            }
            for i in 1..=10_000u64 {
                cell.publish(i);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.current().value, 10_000);
    }
}
