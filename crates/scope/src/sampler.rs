//! The background sampler: a thread that scrapes the global obs
//! registry into a [`SeriesStore`] on a fixed cadence and runs the
//! watchdog after every scrape. One scrape is a registry walk plus one
//! bounded append per metric, with no name allocations in steady state,
//! so leaving the sampler on in production is the expected
//! configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::store::SeriesStore;
use crate::watchdog::Watchdog;

/// How often the sampler wakes to honour a stop request while
/// sleeping out a long cadence.
const STOP_POLL: Duration = Duration::from_millis(25);

/// One scrape: snapshot the registry, append every metric, run the
/// watchdog at the scrape's `(tick, wall_ms)` stamp. Public so tests
/// and the benchmark suite can drive scrapes deterministically.
pub fn sample_once(store: &SeriesStore, watchdog: &Mutex<Watchdog>) {
    let _span = dbcast_obs::span!("scope.sampler.scrape");
    dbcast_obs::counter!("scope.sampler.scrapes").inc();
    let (tick, wall_ms) = store.append_global();
    watchdog.lock().expect("watchdog poisoned").check_at(store, tick, wall_ms);
}

/// A running background sampler. Dropping it (or calling
/// [`stop`](Self::stop)) joins the thread.
pub struct Sampler {
    store: Arc<SeriesStore>,
    watchdog: Arc<Mutex<Watchdog>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler").field("running", &self.handle.is_some()).finish()
    }
}

impl Sampler {
    /// Starts scraping into `store` every `cadence`, evaluating
    /// `watchdog` after each scrape. An initial scrape runs
    /// immediately so the store is never empty while the sampler is
    /// alive.
    pub fn start(
        store: Arc<SeriesStore>,
        watchdog: Watchdog,
        cadence: Duration,
    ) -> std::io::Result<Sampler> {
        let watchdog = Arc::new(Mutex::new(watchdog));
        let stop = Arc::new(AtomicBool::new(false));
        let (t_store, t_dog, t_stop) =
            (Arc::clone(&store), Arc::clone(&watchdog), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("dbcast-scope-sampler".into())
            .spawn(move || {
                while !t_stop.load(Ordering::Acquire) {
                    sample_once(&t_store, &t_dog);
                    let mut slept = Duration::ZERO;
                    while slept < cadence && !t_stop.load(Ordering::Acquire) {
                        let chunk = STOP_POLL.min(cadence - slept);
                        std::thread::sleep(chunk);
                        slept += chunk;
                    }
                }
            })?;
        Ok(Sampler { store, watchdog, stop, handle: Some(handle) })
    }

    /// The store being scraped into.
    pub fn store(&self) -> &Arc<SeriesStore> {
        &self.store
    }

    /// Latched watchdog firings so far (callable while running).
    pub fn firings(&self) -> Vec<crate::watchdog::Firing> {
        self.watchdog.lock().expect("watchdog poisoned").firings().to_vec()
    }

    /// Stops the thread, takes one final scrape (so short runs always
    /// end with fresh data and a final watchdog pass), and returns the
    /// latched firings.
    pub fn stop(mut self) -> Vec<crate::watchdog::Firing> {
        self.join();
        sample_once(&self.store, &self.watchdog);
        self.firings()
    }

    fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ScopeConfig;
    use crate::watchdog::parse_rules;

    #[test]
    fn sampler_scrapes_on_cadence_and_stops_cleanly() {
        // Registry contents persist across tests in this binary; use a
        // dedicated store and just assert it fills up.
        dbcast_obs::registry().counter("scope.test.sampler_ticks").force_add(3);
        let store = Arc::new(SeriesStore::new(ScopeConfig {
            tick_counter: "scope.test.sampler_ticks".to_string(),
            ..ScopeConfig::default()
        }));
        let sampler = Sampler::start(
            Arc::clone(&store),
            Watchdog::new(parse_rules("").unwrap()),
            Duration::from_millis(5),
        )
        .expect("sampler starts");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.series_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let firings = sampler.stop();
        assert!(firings.is_empty());
        assert!(store.series_count() > 0, "sampler never scraped");
        assert_eq!(store.latest_tick(), 3);
    }
}
