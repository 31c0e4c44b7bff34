//! Client request traces: Poisson arrivals with item choice following
//! the database's access frequencies.
//!
//! The paper evaluates allocations analytically; the trace machinery
//! feeds the trace simulator (`dbcast-sim`), which validates
//! the analytical model end-to-end.

use dbcast_model::{Database, ItemId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::WorkloadError;
use crate::zipf::Categorical;

/// One client request: at `time` seconds, a client asks for `item`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time in seconds since trace start.
    pub time: f64,
    /// The requested item.
    pub item: ItemId,
}

/// An ordered sequence of client requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RequestTrace {
    requests: Vec<Request>,
}

impl RequestTrace {
    /// Builds a trace from explicit requests, sorting them by arrival
    /// time (stable, so equal-time requests keep their given order).
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        requests.sort_by(|a, b| a.time.total_cmp(&b.time));
        RequestTrace { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Per-item request counts (index = item id).
    pub fn item_counts(&self, items: usize) -> Vec<usize> {
        let mut counts = vec![0usize; items];
        for r in &self.requests {
            if let Some(c) = counts.get_mut(r.item.index()) {
                *c += 1;
            }
        }
        counts
    }
}

impl FromIterator<Request> for RequestTrace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        RequestTrace::from_requests(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a RequestTrace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

/// Builds request traces over a database.
///
/// Arrivals form a Poisson process with rate `arrival_rate` requests per
/// second; each request targets item `j` with probability `f_j`.
///
/// # Example
///
/// ```
/// use dbcast_workload::{TraceBuilder, WorkloadBuilder};
/// # fn main() -> Result<(), dbcast_workload::WorkloadError> {
/// let db = WorkloadBuilder::new(20).seed(1).build()?;
/// let trace = TraceBuilder::new(&db)
///     .arrival_rate(5.0)
///     .requests(1_000)
///     .seed(9)
///     .build()?;
/// assert_eq!(trace.len(), 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceBuilder<'a> {
    db: &'a Database,
    arrival_rate: f64,
    requests: usize,
    seed: u64,
}

impl<'a> TraceBuilder<'a> {
    /// Starts a builder over `db` (rate 1 req/s, 1000 requests, seed 0).
    pub fn new(db: &'a Database) -> Self {
        TraceBuilder { db, arrival_rate: 1.0, requests: 1000, seed: 0 }
    }

    /// Sets the Poisson arrival rate in requests per second.
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Sets the number of requests to generate.
    pub fn requests(mut self, count: usize) -> Self {
        self.requests = count;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] if the arrival rate is not
    /// finite and positive.
    pub fn build(&self) -> Result<RequestTrace, WorkloadError> {
        if !self.arrival_rate.is_finite() || self.arrival_rate <= 0.0 {
            return Err(WorkloadError::InvalidParameter {
                name: "arrival_rate",
                value: self.arrival_rate,
                constraint: "must be finite and > 0",
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let items = Categorical::from_probabilities(self.db.iter().map(|d| d.frequency()));
        let mut requests = Vec::with_capacity(self.requests);
        let mut t = 0.0f64;
        for _ in 0..self.requests {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            t += -u.ln() / self.arrival_rate;
            let item = ItemId::new(items.sample(&mut rng));
            requests.push(Request { time: t, item });
        }
        Ok(RequestTrace { requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadBuilder;

    fn db() -> Database {
        WorkloadBuilder::new(10).skewness(1.0).seed(5).build().unwrap()
    }

    #[test]
    fn rejects_bad_rate() {
        let db = db();
        assert!(TraceBuilder::new(&db).arrival_rate(0.0).build().is_err());
        assert!(TraceBuilder::new(&db).arrival_rate(f64::NAN).build().is_err());
    }

    #[test]
    fn arrival_times_are_increasing() {
        let db = db();
        let trace = TraceBuilder::new(&db).requests(500).seed(2).build().unwrap();
        for w in trace.requests().windows(2) {
            assert!(w[0].time < w[1].time);
        }
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        let db = db();
        let rate = 4.0;
        let n = 50_000;
        let trace =
            TraceBuilder::new(&db).arrival_rate(rate).requests(n).seed(3).build().unwrap();
        let span = trace.requests().last().unwrap().time;
        let observed_rate = n as f64 / span;
        assert!((observed_rate - rate).abs() / rate < 0.05);
    }

    #[test]
    fn item_choice_follows_frequencies() {
        let db = db();
        let n = 100_000;
        let trace = TraceBuilder::new(&db).requests(n).seed(4).build().unwrap();
        let counts = trace.item_counts(db.len());
        for (i, d) in db.iter().enumerate() {
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - d.frequency()).abs() < 0.01,
                "item {i}: {observed} vs {}",
                d.frequency()
            );
        }
    }

    #[test]
    fn determinism_per_seed() {
        let db = db();
        let a = TraceBuilder::new(&db).requests(100).seed(8).build().unwrap();
        let b = TraceBuilder::new(&db).requests(100).seed(8).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_fine() {
        let db = db();
        let t = TraceBuilder::new(&db).requests(0).build().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.item_counts(db.len()), vec![0; db.len()]);
    }
}
