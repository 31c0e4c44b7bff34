//! Multi-item query workloads.

use dbcast_model::{Database, ItemId};
use dbcast_workload::Categorical;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A multi-item query: a set of distinct items a client needs, all of
/// them, before it is done.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    items: Vec<ItemId>,
}

impl Query {
    /// Creates a query, deduplicating and sorting the item set.
    ///
    /// # Panics
    ///
    /// Panics on an empty item list.
    pub fn new(mut items: Vec<ItemId>) -> Self {
        assert!(!items.is_empty(), "a query needs at least one item");
        items.sort_unstable();
        items.dedup();
        Query { items }
    }

    /// The items, sorted by id.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Always false (constructor rejects empty queries).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A weighted collection of queries plus arrival times for evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryWorkload {
    /// `(query, weight)` pairs; weights sum to 1.
    queries: Vec<(Query, f64)>,
    /// Evaluation arrival instants (seconds), strictly increasing.
    arrivals: Vec<(usize, f64)>,
}

impl QueryWorkload {
    /// The weighted query population.
    pub fn queries(&self) -> &[(Query, f64)] {
        &self.queries
    }

    /// Evaluation arrivals: `(query index, time)`.
    pub fn arrivals(&self) -> &[(usize, f64)] {
        &self.arrivals
    }
}

/// Builds query workloads: query sizes uniform in `1..=max_size`, items
/// drawn without replacement proportionally to their access
/// frequencies, query weights Zipf over query rank.
///
/// # Example
///
/// ```
/// use dbcast_query::QueryWorkloadBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::WorkloadBuilder::new(30).seed(1).build()?;
/// let qw = QueryWorkloadBuilder::new(&db)
///     .queries(50)
///     .max_size(4)
///     .arrivals(200, 2.0)
///     .seed(9)
///     .build();
/// assert_eq!(qw.queries().len(), 50);
/// assert_eq!(qw.arrivals().len(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueryWorkloadBuilder<'a> {
    db: &'a Database,
    queries: usize,
    max_size: usize,
    arrivals: usize,
    arrival_rate: f64,
    seed: u64,
}

impl<'a> QueryWorkloadBuilder<'a> {
    /// Starts a builder over `db` (50 queries, max size 3, 500 arrivals
    /// at 1/s, seed 0).
    pub fn new(db: &'a Database) -> Self {
        QueryWorkloadBuilder {
            db,
            queries: 50,
            max_size: 3,
            arrivals: 500,
            arrival_rate: 1.0,
            seed: 0,
        }
    }

    /// Sets the number of distinct queries in the population.
    pub fn queries(mut self, count: usize) -> Self {
        self.queries = count;
        self
    }

    /// Sets the maximum items per query (sizes are uniform `1..=max`).
    pub fn max_size(mut self, max: usize) -> Self {
        self.max_size = max.max(1);
        self
    }

    /// Sets the evaluation arrival count and Poisson rate.
    pub fn arrivals(mut self, count: usize, rate: f64) -> Self {
        self.arrivals = count;
        self.arrival_rate = rate;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics when `queries == 0` or the arrival rate is not positive.
    pub fn build(&self) -> QueryWorkload {
        assert!(self.queries > 0, "need at least one query");
        assert!(
            self.arrival_rate.is_finite() && self.arrival_rate > 0.0,
            "arrival rate must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let n = self.db.len();

        let item_cdf =
            Categorical::from_probabilities(self.db.iter().map(|d| d.frequency()));

        let mut queries = Vec::with_capacity(self.queries);
        for _ in 0..self.queries {
            let size = rng.gen_range(1..=self.max_size.min(n));
            let mut items = Vec::with_capacity(size);
            // Rejection-sample distinct items (cheap for size << n).
            let mut guard = 0;
            while items.len() < size && guard < 10_000 {
                let candidate = ItemId::new(item_cdf.sample(&mut rng));
                if !items.contains(&candidate) {
                    items.push(candidate);
                }
                guard += 1;
            }
            queries.push(Query::new(items));
        }

        // Zipf(1) weights over query rank.
        let weights: Vec<f64> = (1..=self.queries).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let weighted: Vec<(Query, f64)> =
            queries.into_iter().zip(weights).map(|(q, w)| (q, w / total)).collect();

        // Arrivals: Poisson instants, query index by weight.
        let query_cdf = Categorical::from_probabilities(weighted.iter().map(|&(_, w)| w));
        let mut arrivals = Vec::with_capacity(self.arrivals);
        let mut t = 0.0;
        for _ in 0..self.arrivals {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            t += -u.ln() / self.arrival_rate;
            arrivals.push((query_cdf.sample(&mut rng), t));
        }
        QueryWorkload { queries: weighted, arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_workload::WorkloadBuilder;

    #[test]
    fn query_deduplicates_and_sorts() {
        let q = Query::new(vec![ItemId::new(3), ItemId::new(1), ItemId::new(3)]);
        assert_eq!(q.items(), &[ItemId::new(1), ItemId::new(3)]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_query_panics() {
        let _ = Query::new(vec![]);
    }

    #[test]
    fn workload_shape_and_normalization() {
        let db = WorkloadBuilder::new(25).seed(2).build().unwrap();
        let qw = QueryWorkloadBuilder::new(&db)
            .queries(30)
            .max_size(5)
            .arrivals(100, 3.0)
            .seed(4)
            .build();
        assert_eq!(qw.queries().len(), 30);
        let wsum: f64 = qw.queries().iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        for (q, _) in qw.queries() {
            assert!((1..=5).contains(&q.len()));
            assert!(q.items().iter().all(|i| i.index() < 25));
        }
        let mut prev = 0.0;
        for &(qi, t) in qw.arrivals() {
            assert!(t > prev);
            prev = t;
            assert!(qi < 30);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let db = WorkloadBuilder::new(20).seed(1).build().unwrap();
        let a = QueryWorkloadBuilder::new(&db).seed(7).build();
        let b = QueryWorkloadBuilder::new(&db).seed(7).build();
        assert_eq!(a, b);
    }

    #[test]
    fn max_size_is_capped_by_database() {
        let db = WorkloadBuilder::new(3).seed(1).build().unwrap();
        let qw = QueryWorkloadBuilder::new(&db).max_size(10).queries(20).build();
        for (q, _) in qw.queries() {
            assert!(q.len() <= 3);
        }
    }
}
