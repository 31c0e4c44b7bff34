//! Algorithm **GOPT** — the paper's global-optimum proxy.
//!
//! The paper obtains near-global-optimal allocations with a genetic
//! algorithm (references Goldberg 1989 / Holland 1975) but omits the
//! details "for interest of space". This implementation uses the
//! standard grouping-GA design implied by those references:
//!
//! * chromosome — a length-`N` vector of channel genes,
//! * fitness — the (negated) Eq. 3 cost,
//! * tournament selection, uniform crossover, per-gene reset mutation,
//! * elitism, generation cap and stagnation cut-off,
//! * optional CDS polish of the final best individual (on by default),
//!   which mirrors how GA practitioners squeeze out the last local
//!   moves and keeps GOPT at or below every heuristic's cost — matching
//!   its role in the paper's figures. The paper itself notes GOPT's
//!   output "is still viewed as a suboptimum".

use dbcast_alloc::Cds;
use dbcast_model::{
    allocation_cost, AllocError, Allocation, ChannelAllocator, Database, ModelError,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Tunable parameters of [`Gopt`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoptConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop after this many generations without improvement.
    pub stagnation_limit: usize,
    /// Probability that a child is produced by crossover (otherwise it
    /// clones the first parent).
    pub crossover_rate: f64,
    /// Per-gene mutation probability; `None` means `1/N`.
    pub mutation_rate: Option<f64>,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of best individuals copied unchanged each generation.
    pub elites: usize,
    /// RNG seed; GOPT is deterministic given its config.
    pub seed: u64,
    /// Run a CDS local-search polish on the final best individual.
    pub polish: bool,
}

impl Default for GoptConfig {
    fn default() -> Self {
        GoptConfig {
            population: 100,
            max_generations: 600,
            stagnation_limit: 80,
            crossover_rate: 0.9,
            mutation_rate: None,
            tournament: 3,
            elites: 2,
            seed: 0,
            polish: true,
        }
    }
}

impl GoptConfig {
    fn validate(&self) -> Result<(), AllocError> {
        if self.population == 0 {
            return Err(AllocError::InvalidParameter {
                name: "population",
                constraint: "must be at least 1",
            });
        }
        if self.tournament == 0 {
            return Err(AllocError::InvalidParameter {
                name: "tournament",
                constraint: "must be at least 1",
            });
        }
        if self.elites > self.population {
            return Err(AllocError::InvalidParameter {
                name: "elites",
                constraint: "must not exceed population",
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(AllocError::InvalidParameter {
                name: "crossover_rate",
                constraint: "must lie in [0, 1]",
            });
        }
        if let Some(m) = self.mutation_rate {
            if !(0.0..=1.0).contains(&m) {
                return Err(AllocError::InvalidParameter {
                    name: "mutation_rate",
                    constraint: "must lie in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Diagnostics from a GOPT run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoptReport {
    /// Generations actually executed.
    pub generations: usize,
    /// Best cost after each generation (monotone non-increasing).
    pub best_cost_history: Vec<f64>,
    /// Whether the stagnation cut-off (rather than the cap) ended the run.
    pub stagnated: bool,
    /// Cost improvement contributed by the final CDS polish (0 when
    /// polish is disabled).
    pub polish_gain: f64,
}

/// The GOPT allocator.
///
/// # Example
///
/// ```
/// use dbcast_baselines::{Gopt, GoptConfig};
/// use dbcast_model::ChannelAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::WorkloadBuilder::new(20).seed(3).build()?;
/// let gopt = Gopt::new(GoptConfig { max_generations: 50, ..GoptConfig::default() });
/// let alloc = gopt.allocate(&db, 4)?;
/// assert_eq!(alloc.channels(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Gopt {
    config: GoptConfig,
}

impl Gopt {
    /// Creates the allocator with an explicit configuration.
    pub fn new(config: GoptConfig) -> Self {
        Gopt { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GoptConfig {
        &self.config
    }

    /// Runs the GA and returns the allocation plus run diagnostics.
    ///
    /// # Errors
    ///
    /// * [`AllocError::InvalidParameter`] for a bad configuration.
    /// * [`AllocError::Model`] for `channels == 0`.
    pub fn allocate_reported(
        &self,
        db: &Database,
        channels: usize,
    ) -> Result<(Allocation, GoptReport), AllocError> {
        self.config.validate()?;
        if channels == 0 {
            return Err(ModelError::ZeroChannels.into());
        }
        let n = db.len();
        let cfg = &self.config;
        let mutation = cfg.mutation_rate.unwrap_or(1.0 / n as f64);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        let eval = |genes: &[usize]| -> f64 {
            allocation_cost(db, channels, genes).expect("genes stay in range")
        };

        // Initial population: half uniform-random chromosomes for raw
        // diversity, half random *contiguous* partitions in descending
        // benefit-ratio order — the subspace where the paper's theory
        // (Property 1 / the DP formulation) locates strong allocations.
        // Selection, crossover and mutation still roam the full space.
        let order = db.ids_by_benefit_ratio_desc();
        let mut population: Vec<(Vec<usize>, f64)> = (0..cfg.population)
            .map(|individual| {
                let genes: Vec<usize> = if individual % 2 == 0 {
                    (0..n).map(|_| rng.gen_range(0..channels)).collect()
                } else {
                    random_contiguous_genes(&order, channels, n, &mut rng)
                };
                let cost = eval(&genes);
                (genes, cost)
            })
            .collect();
        population.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut best = population[0].clone();
        let mut history = vec![best.1];
        let mut stagnant = 0usize;
        let mut generations = 0usize;
        let mut stagnated = false;

        let tournament =
            |rng: &mut ChaCha8Rng, pop: &[(Vec<usize>, f64)], size: usize| -> usize {
                let mut winner = rng.gen_range(0..pop.len());
                for _ in 1..size {
                    let c = rng.gen_range(0..pop.len());
                    if pop[c].1 < pop[winner].1 {
                        winner = c;
                    }
                }
                winner
            };

        let evolve_span = dbcast_obs::span!("baselines.gopt.evolve");
        while generations < cfg.max_generations {
            let _gen_span = dbcast_obs::span!("baselines.gopt.generation");
            generations += 1;
            let mut next: Vec<(Vec<usize>, f64)> =
                population.iter().take(cfg.elites).cloned().collect();
            while next.len() < cfg.population {
                let p1 = tournament(&mut rng, &population, cfg.tournament);
                let mut child = if rng.gen::<f64>() < cfg.crossover_rate {
                    let p2 = tournament(&mut rng, &population, cfg.tournament);
                    let (a, b) = (&population[p1].0, &population[p2].0);
                    // Uniform crossover.
                    (0..n)
                        .map(|i| if rng.gen::<bool>() { a[i] } else { b[i] })
                        .collect::<Vec<usize>>()
                } else {
                    population[p1].0.clone()
                };
                for gene in child.iter_mut() {
                    if rng.gen::<f64>() < mutation {
                        *gene = rng.gen_range(0..channels);
                    }
                }
                let cost = eval(&child);
                next.push((child, cost));
            }
            next.sort_by(|a, b| a.1.total_cmp(&b.1));
            population = next;

            if population[0].1 < best.1 - 1e-12 {
                best = population[0].clone();
                stagnant = 0;
            } else {
                stagnant += 1;
            }
            history.push(best.1);
            if stagnant >= cfg.stagnation_limit {
                stagnated = true;
                break;
            }
        }
        drop(evolve_span);

        dbcast_obs::counter!("baselines.gopt.runs").inc();
        dbcast_obs::counter!("baselines.gopt.generations").add(generations as u64);

        let mut allocation = Allocation::from_assignment(db, channels, best.0)?;
        let mut polish_gain = 0.0;
        if cfg.polish {
            let before = allocation.total_cost();
            let refined = Cds::new().refine(db, allocation)?;
            allocation = refined.allocation;
            polish_gain = before - allocation.total_cost();
        }
        Ok((
            allocation,
            GoptReport { generations, best_cost_history: history, stagnated, polish_gain },
        ))
    }
}

/// A chromosome assigning channel `j` to the `j`-th segment of a
/// random contiguous split of `order` (cut positions drawn uniformly;
/// duplicate cuts leave channels empty, which Eq. 3 prices at zero).
fn random_contiguous_genes(
    order: &[dbcast_model::ItemId],
    channels: usize,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..channels - 1).map(|_| rng.gen_range(0..=n)).collect();
    cuts.sort_unstable();
    let mut genes = vec![0usize; n];
    let mut channel = 0usize;
    for (position, id) in order.iter().enumerate() {
        while channel < channels - 1 && position >= cuts[channel] {
            channel += 1;
        }
        genes[id.index()] = channel;
    }
    genes
}

impl ChannelAllocator for Gopt {
    fn name(&self) -> &str {
        "GOPT"
    }

    fn allocate(&self, db: &Database, channels: usize) -> Result<Allocation, AllocError> {
        Ok(self.allocate_reported(db, channels)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactBnB;
    use dbcast_workload::WorkloadBuilder;

    fn quick_config(seed: u64) -> GoptConfig {
        GoptConfig {
            population: 60,
            max_generations: 150,
            stagnation_limit: 40,
            seed,
            ..GoptConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let db = WorkloadBuilder::new(5).build().unwrap();
        for bad in [
            GoptConfig { population: 0, ..GoptConfig::default() },
            GoptConfig { tournament: 0, ..GoptConfig::default() },
            GoptConfig { elites: 101, population: 100, ..GoptConfig::default() },
            GoptConfig { crossover_rate: 1.5, ..GoptConfig::default() },
            GoptConfig { mutation_rate: Some(-0.1), ..GoptConfig::default() },
        ] {
            assert!(matches!(
                Gopt::new(bad).allocate(&db, 2),
                Err(AllocError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn rejects_zero_channels() {
        let db = WorkloadBuilder::new(5).build().unwrap();
        assert!(Gopt::default().allocate(&db, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let db = WorkloadBuilder::new(25).seed(1).build().unwrap();
        let g = Gopt::new(quick_config(7));
        let a = g.allocate(&db, 4).unwrap();
        let b = g.allocate(&db, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn best_cost_history_is_monotone() {
        let db = WorkloadBuilder::new(30).seed(2).build().unwrap();
        let (_, report) = Gopt::new(quick_config(3)).allocate_reported(&db, 4).unwrap();
        for w in report.best_cost_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn finds_global_optimum_on_small_instances() {
        for seed in 0..3 {
            let db = WorkloadBuilder::new(9).seed(seed).build().unwrap();
            let opt = ExactBnB::new().allocate(&db, 3).unwrap().total_cost();
            let gopt = Gopt::new(quick_config(seed)).allocate(&db, 3).unwrap().total_cost();
            assert!((gopt - opt).abs() < 1e-6, "seed {seed}: gopt {gopt} vs exact {opt}");
        }
    }

    #[test]
    fn polish_never_hurts() {
        let db = WorkloadBuilder::new(40).seed(4).build().unwrap();
        let unpolished = Gopt::new(GoptConfig { polish: false, ..quick_config(5) })
            .allocate(&db, 5)
            .unwrap()
            .total_cost();
        let polished = Gopt::new(quick_config(5)).allocate(&db, 5).unwrap().total_cost();
        assert!(polished <= unpolished + 1e-9);
    }

    #[test]
    fn beats_or_matches_drpcds_with_polish() {
        use dbcast_alloc::DrpCds;
        let mut wins = 0;
        for seed in 0..5 {
            let db = WorkloadBuilder::new(30).seed(seed).build().unwrap();
            let gopt = Gopt::new(quick_config(seed)).allocate(&db, 4).unwrap().total_cost();
            let drpcds = DrpCds::new().allocate(&db, 4).unwrap().total_cost();
            if gopt <= drpcds + 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= 4, "GOPT should almost always be at least as good");
    }

    #[test]
    fn stagnation_stops_early() {
        let db = WorkloadBuilder::new(10).seed(6).build().unwrap();
        let cfg =
            GoptConfig { stagnation_limit: 5, max_generations: 10_000, ..quick_config(1) };
        let (_, report) = Gopt::new(cfg).allocate_reported(&db, 2).unwrap();
        assert!(report.generations < 10_000);
        assert!(report.stagnated);
    }
}
