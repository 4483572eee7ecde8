"""Algorithm 2: genetic search for the optimal (rank bound, lambda).

Section 3.4: the estimation quality is an *invisible* function
``f(r, lambda)`` of the two parameters of Algorithm 1, so the paper
tunes them with a real-coded genetic algorithm — no analytical form of
the objective is needed; estimate errors serve as fitness.

Fitness evaluation: a fraction of the *observed* cells is hidden as a
validation set, Algorithm 1 runs on the remainder, and the candidate's
fitness is the NMAE on the hidden cells.  (The true missing cells have
no ground truth at tuning time, so validation must come from the
observations — this matches how the paper can run Algorithm 2 "once for
a given set of road segments" in deployment.)

GA structure follows the pseudocode: random uniform initialization
within the parameter bounds; per generation an elite *selection*, a
*crossover* group bred by roulette-wheel parent choice, and a *mutation*
group where one gene is reset to a random value in its domain;
termination after a fixed number of generations or on fitness stall.
``lambda`` is searched in log space (its useful range spans six decades,
Figure 16).

Fitness is the hot path — Algorithm 1 runs once per individual per
generation — so two optimizations apply:

* **Memoization** on the quantized ``(rank, log10 lambda)`` genome:
  elite selection and crossover routinely re-breed individuals the GA
  has already scored, and a cache hit skips the whole ALS run.  Stats
  land in :attr:`TuningResult.cache_stats`.
* **Parallel evaluation**: each generation's new genomes are created
  (and their completer seeds drawn) serially from the master stream,
  then scored concurrently via :func:`repro.utils.parallel.parallel_map`
  when ``max_workers`` is set.  Results are bit-identical to the serial
  order because every random decision precedes the fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.completion import CompressiveSensingCompleter, DTypeLike
from repro.core.tcm import TrafficConditionMatrix
from repro.metrics.errors import nmae
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_matrix_pair

# Quantization of log10(lambda) for fitness-memoization keys: two
# lambdas within ~2e-6 relative of each other are the same genome for
# caching purposes (far finer than the GA's search resolution).
_LOG_LAM_QUANTUM = 1e-6


@dataclass(frozen=True)
class Candidate:
    """One GA individual: a (rank, lambda) pair with its fitness (NMAE)."""

    rank: int
    lam: float
    fitness: float


@dataclass(frozen=True)
class FitnessCacheStats:
    """Fitness-memoization counters for one :meth:`GeneticTuner.tune` run.

    Attributes
    ----------
    evaluations:
        Algorithm 1 runs actually performed.
    hits:
        Individuals whose fitness was served from the genome cache.
    """

    evaluations: int
    hits: int

    @property
    def requested(self) -> int:
        """Total fitness lookups (evaluations + hits)."""
        return self.evaluations + self.hits


@dataclass(frozen=True)
class TuningResult:
    """Output of Algorithm 2.

    Attributes
    ----------
    rank, lam:
        The best parameters found.
    fitness:
        Validation NMAE of the best individual (lower is better).
    generations_run:
        Number of generations actually executed.
    history:
        Best fitness after each generation.
    population:
        Final population, best first.
    cache_stats:
        Fitness memoization counters (``None`` on results built by
        legacy callers).
    """

    rank: int
    lam: float
    fitness: float
    generations_run: int
    history: List[float]
    population: List[Candidate]
    cache_stats: Optional[FitnessCacheStats] = None


@dataclass(frozen=True)
class _FitnessTask:
    """Everything one fitness evaluation needs, prepared up front.

    Module-level and fully self-contained so the evaluation function is
    picklable and the task can be dispatched to any
    :func:`repro.utils.parallel.parallel_map` backend.
    """

    rank: int
    lam: float
    seed: int
    train_m: np.ndarray
    train_mask: np.ndarray
    values: np.ndarray
    val_mask: np.ndarray
    iterations: int
    dtype: DTypeLike = None


def _evaluate_fitness(task: _FitnessTask) -> float:
    """Run Algorithm 1 for one genome; NMAE on the hidden validation cells."""
    completer = CompressiveSensingCompleter(
        rank=task.rank,
        lam=task.lam,
        iterations=task.iterations,
        dtype=task.dtype,
        seed=task.seed,
    )
    result = completer.complete(task.train_m, task.train_mask)
    return nmae(task.values, result.estimate, task.val_mask)


def _genome_key(rank: int, lam: float) -> Tuple[int, int]:
    """Memoization key: the quantized (rank, log10 lambda) genome."""
    return rank, int(round(math.log10(lam) / _LOG_LAM_QUANTUM))


@dataclass
class _EvalSession:
    """Per-``tune()`` evaluation state: data split, cache, counters."""

    train_m: np.ndarray
    train_mask: np.ndarray
    values: np.ndarray
    val_mask: np.ndarray
    cache: Dict[Tuple[int, int], float] = field(default_factory=dict)
    evaluations: int = 0
    hits: int = 0

    def stats(self) -> FitnessCacheStats:
        return FitnessCacheStats(evaluations=self.evaluations, hits=self.hits)


class GeneticTuner:
    """Genetic search over Algorithm 1's (r, lambda).

    Parameters
    ----------
    rank_bounds:
        Inclusive (low, high) for the rank bound; the paper sets the low
        bound to 1 and the high bound via Eq. 18 (min(m, n)); callers
        usually cap it far lower.
    lam_bounds:
        (low, high) for lambda, searched in log space.
    population_size:
        Individuals per generation.
    generations:
        Maximum generations (fixed-iteration termination, as the paper
        adopts).
    elite_fraction, crossover_fraction:
        Composition of the next generation; the remainder is mutants.
    validation_fraction:
        Share of observed cells hidden for fitness evaluation.
    stall_generations:
        Early stop after this many generations without improvement
        (``None`` disables; the pseudocode's ``stall(fitness)``).
    completer_iterations:
        ALS sweeps per fitness evaluation (kept below the paper's 100
        because tuning runs Algorithm 1 population x generations times).
    dtype:
        Working dtype for the fitness completions (float32 makes
        tuning — population x generations ALS runs — proportionally
        cheaper).
    max_workers:
        Evaluate each generation's genomes on a thread pool of this
        size (``None``/``1`` = serial; results identical either way).
    seed:
        Master random stream.
    """

    def __init__(
        self,
        rank_bounds: Tuple[int, int] = (1, 32),
        lam_bounds: Tuple[float, float] = (1e-3, 2e3),
        population_size: int = 12,
        generations: int = 8,
        elite_fraction: float = 0.25,
        crossover_fraction: float = 0.5,
        validation_fraction: float = 0.25,
        stall_generations: Optional[int] = 4,
        completer_iterations: int = 30,
        dtype: DTypeLike = None,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        lo_r, hi_r = rank_bounds
        if lo_r < 1 or hi_r < lo_r:
            raise ValueError(f"invalid rank_bounds {rank_bounds}")
        lo_l, hi_l = lam_bounds
        if lo_l <= 0 or hi_l < lo_l:
            raise ValueError(f"invalid lam_bounds {lam_bounds}")
        if population_size < 3:
            raise ValueError("population_size must be >= 3")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        check_fraction(elite_fraction, "elite_fraction")
        check_fraction(crossover_fraction, "crossover_fraction")
        if elite_fraction + crossover_fraction > 1.0:
            raise ValueError("elite_fraction + crossover_fraction must be <= 1")
        check_fraction(validation_fraction, "validation_fraction")
        if not 0 < validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if stall_generations is not None and stall_generations < 1:
            raise ValueError("stall_generations must be >= 1 or None")
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self.rank_bounds = (int(lo_r), int(hi_r))
        self.lam_bounds = (float(lo_l), float(hi_l))
        self.population_size = population_size
        self.generations = generations
        self.elite_fraction = elite_fraction
        self.crossover_fraction = crossover_fraction
        self.validation_fraction = validation_fraction
        self.stall_generations = stall_generations
        self.completer_iterations = completer_iterations
        self.dtype = dtype
        # Fail fast on an unsupported dtype.
        CompressiveSensingCompleter(rank=1, lam=1.0, iterations=1, dtype=dtype)
        self.max_workers = max_workers
        self._seed = seed

    # ------------------------------------------------------------------
    def tune(
        self,
        measurements: Union[TrafficConditionMatrix, np.ndarray],
        mask: Optional[np.ndarray] = None,
    ) -> TuningResult:
        """Run the GA on a measurement matrix; returns the best (r, lambda)."""
        if isinstance(measurements, TrafficConditionMatrix):
            if mask is not None:
                raise ValueError("mask is implied by the TrafficConditionMatrix")
            m_arr, b_arr = measurements.values, measurements.mask
        else:
            if mask is None:
                raise ValueError("mask required when passing a raw array")
            m_arr, b_arr = check_matrix_pair(measurements, mask)
        rng = ensure_rng(self._seed)

        train_mask, val_mask = self._split_validation(b_arr, rng)
        if not val_mask.any() or not train_mask.any():
            raise ValueError("too few observed entries to build a validation split")
        session = _EvalSession(
            train_m=np.where(train_mask, m_arr, 0.0),
            train_mask=train_mask,
            values=m_arr,
            val_mask=val_mask,
        )

        max_rank = min(self.rank_bounds[1], min(m_arr.shape))
        min_rank = min(self.rank_bounds[0], max_rank)

        with obs_trace.span(
            "ga.tune",
            population=self.population_size,
            generations=self.generations,
        ):
            # 1) Initialization: uniform in rank, log-uniform in lambda.
            genomes = [
                self._random_genome(min_rank, max_rank, rng)
                for _ in range(self.population_size)
            ]
            with obs_trace.span("ga.generation", index=0):
                population = self._evaluate_batch(genomes, session)
            population.sort(key=lambda c: c.fitness)

            history: List[float] = []
            best = population[0]
            stall = 0
            generations_run = 0

            for _ in range(self.generations):
                generations_run += 1
                with obs_trace.span("ga.generation", index=generations_run):
                    population = self._next_generation(
                        population, min_rank, max_rank, rng, session
                    )
                population.sort(key=lambda c: c.fitness)
                history.append(population[0].fitness)
                if population[0].fitness < best.fitness - 1e-9:
                    best = population[0]
                    stall = 0
                else:
                    stall += 1
                    if (
                        self.stall_generations is not None
                        and stall >= self.stall_generations
                    ):
                        break

        if obs_trace.enabled():
            obs_metrics.observe("ga.generations_run", generations_run)
            obs_metrics.observe("ga.best_fitness", best.fitness)
        return TuningResult(
            rank=best.rank,
            lam=best.lam,
            fitness=best.fitness,
            generations_run=generations_run,
            history=history,
            population=population,
            cache_stats=session.stats(),
        )

    # ------------------------------------------------------------------
    def _split_validation(
        self, b_arr: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hide ``validation_fraction`` of observed cells for fitness."""
        observed = np.argwhere(b_arr)
        k = max(1, int(round(len(observed) * self.validation_fraction)))
        k = min(k, len(observed) - 1) if len(observed) > 1 else 0
        chosen = observed[rng.choice(len(observed), size=k, replace=False)]
        val_mask = np.zeros_like(b_arr)
        val_mask[chosen[:, 0], chosen[:, 1]] = True
        return b_arr & ~val_mask, val_mask

    # ------------------------------------------------------------------
    # Fitness evaluation (memoized, optionally parallel)
    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, genomes: List[Tuple[int, float, int]], session: _EvalSession
    ) -> List[Candidate]:
        """Score ``(rank, lam, seed)`` genomes; cache by quantized genome.

        Duplicate genomes within the batch and across generations share
        one Algorithm 1 run (the first occurrence's seed).  The novel
        genomes are evaluated via :func:`parallel_map` — every random
        decision was already made when the genome list was built, so the
        fan-out cannot change results.
        """
        keys = [_genome_key(rank, lam) for rank, lam, _ in genomes]
        fresh: Dict[Tuple[int, int], _FitnessTask] = {}
        for (rank, lam, seed), key in zip(genomes, keys):
            if key not in session.cache and key not in fresh:
                fresh[key] = _FitnessTask(
                    rank=rank,
                    lam=lam,
                    seed=seed,
                    train_m=session.train_m,
                    train_mask=session.train_mask,
                    values=session.values,
                    val_mask=session.val_mask,
                    iterations=self.completer_iterations,
                    dtype=self.dtype,
                )
        tasks = list(fresh.values())
        fitnesses = parallel_map(
            _evaluate_fitness,
            tasks,
            max_workers=self.max_workers,
            backend="thread",
            span_name="ga.fitness",
        )
        for task, fitness in zip(tasks, fitnesses):
            session.cache[_genome_key(task.rank, task.lam)] = fitness
        session.evaluations += len(tasks)
        session.hits += len(genomes) - len(tasks)
        if obs_trace.enabled():
            obs_metrics.inc("ga.evaluations", len(tasks))
            obs_metrics.inc("ga.cache.hits", len(genomes) - len(tasks))
        return [
            Candidate(rank, lam, session.cache[key])
            for (rank, lam, _), key in zip(genomes, keys)
        ]

    def _random_genome(
        self, min_rank: int, max_rank: int, rng: np.random.Generator
    ) -> Tuple[int, float, int]:
        rank = int(rng.integers(min_rank, max_rank + 1))
        lam = self._random_lam(rng)
        return rank, lam, int(rng.integers(0, 2**63 - 1))

    def _random_lam(self, rng: np.random.Generator) -> float:
        lo, hi = np.log(self.lam_bounds[0]), np.log(self.lam_bounds[1])
        return float(np.exp(rng.uniform(lo, hi)))

    def _roulette_pick(
        self, population: List[Candidate], rng: np.random.Generator
    ) -> Candidate:
        """Roulette-wheel selection; lower NMAE -> higher weight."""
        fitness = np.array([c.fitness for c in population])
        fitness = np.where(
            np.isfinite(fitness),
            fitness,
            fitness[np.isfinite(fitness)].max() if np.isfinite(fitness).any() else 1.0,
        )
        weights = 1.0 / (fitness + 1e-6)
        weights /= weights.sum()
        return population[int(rng.choice(len(population), p=weights))]

    def _next_generation(
        self,
        population: List[Candidate],
        min_rank: int,
        max_rank: int,
        rng: np.random.Generator,
        session: _EvalSession,
    ) -> List[Candidate]:
        """Elites carried over; crossover/mutation genomes bred serially,
        then scored as one (memoized, optionally parallel) batch."""
        n_elite = max(1, int(round(self.population_size * self.elite_fraction)))
        n_cross = int(round(self.population_size * self.crossover_fraction))
        n_mut = self.population_size - n_elite - n_cross

        genomes: List[Tuple[int, float, int]] = []

        # Crossover: child takes one gene from each parent.
        for _ in range(n_cross):
            a = self._roulette_pick(population, rng)
            b = self._roulette_pick(population, rng)
            if rng.random() < 0.5:
                rank, lam = a.rank, b.lam
            else:
                rank, lam = b.rank, a.lam
            rank = int(np.clip(rank, min_rank, max_rank))
            genomes.append((rank, lam, int(rng.integers(0, 2**63 - 1))))

        # Mutation: reset one gene of a selected parent to a random value.
        for _ in range(max(0, n_mut)):
            parent = self._roulette_pick(population, rng)
            if rng.random() < 0.5:
                rank = int(rng.integers(min_rank, max_rank + 1))
                lam = parent.lam
            else:
                rank = parent.rank
                lam = self._random_lam(rng)
            genomes.append((rank, lam, int(rng.integers(0, 2**63 - 1))))

        return list(population[:n_elite]) + self._evaluate_batch(genomes, session)
