"""Deterministic Monte-Carlo harness for Type I error and power estimation.

Each trial draws both samples, deletes values through the configured
missingness mechanisms, and runs every requested method on the identical
incomplete data. Each trial draws from five random streams, one per role
(x values, y values, x deletions, y deletions, hot-deck donors), and the
stream of a role is ``numpy.random.default_rng([seed, trial, role])``, so
results are bit-identical for a given (spec, seed) no matter how many worker
processes execute the trials. A block of trials does not hash those keys one
by one: it computes the four words each stream seeds PCG64 with in one
vectorised pass per 1,024 trials, an exact copy of numpy's SeedSequence
hashing, and numpy seeds PCG64 from those words.

A ScenarioSpec holds its Distributions, Alternative and ``domain`` (the
support, else the least one holding both laws' values) parsed once; a side
with no deletion rule keeps every value. Mechanisms: ``mcar``, ``mnar_positive``.

Methods
    proposed        robust test, distinct-data variant
    proposed_ties   robust test with ties and closed support
    ignore          classical test on the observed values only
    mean_impute     classical test after mean imputation
    hot_deck        classical test after donor imputation
    oracle          classical test on the complete data (needs simulation truth)
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import Distribution, make_distribution
from .exceptions import DegenerateDataError, DomainError
from .ranks import Sample, Support, _doubled_wmw_statistic, tie_profile
from .robust import _check, _DistinctRejection, _general_p_max, _refuse_single_value
from .wmw import Alternative, _wmw, impute_hot_deck, impute_mean

__all__ = [
    "MECHANISMS",
    "METHODS",
    "MissingnessSpec",
    "ScenarioSpec",
    "MethodOutcome",
    "ScenarioResult",
    "apply_mcar",
    "apply_mnar_positive",
    "run_scenario",
    "sweep",
    "write_results_csv",
    "CSV_COLUMNS",
]

MECHANISMS = ("mcar", "mnar_positive")
METHODS = ("proposed", "proposed_ties", "ignore", "mean_impute", "hot_deck", "oracle")

# stream roles for per-trial SeedSequence keys
_ROLE_X, _ROLE_Y, _ROLE_MISS_X, _ROLE_MISS_Y, _ROLE_HOT_DECK = range(5)

# numpy's SeedSequence hash constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SEED_CHUNK = 1024  # trials seeded in one pass; a power of two at most 2**32


@dataclass(frozen=True)
class MissingnessSpec:
    """One deletion rule: which mechanism, how much, applied to which side."""

    mechanism: str
    s: float = 0.0
    applies_to: str = "both"

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise DomainError(
                f"unknown mechanism {self.mechanism!r}; valid: {', '.join(MECHANISMS)}"
            )
        if not 0.0 <= self.s < 1.0:
            raise DomainError("missing proportion s must lie in [0, 1)")
        if self.applies_to not in ("both", "x_only", "y_only"):
            raise DomainError("applies_to must be both, x_only or y_only")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one Monte-Carlo cell needs, parsed, as plain picklable data."""

    dist_x: Distribution  # a spec string such as "normal(0,1)" is parsed
    dist_y: Distribution
    n: int
    m: int
    missingness: tuple[MissingnessSpec, ...]
    methods: tuple[str, ...]
    alpha: float = 0.05
    trials: int = 1000
    seed: int = 0
    alternative: Alternative = Alternative.TWO_SIDED  # or a name such as "greater"
    support: Support | None = None
    domain: Support = field(init=False, repr=False, compare=False)  # support or both laws' hull

    def __post_init__(self) -> None:
        object.__setattr__(self, "missingness", tuple(self.missingness))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "dist_x", make_distribution(self.dist_x))
        object.__setattr__(self, "dist_y", make_distribution(self.dist_y))
        lows, highs = zip(*(dist.support_bounds for dist in (self.dist_x, self.dist_y)))
        domain = self.support if self.support is not None else Support(min(lows), max(highs))
        object.__setattr__(self, "domain", domain)
        lower, upper = domain.lower, domain.upper
        for dist in (self.dist_x, self.dist_y):
            low, high = dist.support_bounds
            if low < lower or high > upper:
                ends = (format(end, "g") if math.isfinite(end) else "" for end in (lower, upper))
                raise DomainError(
                    f"support {','.join(ends)} leaves out values that {dist.spec} can draw")
        if not self.methods:
            raise DomainError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise DomainError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
        object.__setattr__(self, "alternative", Alternative.parse(self.alternative))
        _check(self.alpha, self.alternative)
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.n < 1 or self.m < 1:
            raise DomainError("sample sizes must be positive")
        for side in ("x", "y"):
            if len(self._specs_for(side)) > 1:
                raise DomainError(f"conflicting missingness rules for sample {side}")

    def _specs_for(self, side: str) -> list[MissingnessSpec]:
        wanted = {"both", f"{side}_only"}
        return [ms for ms in self.missingness if ms.applies_to in wanted]

    def mechanism_for(self, side: str) -> MissingnessSpec | None:
        """The side's deletion rule; None for a side that keeps all its values."""
        specs = self._specs_for(side)
        return specs[0] if specs else None

    @property
    def s_label(self) -> str:
        return ";".join(sorted({format(ms.s, "g") for ms in self.missingness})) or "0"

    @property
    def mechanism_label(self) -> str:
        """The mechanism both sides share at one s, else 'x:<name>;y:<name>',
        where a side without a rule is named none."""
        mx, my = self.mechanism_for("x"), self.mechanism_for("y")
        x_name, y_name = (ms.mechanism if ms else "none" for ms in (mx, my))
        if x_name == y_name and (mx is None or mx.s == my.s):
            return x_name
        return f"x:{x_name};y:{y_name}"


@dataclass(frozen=True)
class MethodOutcome:
    rejections: int
    degenerate: int
    trials: int

    @property
    def rate(self) -> float:
        return self.rejections / self.trials

    @property
    def stderr(self) -> float:
        r = self.rate
        return math.sqrt(r * (1.0 - r) / self.trials)


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    outcomes: dict[str, MethodOutcome]
    elapsed: float


@functools.lru_cache(maxsize=None)
def _missing_count(n_values: int, s: float) -> int:
    """s*n to the nearest integer, halves rounded down, with s taken at its
    decimal value. Exact, because in floats 0.55 * 50 is 27.500000000000004."""
    return max(0, math.ceil(Fraction(repr(float(s))) * n_values - Fraction(1, 2)))


def apply_mcar(values: Sequence[float], s: float, rng: np.random.Generator) -> Sample:
    """Delete a fixed fraction of values uniformly at random without replacement."""
    values = np.asarray(values, dtype=float)
    k = _missing_count(len(values), s)
    if k == 0:
        return Sample(values, 0)
    keep = np.ones(len(values), dtype=bool)
    keep[rng.choice(len(values), size=k, replace=False)] = False
    return Sample(values[keep], k)


def apply_mnar_positive(values: Sequence[float], s: float, rng: np.random.Generator) -> Sample:
    """Delete each positive value independently, calibrated so that roughly a
    fraction s of the whole sample goes missing. Non-positive values never
    go missing, which makes the mechanism informative."""
    values = np.asarray(values, dtype=float)
    positive = values > 0
    n_pos = int(positive.sum())
    if n_pos == 0 or s == 0.0:
        return Sample(values, 0)
    q = min(1.0, s * len(values) / n_pos)
    drop = positive & (rng.random(len(values)) < q)
    kept = values[~drop]
    return Sample(kept, int(drop.sum()))


def _apply_missingness(
    values: np.ndarray, ms: MissingnessSpec | None, rng: np.random.Generator
) -> Sample:
    if ms is None or ms.s == 0.0:
        return Sample(values, 0)
    if ms.mechanism == "mcar":
        return apply_mcar(values, ms.s, rng)
    return apply_mnar_positive(values, ms.s, rng)


def _entropy_words(value: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: 32-bit words, low word first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (keys, words) uint32 array with at least four words a row; a shorter
    entropy equals itself padded with zeros to four words."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)], axis=1)


def _stream_seeds(seed: int, start: int, stop: int, roles: int) -> Iterator[list[list[int]]]:
    """For each of the trials start to stop - 1, the four 64-bit words that
    ``default_rng([seed, trial, role])`` seeds PCG64 with, for roles 0 to roles - 1.
    The streams are hashed in one vectorised pass per aligned chunk of
    _SEED_CHUNK trials, which keeps memory bounded; a chunk never straddles
    a multiple of 2**32, so all its trials have the same entropy length."""
    head = _entropy_words(seed)
    while start < stop:
        end = min(stop, (start // _SEED_CHUNK + 1) * _SEED_CHUNK)
        keys = np.array([head + _entropy_words(trial) for trial in range(start, end)], np.uint32)
        entropy = np.zeros((len(keys) * roles, max(keys.shape[1] + 1, 4)), dtype=np.uint32)
        entropy[:, : keys.shape[1]] = np.repeat(keys, roles, 0)
        entropy[:, keys.shape[1]] = np.tile(np.arange(roles), len(keys))
        yield from _seed_words(entropy).reshape(-1, roles, 4).tolist()
        start = end


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 the four words _stream_seeds computed."""

    def __init__(self, words: list[int]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.array(self.words, np.uint64)


def _run_block(spec: ScenarioSpec, start: int, stop: int) -> Counter[tuple[str, int]]:
    ms_x = spec.mechanism_for("x")
    ms_y = spec.mechanism_for("y")
    # the hot-deck stream is the last role, drawn only by hot_deck
    roles = _ROLE_HOT_DECK + 1 if "hot_deck" in spec.methods else _ROLE_HOT_DECK
    if "proposed" in spec.methods:
        distinct = _DistinctRejection(spec.n, spec.m, spec.alpha, spec.alternative)
    # the methods that read the observed pair's tie groups, and those that read its 2W'
    grouped = {"proposed_ties", "ignore"}.intersection(spec.methods)
    paired = grouped | {"proposed"}.intersection(spec.methods)
    tallies: Counter[tuple[str, int]] = Counter()  # (method, 0) rejected, (method, 1) degenerate
    for seeds in _stream_seeds(spec.seed, start, stop, roles):
        # the generators default_rng([spec.seed, trial, role]) would build
        streams = [np.random.Generator(np.random.PCG64(_Words(words))) for words in seeds]
        x_full = spec.dist_x.sample(streams[_ROLE_X], spec.n)
        y_full = spec.dist_y.sample(streams[_ROLE_Y], spec.m)
        x_s = _apply_missingness(x_full, ms_x, streams[_ROLE_MISS_X])
        y_s = _apply_missingness(y_full, ms_y, streams[_ROLE_MISS_Y])
        # one observed summary a trial: 2W' needs values on both sides, the tie groups on one
        n1, m1 = x_s.n_observed, y_s.n_observed
        doubled = (_doubled_wmw_statistic(x_s.observed, y_s.observed)
                   if paired and n1 and m1 else None)
        sizes = (tie_profile(np.concatenate((x_s.observed, y_s.observed)))
                 if grouped and (n1 or m1) else None)
        for method in spec.methods:
            # a robust test is SIGNIFICANT iff p_max < alpha; every other
            # method rejects iff its p-value is below alpha
            try:
                # an empty side gives p_max = 1; an empty pool, which the
                # general report refuses, keeps the null for proposed_ties too
                if method == "proposed":
                    _refuse_single_value(x_s, y_s)
                    rejected = doubled is not None and distinct.rejects_doubled(n1, m1, doubled)
                elif method == "proposed_ties":
                    rejected = sizes is not None and _general_p_max(
                        x_s, y_s, spec.domain, spec.alternative, doubled, sizes) < spec.alpha
                else:
                    if method == "ignore":
                        p = _wmw(x_s.observed, y_s.observed, spec.alternative, doubled, sizes)[1]
                    elif method == "mean_impute":
                        p = _wmw(impute_mean(x_s), impute_mean(y_s), spec.alternative)[1]
                    elif method == "hot_deck":
                        rng = streams[_ROLE_HOT_DECK]
                        x_i, y_i = impute_hot_deck(x_s, rng), impute_hot_deck(y_s, rng)
                        p = _wmw(x_i, y_i, spec.alternative)[1]
                    else:  # oracle
                        p = _wmw(x_full, y_full, spec.alternative)[1]
                    rejected = p < spec.alpha
            except DegenerateDataError:
                tallies[method, 1] += 1
                continue
            if rejected:
                tallies[method, 0] += 1
    return tallies


def _run(specs: Sequence[ScenarioSpec], workers: int) -> Iterator[ScenarioResult]:
    """Run every cell in blocks of ceil(trials / workers) trials, all through one
    process pool when there are several workers and blocks; workers beyond the
    CPU count are not started. A result's elapsed is the wall time since the
    previous cell finished, the first's from the start."""
    if workers < 1:
        raise DomainError("workers must be at least 1")
    workers = min(workers, os.cpu_count() or 1)
    blocks = []
    for spec in specs:
        chunk = -(-spec.trials // min(workers, spec.trials))
        blocks += [(spec, i, min(i + chunk, spec.trials)) for i in range(0, spec.trials, chunk)]
    merged: Counter[tuple[str, int]] = Counter()
    t0 = time.perf_counter()
    pool = ProcessPoolExecutor(min(workers, len(blocks))) if workers > 1 and len(blocks) > 1 else None
    with pool or contextlib.nullcontext():
        tallies = pool.map(_run_block, *zip(*blocks)) if pool else (_run_block(*b) for b in blocks)
        for (spec, _, stop), tally in zip(blocks, tallies):
            merged.update(tally)
            if stop == spec.trials:
                outcomes = {
                    method: MethodOutcome(merged[method, 0], merged[method, 1], spec.trials)
                    for method in spec.methods
                }
                now = time.perf_counter()
                yield ScenarioResult(spec=spec, outcomes=outcomes, elapsed=now - t0)
                merged, t0 = Counter(), now


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> ScenarioResult:
    """Execute all trials of one scenario; deterministic in (spec, seed)."""
    return list(_run([spec], workers))[0]


def sweep(
    base: ScenarioSpec,
    s_values: Iterable[float] | None = None,
    sizes: Iterable[tuple[int, int]] | None = None,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Cartesian sweep of a base scenario over missing fractions and sizes;
    with several workers, every cell runs in the same process pool. An s list
    needs a base with a deletion rule, which each s is set on."""
    if s_values is not None and not base.missingness:
        raise DomainError("an s list needs a deletion rule: the scenario names no mechanism")
    s_list = [None] if s_values is None else list(s_values)
    size_list = [None] if sizes is None else list(sizes)
    specs = []
    for nm in size_list:
        for s in s_list:
            spec = base
            if nm is not None:
                spec = replace(spec, n=nm[0], m=nm[1])
            if s is not None:
                spec = replace(
                    spec, missingness=tuple(replace(ms, s=s) for ms in spec.missingness)
                )
            specs.append(spec)
    return list(_run(specs, workers))


CSV_COLUMNS = (
    "mechanism",
    "s",
    "n",
    "m",
    "dist_x",
    "dist_y",
    "alpha",
    "method",
    "trials",
    "reject_rate",
    "stderr",
    "degenerate",
)


def write_results_csv(results: Iterable[ScenarioResult], path: str) -> None:
    """Long-format CSV: one row per (scenario, method)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for result in results:
            spec = result.spec
            for method in spec.methods:
                out = result.outcomes[method]
                writer.writerow(
                    [
                        spec.mechanism_label,
                        spec.s_label,
                        spec.n,
                        spec.m,
                        spec.dist_x.spec,
                        spec.dist_y.spec,
                        repr(spec.alpha),
                        method,
                        spec.trials,
                        repr(out.rate),
                        repr(out.stderr),
                        out.degenerate,
                    ]
                )
