"""The three benchmark workloads, built from a seed.

A workload is one round: a fixed list of tasks, each a call sequence into
boxproj's public API plus an oracle for its result.  The seed draws the
inputs (test-function scales, polynomials, grid sizes, and the task order
of ladder and expansion); the number of tasks of each kind is fixed so
that runs at different seeds do comparable work.  Scales and grid sizes
are drawn by antithetic stratified sampling (one seeded draw in the middle
half of each of n equal strata, mirrored about the centre of the range),
which keeps the total work of a round nearly seed-independent.

Functions are looked up on their modules at call time so that the traced
run sees the wrappers `tracing.Tracer.install` puts there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from boxproj import asymptotics, bernoulli, lattice, presets, projection, quadrature
from boxproj import testfunctions

# Task counts are chosen so that task costs near task_s.p50 and task_s.tail
# form a broad ramp rather than a cluster of equal tasks: on a machine whose
# speed switches between regimes for seconds at a time, the median of equal
# tasks jumps between the regimes, while on a ramp it moves smoothly.
# ladder's and expansion's task order is drawn once from the seed and
# repeated in every round, so each kind's tasks are spread over the run.

# ladder: (preset, h) -> rungs per round (two fit in a 40 s run).  The
# counts are fixed rather than drawn, so that p50 falls among the
# tensor(1,1) h=1/4 rungs and the tail (the tenth-slowest rung) among the
# tensor(2,2) h=1/4 rungs, below the six courant and h=1/8 rungs that cost
# more.
LADDER_MIX = {
    ("tensor(1,1)", 1 / 4): 22,
    ("tensor(1,1)", 1 / 8): 3,
    ("tensor(2,2)", 1 / 4): 8,
    ("tensor(2,2)", 1 / 8): 1,
    ("courant", 1 / 4): 4,
    ("courant", 1 / 8): 1,
}
LADDER_SCALES = (0.8, 1.25)
# error power / h^(2k) over the closed-form constant; seed code gives 0.96-1.53
LADDER_BAND = (0.9, 1.6)

# reproduce: criterion-5 windows (preset, h, box half-width) -> (monomial
# pool, terms of each task's polynomial, in task order).  Each window's
# polynomials use every pool monomial equally often; the seed draws how
# they are combined and the coefficients.  Which monomials a round uses is
# fixed because it sets the right-hand-side cost: a pure cube takes the slow
# path of np.power and costs 3x.  courant2 gets one monomial of each degree
# below k = 4, a pure cube included.
_LINEAR = ((0, 0), (1, 0), (0, 1))
REPRODUCE_MIX = {
    ("tensor(2,2)", 1 / 16, 3.0): (_LINEAR, (1, 2, 3) * 6),
    ("courant", 1 / 16, 3.0): (_LINEAR, (1, 2, 3) * 6),
    ("courant2", 1 / 32, 2.0): (((0, 0), (1, 0), (1, 1), (3, 0)), (1, 1, 1, 1)),
}
REPRODUCE_TOL = 1e-8
INTERIOR_AXIS = np.linspace(-1.0, 1.0, 7) + 0.0137

# expansion: criterion-1 closed form vs lattice series (smooth preset ->
# tasks per critical beta), and the p=2 constant by two routes (preset ->
# tasks).  p50 falls inside the ramp of the 15 courant series tasks, not at
# the gap between them and the dearer courant2 series tasks; the tail falls
# among the courant2 series tasks, below the eight courant and courant2
# constants.
SERIES_REPEATS = {"bspline(2)": 2, "bspline(3)": 2, "tensor(2,2)": 3, "courant": 5,
                  "courant2": 3}
SERIES_GRID = (5, 9)
SERIES_RADIUS = 2000
SERIES_TOL = 1e-6
CONSTANT_MIX = {"tensor(2,2)": 4, "courant": 4, "courant2": 4}
CONSTANT_TOL = 1e-6


@dataclass
class Task:
    """One unit of closed-loop work: `run` is timed, `check` is not.

    `check(result)` returns None when the oracle holds, else the reason.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw from the middle half of each of n equal strata of [lo, hi],
    mirrored: draw i and draw n-1-i sit symmetrically about the centre."""
    jitter = rng.uniform(-0.25, 0.25, size=n)
    u = (np.arange(n) + 0.5 + (jitter - jitter[::-1]) / 2) / n
    return lo + (hi - lo) * rng.permutation(u)


def _ladder_task(name: str, h: float, scale: float) -> Task:
    V = presets.preset(name)
    k = V.margin + 1
    f = testfunctions.gaussian(2, scale)

    def run():
        model = projection.build_model(V, h, f)
        coeffs = projection.project(model, f)
        _, power = projection.error_norm(f, model, coeffs, 2.0)
        return power, coeffs.residual

    def check(result):
        power, residual = result
        if not residual <= projection.RESIDUAL_TOL:
            return f"residual {residual:.3e}"
        ratio = power / h ** (2 * k) / asymptotics.error_constant_l2(f, V)
        lo, hi = LADDER_BAND
        return None if lo <= ratio <= hi else f"ratio {ratio:.4f} outside {LADDER_BAND}"

    return Task(f"ladder {name} h=1/{round(1 / h)}", run, check)


def ladder(seed: int, perturb_gram: float = 0.0) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for (name, h), n in LADDER_MIX.items():
        tasks += [_ladder_task(name, h, s) for s in _strata(rng, n, *LADDER_SCALES)]
    return [tasks[i] for i in rng.permutation(len(tasks))]


class Polynomial:
    """sum_j c_j x^beta_j, evaluated through boxproj's monomial test functions."""

    def __init__(self, coeffs, exponents):
        self.coeffs = tuple(float(c) for c in coeffs)
        self.exponents = tuple(tuple(int(e) for e in b) for b in exponents)
        self.terms = [testfunctions.monomial(b) for b in self.exponents]

    def value(self, x):
        return sum(c * t.value(x) for c, t in zip(self.coeffs, self.terms))

    def exact(self, x):
        """Reference values computed with numpy alone, for the oracle."""
        x = np.asarray(x, dtype=float)
        return sum(c * np.prod(x ** np.array(b), axis=1)
                   for c, b in zip(self.coeffs, self.exponents))


def _reproduce_group(name: str, h: float, half: float, polys, perturb_gram: float):
    """One model's tasks.  Task 0 builds the model; whichever task runs last
    releases it."""
    V = presets.preset(name)
    box = (np.full(2, -half), np.full(2, half))
    pts = np.array(list(itertools.product(INTERIOR_AXIS, repeat=2)))
    state = {}
    tasks = []
    for i, poly in enumerate(polys):
        want = poly.exact(pts)
        tol = REPRODUCE_TOL * sum(abs(c) for c in poly.coeffs)

        def run(i=i, poly=poly):
            if i == 0:
                model = projection.build_model(V, h, box=box)
                if perturb_gram:
                    model.gram[(1, 0)] += perturb_gram
                state.update(model=model, left=len(polys))
            model = state["model"]
            state["left"] -= 1
            if state["left"] == 0:
                del state["model"]
            coeffs = projection.project(model, poly)
            return projection.spline_values(model, coeffs, pts)

        def check(got, want=want, tol=tol):
            dev = float(np.abs(got - want).max())
            return None if dev <= tol else f"deviation {dev:.3e} above {tol:.3e}"

        kind = f"reproduce {name} {'first' if i == 0 else 'later'}"
        tasks.append(Task(kind, run, check))
    return tasks


def reproduce(seed: int, perturb_gram: float = 0.0) -> list[Task]:
    """The three models are built first; their other tasks follow in a fixed
    interleave that spreads each model's tasks evenly over the round, so all
    three models are live together.  The order does not depend on the seed:
    when a model's memory is released, and so the task costs around it,
    would otherwise change from seed to seed."""
    rng = np.random.default_rng(seed)
    firsts, laters = [], []
    for (name, h, half), (pool, terms) in REPRODUCE_MIX.items():
        rounds = -(-sum(terms) // len(pool))
        stream = iter(np.concatenate([rng.permutation(len(pool)) for _ in range(rounds)]))
        polys = []
        for t in terms:
            coeffs = rng.choice([-1.0, 1.0], size=t) * rng.uniform(0.5, 1.5, size=t)
            polys.append(Polynomial(coeffs, [pool[next(stream)] for _ in range(t)]))
        tasks = _reproduce_group(name, h, half, polys, perturb_gram)
        firsts.append(tasks[0])
        laters += [((j + 0.5) / (len(tasks) - 1), task) for j, task in enumerate(tasks[1:])]
    laters.sort(key=lambda pair: pair[0])
    return firsts + [task for _, task in laters]


def _series_task(name: str, beta, count: int) -> Task:
    V = presets.preset(name)
    pts = quadrature.sample_grid(V.dimension, count)

    def run():
        closed = bernoulli.error_expansion(V, beta).evaluate(pts)
        series = bernoulli.monomial_error_series(V, beta, pts, SERIES_RADIUS).real
        return float(np.abs(closed - series).max())

    def check(gap):
        return None if gap <= SERIES_TOL else f"two-route gap {gap:.3e}"

    return Task(f"expansion series {name}", run, check)


def _constant_task(name: str, scale: float) -> Task:
    V = presets.preset(name)
    f = testfunctions.gaussian(2, scale)

    def run():
        quad = asymptotics.error_constant(f, V, 2.0)
        closed = asymptotics.error_constant_l2(f, V)
        return abs(quad - closed) / closed

    def check(gap):
        return None if gap <= CONSTANT_TOL else f"relative gap {gap:.3e}"

    return Task(f"expansion constant {name}", run, check)


def expansion(seed: int, perturb_gram: float = 0.0) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for name, repeats in SERIES_REPEATS.items():
        V = presets.preset(name)
        for beta in lattice.multi_indices(V.dimension, V.margin + 1):
            counts = np.rint(_strata(rng, repeats, SERIES_GRID[0] - 0.49,
                                     SERIES_GRID[1] + 0.49)).astype(int)
            tasks += [_series_task(name, tuple(beta), int(c)) for c in counts]
    for name, n in CONSTANT_MIX.items():
        tasks += [_constant_task(name, s) for s in _strata(rng, n, *LADDER_SCALES)]
    return [tasks[i] for i in rng.permutation(len(tasks))]


WORKLOADS = {"ladder": ladder, "reproduce": reproduce, "expansion": expansion}


def warm_caches() -> None:
    """Fill the lru caches every task would otherwise fill on first use."""
    for order in (10, 12, 16):
        quadrature.unit_nodes(order)
    for k in range(1, 5):
        bernoulli.bernoulli_numbers(2 * k)
        bernoulli.bernoulli_poly_coeffs(k)
