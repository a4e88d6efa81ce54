"""Array kernel: memberships, firing strengths and exact centroids over blocks of inputs.

This is the one module of the package that imports numpy when it loads.
Its callers import it when first called: `classify_cohort`, which runs
every block of learners through `score_block`, and `fuzzy.infer` and
`fuzzy.defuzzify_centroid`, which wrap it for one input. So the commands
that compute no arrays (`validate-rules`, `evaluate`) start without numpy.
The rules come compiled by `RuleBase.compile_dimension` (`dsl`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fuzzy import CompiledRules, Trapezoid

# Integrated envelope area below this is treated as "no rule fired".
ZERO_AREA_TOL = 1e-12


def membership_grid(trap: Trapezoid, xs) -> np.ndarray:
    """Membership of every point of an array in one trapezoid, equal to `Trapezoid.membership`."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    out[(xs >= trap.a) & (xs <= trap.d)] = 1.0
    if trap.b > trap.a:
        rise = (xs >= trap.a) & (xs < trap.b)
        out[rise] = (xs[rise] - trap.a) / (trap.b - trap.a)
    if trap.d > trap.c:
        fall = (xs > trap.c) & (xs <= trap.d)
        out[fall] = (trap.d - xs[fall]) / (trap.d - trap.c)
    return out


def firing_strengths(compiled: CompiledRules, features) -> np.ndarray:
    """N x R Mamdani product strengths for an N x len(inputs) feature matrix.

    Degrees multiply left to right in clause order, so every strength equals
    the scalar product of the clause memberships bit for bit.
    """
    features = np.asarray(features, dtype=float)
    strengths = np.ones((features.shape[0], len(compiled.clauses)))
    for r, clauses in enumerate(compiled.clauses):
        for column, term in clauses:
            strengths[:, r] *= membership_grid(term, features[:, column])
    return strengths


def term_strengths(compiled: CompiledRules, strengths: np.ndarray) -> np.ndarray:
    """N x T scale of each output term: the max strength of the rules concluding it.

    Scaling is monotone, so max over rules of s * term(x) equals
    (max s) * term(x) exactly and the envelope is unchanged.
    """
    scales = np.zeros((strengths.shape[0], len(compiled.variable.terms)))
    consequents = np.asarray(compiled.consequents)
    for t in np.unique(consequents):
        scales[:, t] = strengths[:, consequents == t].max(axis=1)
    return scales


def centroids(universe: tuple[float, float], terms: Sequence[Trapezoid], scales) -> np.ndarray:
    """Exact centre of gravity of max_t scales[n, t] * terms[t](x), per row n.

    Each envelope is linear between its breakpoints: the universe bounds,
    the term corners, and the crossings of every pair of scaled terms. The
    corners are shared by all rows; the crossings are closed-form per
    segment between corners, one slot per (pair, segment), and a slot with
    no crossing holds the segment start (a zero-width segment). Both
    moments are then integrated exactly from two interior samples per
    segment, so step edges (one-sided limits) need no special case.

    Rows whose envelope area is below ZERO_AREA_TOL come back as NaN.
    """
    scales = np.asarray(scales, dtype=float)
    lo, hi = universe
    corners = np.array([trap.corners() for trap in terms], dtype=float).reshape(-1)
    base = np.unique(np.clip(np.concatenate(([lo, hi], corners)), lo, hi))
    x0, x1 = base[:-1], base[1:]
    third = (x1 - x0) / 3.0
    q1, q2 = x0 + third, x0 + 2.0 * third
    mu1 = np.array([membership_grid(trap, q1) for trap in terms]).reshape(len(terms), x0.size)
    mu2 = np.array([membership_grid(trap, q2) for trap in terms]).reshape(len(terms), x0.size)

    first, second = np.triu_indices(len(terms), k=1)
    fs, gs = scales[:, first, None], scales[:, second, None]
    d1 = fs * mu1[first] - gs * mu1[second]
    d2 = fs * mu2[first] - gs * mu2[second]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = q1 - d1 * (q2 - q1) / (d2 - d1)
    inside = (d1 != d2) & (crossing > x0) & (crossing < x1)
    crossing = np.where(inside, crossing, x0)
    rows = scales.shape[0]
    nodes = np.concatenate(
        (np.broadcast_to(base, (rows, base.size)), crossing.reshape(rows, -1)), axis=1
    )
    nodes.sort(axis=1)

    x0, x1 = nodes[:, :-1], nodes[:, 1:]
    h = x1 - x0
    third = h / 3.0
    yq1 = _envelope(terms, scales, x0 + third)
    yq2 = _envelope(terms, scales, x1 - third)
    # One-sided limits at the segment ends, extrapolated from the interior
    # samples; the envelope is linear on each open segment.
    y0 = 2.0 * yq1 - yq2
    y1 = 2.0 * yq2 - yq1
    area = np.sum(h * (y0 + y1) / 2.0, axis=1)
    first_moment = np.sum(h * x0 * (y0 + y1) / 2.0 + h * h * (y0 + 2.0 * y1) / 6.0, axis=1)
    return np.divide(
        first_moment, area, out=np.full(rows, np.nan), where=area >= ZERO_AREA_TOL
    )


def _envelope(terms: Sequence[Trapezoid], scales: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise max of the scaled terms at an N x K array of points."""
    env = np.zeros(xs.shape)
    for t, trap in enumerate(terms):
        np.maximum(env, scales[:, t, None] * membership_grid(trap, xs), out=env)
    return env


def score_block(
    compiled: CompiledRules, features: Sequence[Mapping[str, float]]
) -> tuple[list[int], list[float], list[list[float]]]:
    """One dimension over a block of learners' features, as plain lists.

    Per learner: the index into `compiled.inputs` of its first missing
    feature (-1 if none), its crisp score (NaN when the envelope is empty)
    and its strength per rule.
    """
    names = compiled.inputs
    values = np.array([[f.get(name, np.nan) for name in names] for f in features], dtype=float)
    missing = np.array([[name not in f for name in names] for f in features])
    strengths = firing_strengths(compiled, values)
    crisp = centroids(
        compiled.variable.universe,
        [trap for _, trap in compiled.variable.terms],
        term_strengths(compiled, strengths),
    )
    first_missing = np.where(missing.any(axis=1), missing.argmax(axis=1), -1)
    return first_missing.tolist(), crisp.tolist(), strengths.tolist()
