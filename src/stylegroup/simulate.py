"""Synthetic cohorts with known ground-truth styles, built by inverting rules.

For a planted label the generator picks one of the rules producing it and
emits each antecedent term's prototype value (the plateau midpoint) plus
optional Gaussian noise, so a noiseless cohort sits exactly on the rule
prototypes and the classifier must recover every planted label. Declared
input variables no chosen rule references get a uniform draw, so missing
coverage surfaces in testing rather than silently reading as zero.
"""

from __future__ import annotations

import logging
import math
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .dsl import RuleBase
from .grouping import GroupAssignment, StyleSignature
from .ingest import BEHAVIORS_HEADER, SCORES_HEADER, BehaviorTable, csv_field, csv_text
from .ingest import read_json, written_value
from .rng import STREAM_BEHAVIOR, STREAM_SCORES, philox_rng

SCORE_RANGE = (0.0, 20.0)

log = logging.getLogger(__name__)


class SimulationError(Exception):
    pass


class UnreachableLabelError(SimulationError):
    """A planted label that no rule in the base produces."""


class ScoreModel(NamedTuple):
    """Exam-score distribution for treated and control populations."""

    treated_mean: float
    control_mean: float
    sigma: float
    signature_means: tuple[tuple[StyleSignature, float], ...] = ()

    def mean_for(self, signature: StyleSignature) -> float:
        for sig, mean in self.signature_means:
            if sig == signature:
                return mean
        return self.treated_mean

    def to_json_dict(self) -> dict:
        payload = {
            "treated_mean": self.treated_mean,
            "control_mean": self.control_mean,
            "sigma": self.sigma,
        }
        if self.signature_means:
            payload["signature_means"] = {
                "|".join(sig): mean for sig, mean in self.signature_means
            }
        return payload

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScoreModel":
        means = data.get("signature_means", {}) if isinstance(data, dict) else None
        if not isinstance(means, dict):
            raise SimulationError("'score_model' and its 'signature_means' must be objects")
        return cls(
            treated_mean=_number(data, "treated_mean", "score_model"),
            control_mean=_number(data, "control_mean", "score_model"),
            sigma=_number(data, "sigma", "score_model", low=0.0),
            signature_means=tuple(
                (tuple(key.split("|")), _number(means, key, "score_model.signature_means"))
                for key in means
            ),
        )


class _Cohort(NamedTuple):
    counts: tuple[tuple[StyleSignature, int], ...]
    noise_sigma: float
    seed: int
    score_model: ScoreModel | None


class CohortSpec(_Cohort):
    """How to build a synthetic cohort: planted signatures, noise, seed."""

    __slots__ = ()

    def __new__(
        cls,
        counts: tuple[tuple[StyleSignature, int], ...],
        noise_sigma: float = 0.0,
        seed: int = 0,
        score_model: ScoreModel | None = None,
    ):
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        for signature, count in counts:
            if count <= 0:
                raise ValueError(f"count for signature {signature} must be positive")
        return tuple.__new__(cls, (counts, noise_sigma, seed, score_model))

    @classmethod
    def _make(cls, fields):  # `_replace` builds through here; check its fields too
        return cls(*fields)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    def to_json_dict(self) -> dict:
        payload: dict = {
            "cohort": [
                {"signature": list(signature), "count": count}
                for signature, count in self.counts
            ],
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }
        if self.score_model is not None:
            payload["score_model"] = self.score_model.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, data: dict) -> "CohortSpec":
        """The spec a JSON object holds (README, "Cohort spec"), or a `SimulationError`."""
        cohort = data.get("cohort") if isinstance(data, dict) else None
        if not isinstance(cohort, list) or not all(isinstance(entry, dict) for entry in cohort):
            raise SimulationError("cohort spec: 'cohort' must be a list of objects")
        for n, entry in enumerate(cohort):
            signature = entry.get("signature")
            if not isinstance(signature, list) or not all(isinstance(x, str) for x in signature):
                raise _refused(f"cohort[{n}]", entry, "signature", "a list of strings")
            if type(entry.get("count")) is not int or entry["count"] <= 0:
                raise _refused(f"cohort[{n}]", entry, "count", "a positive integer")
        if type(data.get("seed", 0)) is not int:
            raise _refused("cohort spec", data, "seed", "an integer")
        noise = _number(data, "noise_sigma", "cohort spec", 0.0) if "noise_sigma" in data else 0.0
        model = data.get("score_model")
        return cls(
            counts=tuple((tuple(entry["signature"]), entry["count"]) for entry in cohort),
            noise_sigma=noise,
            seed=data.get("seed", 0),
            score_model=ScoreModel.from_json_dict(model) if model else None,
        )


def _refused(where: str, data: dict, key: str, need: str) -> SimulationError:
    got = f", got {data[key]!r}" if key in data else ", and is missing"
    return SimulationError(f"{where}: {key!r} must be {need}{got}")


def _number(data: dict, key: str, where: str, low: float | None = None) -> float:
    """`data[key]` as a float if it is a finite JSON number (>= `low`), else `_refused`."""
    value = data.get(key)
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not finite or (low is not None and value < low):
        bound = "" if low is None else f" >= {low:g}"
        raise _refused(where, data, key, f"a finite number{bound}")
    return float(value)


def default_cohort_spec(seed: int = 0) -> CohortSpec:
    """A 420-learner cohort over four planted signatures with mild noise."""
    signatures = [
        ("reactive", "sensory", "visual", "consecutive"),
        ("reflection", "intuitive", "verbal", "sequential_global"),
        ("reactive", "intuitive", "visual", "sequential_global"),
        ("reflection", "sensory", "verbal", "consecutive"),
    ]
    return CohortSpec(
        counts=tuple((sig, 105) for sig in signatures),
        noise_sigma=0.05,
        seed=seed,
        score_model=ScoreModel(treated_mean=17.65, control_mean=12.6, sigma=2.5),
    )


def _place(columns: dict[str, list[float]], n: int, clauses: list, rng, noisy: bool) -> None:
    """Set row n of each clause's column to its prototype value plus noise, clamped to its universe.

    One `standard_normal(k)` call draws what k scalar calls would, in order,
    and sd * z has the bits of `rng.normal(0.0, sd)`.
    """
    noise = rng.standard_normal(len(clauses)).tolist() if noisy else ()
    for k, (var_name, value, lo, hi, sd) in enumerate(clauses):
        if noisy:
            value += sd * noise[k]
        # min(max(value, lo), hi), without the two calls
        columns[var_name][n] = lo if value < lo else hi if value > hi else value


def generate(
    spec: CohortSpec, rb: RuleBase
) -> tuple[list[tuple[str, StyleSignature]], BehaviorTable]:
    """Build (truth, behaviours) for the requested planted cohort.

    Deterministic: learners are numbered in block order and all draws come
    from one stream seeded by the cohort description. The table has a column
    per input variable; a cell no chosen clause sets gets a uniform draw.
    """
    dimensions = rb.dimensions()
    bounds = {v.name: (lo, hi, spec.noise_sigma * (hi - lo)) for v in rb.variables
              for lo, hi in [v.universe]}
    # Per (dimension, label), in rule order, the compiled clauses of each rule
    # producing it, as (variable, plateau midpoint, lo, hi, noise sd).
    prototypes: dict[tuple[str, str], list[list[tuple]]] = {}
    for dimension in dimensions:
        c = rb.compile_dimension(dimension)
        for clauses, t in zip(c.clauses, c.consequents):
            prototypes.setdefault((dimension, c.variable.terms[t][0]), []).append(
                [(c.inputs[k], term.plateau_midpoint, *bounds[c.inputs[k]]) for k, term in clauses]
            )
    for signature, _ in spec.counts:
        if len(signature) != len(dimensions):
            raise SimulationError(
                f"signature {signature} has {len(signature)} labels, "
                f"rule base covers {len(dimensions)} dimensions"
            )
        for dimension, label in zip(dimensions, signature):
            if (dimension, label) not in prototypes:
                raise UnreachableLabelError(
                    f"no rule produces {label!r} in dimension {dimension!r}"
                )

    uniform = [(v.name, *v.universe) for v in rb.variables if v.kind == "input"]
    noisy = spec.noise_sigma > 0

    rng = philox_rng(spec.seed, STREAM_BEHAVIOR)
    width = max(4, len(str(spec.total)))
    truth = []
    columns = {var_name: [math.nan] * spec.total for var_name, _, _ in uniform}
    n = 0
    for signature, count in spec.counts:
        candidates = [prototypes[key] for key in zip(dimensions, signature)]
        for _ in range(count):
            clauses: list = []  # chosen, with their noise still to draw
            for rules in candidates:
                # rng.integers(0, 1) draws no bits, so a sole producer needs no call.
                if len(rules) > 1:
                    _place(columns, n, clauses, rng, noisy)
                    clauses = list(rules[int(rng.integers(0, len(rules)))])
                else:
                    clauses += rules[0]
            _place(columns, n, clauses, rng, noisy)
            for var_name, lo, hi in uniform:
                if math.isnan(columns[var_name][n]):
                    columns[var_name][n] = float(rng.uniform(lo, hi))
            n += 1
            truth.append((f"L{n:0{width}d}", signature))
    log.info(
        "cohort: %d learners, %d signatures, noise %s, seed %d",
        n, len({signature for signature, _ in spec.counts}), spec.noise_sigma, spec.seed,
    )
    return truth, BehaviorTable([learner_id for learner_id, _ in truth], columns)


def generate_scores(
    truth: Sequence[tuple[str, StyleSignature]],
    assignment: GroupAssignment,
    model: ScoreModel,
    seed: int,
) -> dict[str, float]:
    """One Gaussian exam score per learner, clamped to the score range.

    Drawn in `assignment.rows()` order: group members by group id, then the
    control. Treated learners draw around their planted signature's mean
    (or the treated default), control learners around the control mean.
    """
    lo, hi = SCORE_RANGE
    signature_of = dict(truth)
    rng = philox_rng(seed, STREAM_SCORES)

    def draw(mean: float) -> float:
        return float(min(max(rng.normal(mean, model.sigma), lo), hi))

    return {
        learner: draw(model.control_mean if is_control else model.mean_for(signature_of[learner]))
        for learner, _, is_control in assignment.rows()
    }


# --------------------------------------------------------------------------
# File emission (the exact formats behaviour ingestion consumes)


def write_behaviors_csv(table: BehaviorTable, rb: RuleBase, path: str | Path) -> None:
    """Long-format behaviours CSV: per learner, a row per input it has, in declaration order.

    Ids are quoted by `csv_field`. A max_expected value is written as its `ingest.written_value`,
    which `ingest.read_value` scales back, not always to the same bits.
    """
    inputs = [(f",{v.name},", v.max_expected, table.column(v.name))
              for v in rb.variables if v.kind == "input"]
    lines = [",".join(BEHAVIORS_HEADER)]
    for n, learner in enumerate(map(csv_field, table.ids)):
        for text, ceiling, column in inputs:
            value = column[n]
            if value == value:  # NaN: no value
                if ceiling is not None:
                    value = written_value(value, ceiling)
                lines.append(learner + text + repr(value))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_truth_csv(
    truth: Sequence[tuple[str, StyleSignature]], dimensions: Sequence[str], path: str | Path
) -> None:
    rows = [(learner_id, *signature) for learner_id, signature in truth]
    Path(path).write_text(csv_text(["learner_id", *dimensions], rows), encoding="utf-8")


def write_scores_csv(scores: dict[str, float], path: str | Path) -> None:
    """`learner_id,score`, one row per learner in the dict's order, scores as `repr`."""
    rows = zip(scores, map(repr, scores.values()))
    Path(path).write_text(csv_text(SCORES_HEADER, rows), encoding="utf-8")


def load_cohort_spec(path: str | Path) -> CohortSpec:
    return CohortSpec.from_json_dict(read_json(path))
