"""Synthetic cohorts with known ground-truth styles, built by inverting rules.

For a planted label the generator picks one of the rules producing it and
emits each antecedent term's prototype value (the plateau midpoint) plus
optional Gaussian noise, so a noiseless cohort sits exactly on the rule
prototypes and the classifier must recover every planted label. Declared
input variables no chosen rule references get a uniform draw, so missing
coverage surfaces in testing rather than silently reading as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dsl import Rule, RuleBase
from .grouping import GroupAssignment, StyleSignature
from .ingest import BehaviorRecord
from .rng import STREAM_BEHAVIOR, STREAM_SCORES, philox_rng
from .stats import Sample

SCORE_RANGE = (0.0, 20.0)


class SimulationError(Exception):
    pass


class UnreachableLabelError(SimulationError):
    """A planted label that no rule in the base produces."""


@dataclass(frozen=True)
class ScoreModel:
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
        return cls(
            treated_mean=float(data["treated_mean"]),
            control_mean=float(data["control_mean"]),
            sigma=float(data["sigma"]),
            signature_means=tuple(
                (tuple(key.split("|")), float(mean))
                for key, mean in data.get("signature_means", {}).items()
            ),
        )


@dataclass(frozen=True)
class CohortSpec:
    """How to build a synthetic cohort: planted signatures, noise, seed."""

    counts: tuple[tuple[StyleSignature, int], ...]
    noise_sigma: float = 0.0
    seed: int = 0
    score_model: ScoreModel | None = None

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        for signature, count in self.counts:
            if count <= 0:
                raise ValueError(f"count for signature {signature} must be positive")

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
        return cls(
            counts=tuple(
                (tuple(entry["signature"]), int(entry["count"]))
                for entry in data["cohort"]
            ),
            noise_sigma=float(data.get("noise_sigma", 0.0)),
            seed=int(data.get("seed", 0)),
            score_model=(
                ScoreModel.from_json_dict(data["score_model"])
                if data.get("score_model")
                else None
            ),
        )


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


def _rules_by_consequent(rb: RuleBase) -> dict[tuple[str, str], list[Rule]]:
    index: dict[tuple[str, str], list[Rule]] = {}
    for rule in rb.rules:
        index.setdefault((rule.dimension, rule.consequent[1]), []).append(rule)
    return index


def generate(
    spec: CohortSpec, rb: RuleBase
) -> tuple[list[tuple[str, StyleSignature]], list[BehaviorRecord]]:
    """Build (truth, behaviours) for the requested planted cohort.

    Deterministic: learners are numbered in block order and all draws come
    from one stream seeded by the cohort description.
    """
    dimensions = rb.dimensions()
    producers = _rules_by_consequent(rb)
    for signature, _ in spec.counts:
        if len(signature) != len(dimensions):
            raise SimulationError(
                f"signature {signature} has {len(signature)} labels, "
                f"rule base covers {len(dimensions)} dimensions"
            )
        for dimension, label in zip(dimensions, signature):
            if (dimension, label) not in producers:
                raise UnreachableLabelError(
                    f"no rule produces {label!r} in dimension {dimension!r}"
                )

    rng = philox_rng(spec.seed, STREAM_BEHAVIOR)
    input_specs = [v for v in rb.variables if v.kind == "input"]
    variables = {v.name: v for v in rb.variables}
    width = max(4, len(str(spec.total)))

    truth = []
    records = []
    index = 0
    for signature, count in spec.counts:
        for _ in range(count):
            index += 1
            learner_id = f"L{index:0{width}d}"
            features: dict[str, float] = {}
            for dimension, label in zip(dimensions, signature):
                candidates = producers[(dimension, label)]
                rule = candidates[int(rng.integers(0, len(candidates)))]
                for var_name, term_label in rule.antecedent:
                    variable = variables[var_name]
                    lo, hi = variable.universe
                    value = variable.term(term_label).plateau_midpoint
                    if spec.noise_sigma > 0:
                        value += rng.normal(0.0, spec.noise_sigma * (hi - lo))
                    features[var_name] = min(max(value, lo), hi)
            for var_spec in input_specs:
                if var_spec.name not in features:
                    lo, hi = var_spec.universe
                    features[var_spec.name] = float(rng.uniform(lo, hi))
            truth.append((learner_id, signature))
            records.append(BehaviorRecord(learner_id=learner_id, features=features))
    return truth, records


def generate_scores(
    truth: Sequence[tuple[str, StyleSignature]],
    assignment: GroupAssignment,
    model: ScoreModel,
    seed: int,
) -> tuple[list[Sample], Sample | None]:
    """Gaussian exam scores per group and control, clamped to the score range.

    Treated learners draw around their planted signature's mean (or the
    treated default), control learners around the control mean.
    """
    lo, hi = SCORE_RANGE
    signature_of = dict(truth)
    rng = philox_rng(seed, STREAM_SCORES)

    def draw(mean: float) -> float:
        return float(min(max(rng.normal(mean, model.sigma), lo), hi))

    samples = []
    for group in assignment.groups:
        values = tuple(draw(model.mean_for(signature_of[m])) for m in group.members)
        samples.append(Sample(label=f"group-{group.group_id}", values=values))
    control = None
    if assignment.control:
        control = Sample(
            label="control",
            values=tuple(draw(model.control_mean) for _ in assignment.control),
        )
    return samples, control


# --------------------------------------------------------------------------
# File emission (the exact formats behaviour ingestion consumes)


def write_behaviors_csv(
    records: Sequence[BehaviorRecord], rb: RuleBase, path: str | Path
) -> None:
    """Long-format behaviours CSV; max_expected scaling is inverted so a
    round trip through ingestion reproduces the generated features."""
    ceilings = {
        v.name: v.max_expected for v in rb.variables if v.kind == "input"
    }
    order = [v.name for v in rb.variables if v.kind == "input"]
    lines = ["learner_id,variable,value"]
    for record in records:
        for name in order:
            if name not in record.features:
                continue
            value = record.features[name]
            ceiling = ceilings.get(name)
            if ceiling is not None:
                value = value * ceiling / 100.0
            lines.append(f"{record.learner_id},{name},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_truth_csv(
    truth: Sequence[tuple[str, StyleSignature]],
    dimensions: Sequence[str],
    path: str | Path,
) -> None:
    lines = ["learner_id," + ",".join(dimensions)]
    for learner_id, signature in truth:
        lines.append(learner_id + "," + ",".join(signature))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_scores_csv(
    samples: Sequence[Sample],
    assignment: GroupAssignment,
    control: Sample | None,
    path: str | Path,
) -> None:
    lines = ["learner_id,score"]
    for group, sample in zip(assignment.groups, samples):
        lines.extend(
            f"{member},{value!r}" for member, value in zip(group.members, sample.values)
        )
    if control is not None:
        lines.extend(
            f"{member},{value!r}"
            for member, value in zip(assignment.control, control.values)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_cohort_spec(path: str | Path) -> CohortSpec:
    with open(path, encoding="utf-8") as handle:
        return CohortSpec.from_json_dict(json.load(handle))
