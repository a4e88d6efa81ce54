"""Control-group split, homogeneous style grouping, and per-group content plans.

The control group is drawn first, uniformly at random without replacement
from a seeded counter-based generator. The remaining learners partition by
exact style signature; groups then merge (smallest into nearest centroid)
until at most ``target_k`` groups remain and every group reaches
``min_size``. The whole assignment is a pure function of (profiles, params).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .classify import StyleProfile
from .ingest import IngestError, csv_rows, csv_text
from .rng import STREAM_CONTROL, choice_set

log = logging.getLogger(__name__)

StyleSignature = tuple[str, ...]

ASSIGNMENT_HEADER = ["learner_id", "group_id", "is_control"]


class GroupingError(Exception):
    """Base class for grouping failures."""


class EmptyCohortError(GroupingError):
    pass


class DegenerateFractionError(GroupingError):
    """The requested control fraction would leave a side of the split below 2 learners."""


class InfeasibleConstraintsError(GroupingError):
    pass


@dataclass(frozen=True)
class GroupingParams:
    control_fraction: float
    seed: int
    target_k: int = 4
    min_size: int = 10


@dataclass(frozen=True)
class Group:
    group_id: int
    members: tuple[str, ...]
    centroid: tuple[float, ...]
    signature_mode: StyleSignature


@dataclass(frozen=True)
class GroupAssignment:
    groups: tuple[Group, ...]
    control: tuple[str, ...]
    params: GroupingParams

    def to_csv(self) -> str:
        rows = [(m, group.group_id, 0) for group in self.groups for m in group.members]
        rows.extend((m, "control", 1) for m in self.control)
        return csv_text(ASSIGNMENT_HEADER, rows)


def assignment_from_csv(text: str) -> list[tuple[str, str, bool]]:
    """(learner id, group id, is control) per row of a `GroupAssignment.to_csv` export."""
    rows = csv_rows(text)
    if not rows or rows[0] != ASSIGNMENT_HEADER:
        raise IngestError("not an assignment export: bad header")
    entries = {}
    for row in rows[1:]:
        if len(row) != len(ASSIGNMENT_HEADER):
            raise IngestError(
                f"learner {row[0]!r}: assignment row has {len(row)} fields, "
                f"expected {len(ASSIGNMENT_HEADER)}"
            )
        learner, group_id, is_control = row
        if not learner.strip():
            raise IngestError(f"learner {learner!r}: empty learner id")
        if learner in entries:
            raise IngestError(f"learner {learner!r}: listed twice")
        if is_control not in ("0", "1"):
            raise IngestError(f"learner {learner!r}: is_control {is_control!r} is not 0 or 1")
        if not group_id.strip():
            raise IngestError(f"learner {learner!r}: empty group_id")
        # `to_csv` writes group "control" with 1, and a group id with 0.
        if (group_id == "control") != (is_control == "1"):
            raise IngestError(
                f"learner {learner!r}: group_id {group_id!r} disagrees with is_control {is_control}"
            )
        entries[learner] = (learner, group_id, is_control == "1")
    return list(entries.values())


def split_control(
    learner_ids: Sequence[str], fraction: float, seed: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Draw the control group before any style-based grouping.

    Control size is round(fraction * n), and each side needs at least 2
    learners, as a t-test between them does; sampling is uniform without
    replacement and deterministic for a given seed: the control members are
    those numpy's `philox_rng(seed, STREAM_CONTROL).choice` would draw, taken
    from `rng.choice_set` without numpy. Both returned tuples preserve the
    input order.
    """
    if not learner_ids:
        raise EmptyCohortError("cannot split an empty cohort")
    if not 0.0 < fraction < 1.0:
        raise DegenerateFractionError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(learner_ids)
    control_n = round(fraction * n)
    if min(control_n, n - control_n) < 2:
        raise DegenerateFractionError(
            f"fraction {fraction} of {n} learners gives a control of {control_n} and a "
            f"treated side of {n - control_n}; each needs at least 2"
        )
    chosen = choice_set(seed, STREAM_CONTROL, n, control_n)
    control = tuple(learner_ids[i] for i in range(n) if i in chosen)
    treatment = tuple(learner_ids[i] for i in range(n) if i not in chosen)
    return treatment, control


def _mode_signature(signatures: Sequence[StyleSignature]) -> StyleSignature:
    counts = Counter(signatures)
    best = max(counts.values())
    return min(sig for sig, count in counts.items() if count == best)


def _centroid(score_rows: Sequence[tuple[float, ...]]) -> tuple[float, ...]:
    dims = len(score_rows[0])
    return tuple(
        sum(row[k] for row in score_rows) / len(score_rows) for k in range(dims)
    )


def _distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def homogeneous_partition(
    profiles: Sequence[StyleProfile], target_k: int = 4, min_size: int = 10
) -> tuple[Group, ...]:
    """Partition by exact signature, then merge until the constraints hold.

    While more than ``target_k`` groups exist or any group is smaller than
    ``min_size``, the smallest group merges into the group whose centroid
    (mean crisp-score vector) is nearest; ties prefer the smaller group id.
    ``target_k`` is a ceiling, not a forced count: one homogeneous group
    stays one group.
    """
    if not profiles:
        raise EmptyCohortError("cannot partition an empty cohort")
    if target_k < 1:
        raise InfeasibleConstraintsError(f"target_k must be >= 1, got {target_k}")
    if len(profiles) < target_k:
        raise InfeasibleConstraintsError(
            f"{len(profiles)} learners cannot form {target_k} groups"
        )

    scores = {
        p.learner_id: tuple(result.crisp_score for result in p.results) for p in profiles
    }
    by_signature: dict[StyleSignature, list[str]] = {}
    signatures: dict[str, StyleSignature] = {}
    for profile in profiles:
        signatures[profile.learner_id] = profile.signature
        by_signature.setdefault(profile.signature, []).append(profile.learner_id)

    # Mutable group state: id -> member learner ids; ids follow the
    # lexicographic order of the initial signatures.
    groups: dict[int, list[str]] = {
        gid: list(members)
        for gid, (_, members) in enumerate(sorted(by_signature.items()), start=1)
    }

    def centroid_of(gid: int) -> tuple[float, ...]:
        return _centroid([scores[m] for m in groups[gid]])

    # Only a merge changes a centroid, and only the target's.
    centroids = {gid: centroid_of(gid) for gid in groups}
    while len(groups) > 1:
        sizes_ok = all(len(members) >= min_size for members in groups.values())
        if len(groups) <= target_k and sizes_ok:
            break
        smallest = min(groups, key=lambda gid: (len(groups[gid]), gid))
        source_centroid = centroids.pop(smallest)
        target = min(
            (gid for gid in groups if gid != smallest),
            key=lambda gid: (_distance(centroids[gid], source_centroid), gid),
        )
        groups[target].extend(groups.pop(smallest))
        centroids[target] = centroid_of(target)

    return tuple(
        Group(
            group_id=gid,
            members=tuple(members),
            centroid=centroids[gid],
            signature_mode=_mode_signature([signatures[m] for m in members]),
        )
        for gid, members in sorted(groups.items())
    )


def assign_groups(
    profiles: Sequence[StyleProfile], params: GroupingParams
) -> GroupAssignment:
    """Full assignment: control split first, then homogeneous grouping."""
    treatment_ids, control = split_control(
        [p.learner_id for p in profiles], params.control_fraction, params.seed
    )
    treatment_set = set(treatment_ids)
    treatment_profiles = [p for p in profiles if p.learner_id in treatment_set]
    groups = homogeneous_partition(
        treatment_profiles, target_k=params.target_k, min_size=params.min_size
    )
    signatures_in = len({p.signature for p in treatment_profiles})
    log.info(
        "assignment: %d learners, %d control, %d signatures in, %d groups out, "
        "%d merges, sizes %s",
        len(profiles), len(control), signatures_in, len(groups),
        signatures_in - len(groups), ",".join(str(len(g.members)) for g in groups),
    )
    return GroupAssignment(groups=groups, control=control, params=params)


# --------------------------------------------------------------------------
# Content plans


# Style label -> preference descriptor. Labels the maps do not know
# (hybrids in particular) fall back to "mixed".
_ACTIVITY = {
    "reflection": "group",
    "reflective": "group",
    "reflexive": "group",
    "reactive": "individual",
    "active": "individual",
}
_GROUNDING = {
    "sensory": "examples",
    "emotional": "examples",
    "intuitive": "theory",
    "perceptual": "theory",
}
_MEDIA = {
    "visual": "visual",
    "verbal": "verbal",
    "auditory": "verbal",
}
_STRUCTURE = {
    "consecutive": "part-by-part",
    "sequential": "part-by-part",
    "global": "overview",
    "holistic": "overview",
}

PREFERENCE_NOTES = {
    ("activity", "group"): "learns by experimenting and discussing; favour group exercises",
    ("activity", "individual"): "learns by thinking things through; favour individual study",
    ("activity", "mixed"): "alternate group and individual work",
    ("grounding", "examples"): "real examples with every working step spelled out",
    ("grounding", "theory"): "concepts and theory before practical detail",
    ("grounding", "mixed"): "alternate worked examples and theory",
    ("media", "visual"): "pictures, diagrams, and video material",
    ("media", "verbal"): "text and audio material",
    ("media", "mixed"): "blend visual with text and audio material",
    ("structure", "part-by-part"): "step-by-step structure building on previous parts",
    ("structure", "overview"): "general view first, connecting subjects and summaries",
    ("structure", "mixed"): "combine step-by-step parts with periodic overviews",
}


@dataclass(frozen=True)
class ContentPlan:
    """Educational preferences for one group, one descriptor per dimension."""

    group_id: int
    activity: str
    grounding: str
    media: str
    structure: str

    def to_json_dict(self) -> dict:
        return {
            "group_id": self.group_id,
            "preferences": {
                axis: {
                    "descriptor": value,
                    "note": PREFERENCE_NOTES[(axis, value)],
                }
                for axis, value in (
                    ("activity", self.activity),
                    ("grounding", self.grounding),
                    ("media", self.media),
                    ("structure", self.structure),
                )
            },
        }


def content_plan(group: Group) -> ContentPlan:
    """Deterministic mapping from a group's modal signature to its preferences.

    Each preference takes the first label of the signature its map knows,
    so a rule base with fewer or other dimensions still gets a plan; an
    axis no label speaks to is "mixed".
    """

    def preference(table: dict[str, str]) -> str:
        return next(
            (table[label] for label in group.signature_mode if label in table), "mixed"
        )

    return ContentPlan(
        group_id=group.group_id,
        activity=preference(_ACTIVITY),
        grounding=preference(_GROUNDING),
        media=preference(_MEDIA),
        structure=preference(_STRUCTURE),
    )
