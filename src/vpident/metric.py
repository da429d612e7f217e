"""Distances between hardening-parameter sets.

Three choices: the raw Euclidean norm (dimensionally meaningless, kept as
a baseline), a non-dimensional Euclidean norm over characteristic values,
and a stress-response distance: the maximum Frobenius-norm discrepancy of
the Cauchy stress along a prescribed strain-controlled loading path. The
last one is invariant under reparametrization of the model because it
consumes nothing but the stress response; its price is that parameters
which stay invisible along the path (for example hardening parameters on a
purely elastic path) produce zero distance, which the axiom checker
reports instead of hiding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import HardeningParams, MaterialParams, cauchy_response
from .errors import ZeroReferenceParameter
from .loading import DeformationHistory

#: members simulated per vectorized pass when a cloud is scored
CHUNK = 1024


def _vec(p) -> np.ndarray:
    if isinstance(p, HardeningParams):
        return p.as_vector()
    v = np.asarray(p, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected a 6-component parameter vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class MetricSpec:
    """Which distance to use, plus everything the stress metric needs."""

    kind: str  # "euclidean" | "euclidean_nondim" | "mechanics"
    reference: HardeningParams | None = None
    history: DeformationHistory | None = None
    material: MaterialParams | None = None
    n_steps: int = 400
    n_sub: int = 1

    def __post_init__(self):
        if self.kind == "euclidean_nondim":
            if self.reference is None:
                raise ValueError("non-dimensional metric needs reference values")
            if np.any(self.reference.as_vector() == 0.0):
                raise ZeroReferenceParameter("reference values must all be nonzero")
        elif self.kind == "mechanics":
            if self.history is None or self.material is None:
                raise ValueError("mechanics metric needs a history and material constants")
            if self.n_steps < 1 or self.n_sub < 1:
                raise ValueError("time grid resolution must be positive")
        elif self.kind != "euclidean":
            raise ValueError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def euclidean(cls) -> "MetricSpec":
        return cls("euclidean")

    @classmethod
    def euclidean_nondim(cls, reference: HardeningParams) -> "MetricSpec":
        return cls("euclidean_nondim", reference=reference)

    @classmethod
    def mechanics(cls, history: DeformationHistory, material: MaterialParams,
                  n_steps: int = 400, n_sub: int = 1) -> "MetricSpec":
        return cls("mechanics", history=history, material=material,
                   n_steps=n_steps, n_sub=n_sub)


def dist_euclidean(p1, p2) -> float:
    """Plain l2-distance of the raw parameter vectors (mixed units)."""
    return float(np.linalg.norm(_vec(p1) - _vec(p2)))


def dist_euclidean_nondim(p1, p2, ref) -> float:
    """l2-distance of parameters divided componentwise by reference values."""
    r = _vec(ref)
    if np.any(r == 0.0):
        raise ZeroReferenceParameter("reference values must all be nonzero")
    return float(np.linalg.norm((_vec(p1) - _vec(p2)) / r))


def stress_trajectories(spec: MetricSpec, pvecs: np.ndarray, sink=None) -> np.ndarray | None:
    """(M, T, 3, 3) Cauchy-stress histories along the metric's loading path,
    or None with every sample streamed to ``sink`` (see ``cauchy_response``)."""
    if spec.kind != "mechanics":
        raise ValueError("stress trajectories require a mechanics metric")
    times, f = spec.history.grid(spec.n_steps)
    return cauchy_response(f, times, spec.material, np.atleast_2d(pvecs), n_sub=spec.n_sub,
                           sink=sink)


def dist_mechanics(p1, p2, spec: MetricSpec) -> float:
    """max over the shared time grid of ||T(t, p1) - T(t, p2)||_F in MPa."""
    return float(mechanics_distances(_vec(p2)[None], p1, spec)[0])


def distance(spec: MetricSpec, p1, p2) -> float:
    if spec.kind == "euclidean":
        return dist_euclidean(p1, p2)
    if spec.kind == "euclidean_nondim":
        return dist_euclidean_nondim(p1, p2, spec.reference)
    return dist_mechanics(p1, p2, spec)


def mechanics_distances(pvecs: np.ndarray, ref, spec: MetricSpec) -> np.ndarray:
    """Stress-metric distance of every row of pvecs to one reference set.

    The cloud is integrated in chunks of CHUNK members and scored as it
    integrates: each sample only raises a running maximum of the squared
    norm per member, so no stress history is stored. Row 0 of the first
    chunk is the reference; batch rows are integrated independently, so
    this equals a separate reference pass bit for bit.
    """
    pvecs = np.atleast_2d(np.asarray(pvecs, dtype=float))
    ref_traj = []
    out = np.zeros(len(pvecs))
    for start in range(0, max(len(pvecs), 1), CHUNK):
        rows, part = pvecs[start:start + CHUNK], out[start:start + CHUNK]

        def score(i, cauchy, part=part, lead=start == 0):
            if lead:
                ref_traj.append(cauchy[0].copy())
                cauchy = cauchy[1:]
            cauchy -= ref_traj[i]
            cauchy *= cauchy
            np.maximum(part, np.sum(cauchy, axis=(-2, -1)), out=part)

        stress_trajectories(spec, np.vstack([_vec(ref)[None, :], rows]) if start == 0 else rows,
                            sink=score)
    return np.sqrt(out, out=out)  # sqrt is monotone: the max of the roots, bit for bit


@dataclass
class AxiomReport:
    """Outcome of the metric-axiom checks over a sample of parameter sets.

    Non-negativity, symmetry, and the triangle inequality are hard checks;
    separation (zero distance only for identical parameters) is reported,
    not asserted, because it legitimately fails on loading paths that keep
    the response elastic.
    """

    n_samples: int
    nonnegativity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    max_symmetry_defect: float
    max_triangle_violation: float
    separation_violations: list = field(default_factory=list)
    distances: np.ndarray | None = None

    @property
    def separation_ok(self) -> bool:
        return not self.separation_violations

    def summary(self) -> str:
        lines = [
            f"samples: {self.n_samples}",
            f"nonnegativity: {'ok' if self.nonnegativity_ok else 'VIOLATED'}",
            f"symmetry: {'ok' if self.symmetry_ok else 'VIOLATED'}"
            f" (max defect {self.max_symmetry_defect:.3e})",
            f"triangle: {'ok' if self.triangle_ok else 'VIOLATED'}"
            f" (max violation {self.max_triangle_violation:.3e})",
        ]
        if self.separation_violations:
            pairs = ", ".join(f"({i},{j})" for i, j in self.separation_violations)
            lines.append(f"separation: VIOLATED for distinct pairs {pairs}")
        else:
            lines.append("separation: ok (all distinct pairs at positive distance)")
        return "\n".join(lines)


def check_metric_axioms(spec: MetricSpec, samples, slack: float = 1.0e-9) -> AxiomReport:
    """Evaluate the metric axioms on every pair/triple of the samples."""
    vecs = np.stack([_vec(s) for s in samples])
    n = len(vecs)
    if n < 3:
        raise ValueError("axiom checks need at least three samples")

    d = np.zeros((n, n))
    if spec.kind == "mechanics":
        traj = stress_trajectories(spec, vecs)
        for i in range(n):
            diff = traj[i + 1:] - traj[i][None]
            if len(diff):
                d[i, i + 1:] = np.max(np.sqrt(np.sum(diff * diff, axis=(-2, -1))), axis=1)
        d = d + d.T
    else:
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = distance(spec, vecs[i], vecs[j])

    sym_defect = float(np.max(np.abs(d - d.T)))
    tri = d[:, None, :] - (d[:, :, None] + d[None, :, :])  # d(i,k) - d(i,j) - d(j,k)
    max_tri = float(np.max(tri))

    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if not np.array_equal(vecs[i], vecs[j]) and d[i, j] <= slack:
                violations.append((i, j))

    return AxiomReport(
        n_samples=n,
        nonnegativity_ok=bool(np.all(d >= -slack)),
        symmetry_ok=sym_defect <= slack,
        triangle_ok=max_tri <= slack,
        max_symmetry_defect=sym_defect,
        max_triangle_violation=max_tri,
        separation_violations=violations,
        distances=d,
    )
