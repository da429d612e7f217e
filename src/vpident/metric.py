"""Distances between hardening-parameter sets.

The raw Euclidean norm (dimensionally meaningless) and a non-dimensional
Euclidean norm over reference values are baselines. The distance the
package uses is mechanics-based: the maximum Frobenius-norm discrepancy of
the Cauchy stress along a prescribed strain-controlled loading path. It is
invariant under reparametrization of the model because it consumes nothing
but the stress response; its price is that parameters which stay invisible
along the path (for example hardening parameters on a purely elastic path)
produce zero distance, which the axiom checker reports instead of hiding.
One streamed scorer computes it for clouds and axiom checks alike: it keeps
a running maximum per pair of parameter sets and stores no stress history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import HardeningParams, MaterialParams, cauchy_response
from .errors import ZeroReferenceParameter
from .loading import DeformationHistory

#: members simulated per vectorized pass when a cloud is scored
CHUNK = 1024
#: round-off allowance of the hard axiom checks and of zero distance, MPa
AXIOM_SLACK = 1.0e-9


def _vec(p) -> np.ndarray:
    if isinstance(p, HardeningParams):
        return p.as_vector()
    v = np.asarray(p, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected a 6-component parameter vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class MetricSpec:
    """The loading path and material of the mechanics-based distance, and
    the time grid it is sampled on."""

    history: DeformationHistory
    material: MaterialParams
    n_steps: int = 400

    def __post_init__(self):
        if self.history is None or self.material is None:
            raise ValueError("mechanics metric needs a history and material constants")
        if self.n_steps < 1:
            raise ValueError("time grid resolution must be positive")


def dist_euclidean(p1, p2) -> float:
    """Plain l2-distance of the raw parameter vectors (mixed units)."""
    return float(np.linalg.norm(_vec(p1) - _vec(p2)))


def dist_euclidean_nondim(p1, p2, ref) -> float:
    """l2-distance of parameters divided componentwise by reference values."""
    r = _vec(ref)
    if np.any(r == 0.0):
        raise ZeroReferenceParameter("reference values must all be nonzero")
    return float(np.linalg.norm((_vec(p1) - _vec(p2)) / r))


def _max_gaps(spec: MetricSpec, rows: np.ndarray, n_refs: int) -> np.ndarray:
    """(M, n_refs) max over the metric's time grid of ||T(t, row) -
    T(t, ref)||_F, for every row of rows against each of its first n_refs
    rows. All rows are integrated in one pass; each sample only raises a
    running maximum of the squared norm, and one sqrt is taken at the end
    (sqrt is monotone, so that is the max of the roots bit for bit)."""
    times, f = spec.history.grid(spec.n_steps)
    out = np.zeros((len(rows), n_refs))

    def score(i, t):
        # (5, M, n_refs) plane gaps, xy and yx both counted; summing the rows
        # in order adds them as numpy adds the nonzero entries of a 3x3 gap
        gap = t[:, :, None] - t[:, None, :n_refs]
        gap *= gap
        np.maximum(out, gap.sum(axis=0), out=out)

    cauchy_response(f, times, spec.material, rows, sink=score)
    return np.sqrt(out, out=out)


def dist_mechanics(p1, p2, spec: MetricSpec) -> float:
    """max over the shared time grid of ||T(t, p1) - T(t, p2)||_F in MPa."""
    return float(mechanics_distances(_vec(p2)[None], p1, spec)[0])


def mechanics_distances(pvecs: np.ndarray, ref, spec: MetricSpec) -> np.ndarray:
    """Stress-metric distance of every row of pvecs to one reference set.

    The cloud is scored in chunks of CHUNK members, each integrated with the
    reference as its row 0; batch rows are integrated independently, so
    this equals a separate reference pass bit for bit.
    """
    pvecs = np.atleast_2d(np.asarray(pvecs, dtype=float))
    lead = _vec(ref)[None, :]
    out = np.zeros(len(pvecs))
    for start in range(0, len(pvecs), CHUNK):
        rows = np.vstack([lead, pvecs[start:start + CHUNK]])
        out[start:start + CHUNK] = _max_gaps(spec, rows, 1)[1:, 0]
    return out


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
    separation_violations: list
    distances: np.ndarray

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


def check_metric_axioms(spec: MetricSpec, samples) -> AxiomReport:
    """Evaluate the metric axioms on every pair/triple of the samples, with
    all pairwise distances from one streamed pass over the samples."""
    vecs = np.stack([_vec(s) for s in samples])
    n = len(vecs)
    if n < 3:
        raise ValueError("axiom checks need at least three samples")

    d = _max_gaps(spec, vecs, n)

    sym_defect = float(np.max(np.abs(d - d.T)))
    tri = d[:, None, :] - (d[:, :, None] + d[None, :, :])  # d(i,k) - d(i,j) - d(j,k)
    max_tri = float(np.max(tri))

    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if not np.array_equal(vecs[i], vecs[j]) and d[i, j] <= AXIOM_SLACK:
                violations.append((i, j))

    return AxiomReport(
        n_samples=n,
        nonnegativity_ok=bool(np.all(d >= -AXIOM_SLACK)),
        symmetry_ok=sym_defect <= AXIOM_SLACK,
        triangle_ok=max_tri <= AXIOM_SLACK,
        max_symmetry_defect=sym_defect,
        max_triangle_violation=max_tri,
        separation_violations=violations,
        distances=d,
    )
