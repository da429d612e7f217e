import tracemalloc

import numpy as np
import pytest

from vpident import (
    HardeningParams,
    MetricSpec,
    benchmark_history,
    check_metric_axioms,
    dist_euclidean,
    dist_euclidean_nondim,
    dist_mechanics,
    mechanics_distances,
)
from vpident import metric
from vpident.errors import ZeroReferenceParameter
from vpident.loading import DeformationHistory

from conftest import _full, metric_trajectories


def perturbed(base, rng, scale=0.1):
    return HardeningParams.from_vector(base.as_vector() * (1.0 + scale * rng.uniform(-1, 1, 6)))


@pytest.fixture(scope="module")
def mech_spec(material):
    return MetricSpec(benchmark_history(1, duration=40.0), material, n_steps=100)


@pytest.fixture(scope="module")
def mech_spec_h2(material):
    return MetricSpec(benchmark_history(2, duration=40.0), material, n_steps=100)


def elastic_history(duration=40.0):
    """A cycle so shallow the response never leaves the elastic domain."""
    stretch = 1.0005
    f2 = np.diag([stretch, stretch**-0.5, stretch**-0.5])
    keypoints = ((0.0, np.eye(3)), (0.5 * duration, f2), (duration, np.eye(3)))
    return DeformationHistory(keypoints=keypoints)


# ---------------------------------------------------------------------------
# euclidean distances


def test_euclidean_trivial(truth):
    assert dist_euclidean(truth, truth) == 0.0
    other = HardeningParams.from_vector(truth.as_vector() + np.array([10, 0, 0, 0, 0, 0.0]))
    assert dist_euclidean(truth, other) == pytest.approx(10.0)


def test_euclidean_symmetry(truth):
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = perturbed(truth, rng), perturbed(truth, rng)
        assert dist_euclidean(a, b) == dist_euclidean(b, a)


def test_euclidean_nondim(truth):
    assert dist_euclidean_nondim(truth, truth, truth) == 0.0
    double = HardeningParams.from_vector(2.0 * truth.as_vector())
    assert dist_euclidean_nondim(double, truth, truth) == pytest.approx(np.sqrt(6.0))
    with pytest.raises(ZeroReferenceParameter):
        dist_euclidean_nondim(truth, double, np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))


def test_nondim_consistency_identity(truth):
    rng = np.random.default_rng(5)
    a, b = perturbed(truth, rng), perturbed(truth, rng)
    ref = truth.as_vector()
    direct = dist_euclidean_nondim(a, b, truth)
    via_division = dist_euclidean(a.as_vector() / ref, b.as_vector() / ref)
    assert direct == pytest.approx(via_division, rel=1e-12)


def test_metric_spec_validation(material, truth):
    with pytest.raises(ZeroReferenceParameter):
        dist_euclidean_nondim(truth, truth, HardeningParams(0.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        MetricSpec(None, material)
    with pytest.raises(ValueError):
        MetricSpec(benchmark_history(1), None)
    with pytest.raises(ValueError):
        MetricSpec(benchmark_history(1), material, n_steps=0)


# ---------------------------------------------------------------------------
# mechanics-based distance


def test_mechanics_zero_for_identical(truth, mech_spec):
    assert dist_mechanics(truth, truth, mech_spec) == 0.0


def test_mechanics_positive_for_different(truth, mech_spec):
    rng = np.random.default_rng(2)
    other = perturbed(truth, rng, scale=0.2)
    assert dist_mechanics(truth, other, mech_spec) > 0.1


def test_mechanics_elastic_degeneracy(material, truth):
    """Different hardening, same stress response inside the elastic domain."""
    spec = MetricSpec(elastic_history(), material, n_steps=60)
    rng = np.random.default_rng(3)
    other = perturbed(truth, rng, scale=0.3)
    assert dist_mechanics(truth, other, spec) == 0.0


def test_mechanics_triangle_inequality(truth, mech_spec):
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b, c = (perturbed(truth, rng, 0.15) for _ in range(3))
        dac = dist_mechanics(a, c, mech_spec)
        dab = dist_mechanics(a, b, mech_spec)
        dbc = dist_mechanics(b, c, mech_spec)
        assert dac <= dab + dbc + 1e-9


def test_mechanics_reparametrization_invariance(truth, mech_spec):
    """The metric consumes only the stress response, so the distance between
    two parameter sets seen through a smooth one-to-one reparametrization
    (here: log-parameters) is the distance between their images, while the
    Euclidean metric genuinely changes."""
    rng = np.random.default_rng(6)
    rho1 = np.log(truth.as_vector())
    rho2 = np.log(perturbed(truth, rng, 0.1).as_vector())
    p1, p2 = np.exp(rho1), np.exp(rho2)
    assert dist_mechanics(p1, p2, mech_spec) == dist_mechanics(p1.copy(), p2.copy(), mech_spec)
    # exp(log(.)) round-trips to the last ulp; the distance follows suit
    d_images = dist_mechanics(p1, p2, mech_spec)
    d_original = dist_mechanics(truth.as_vector(), p2, mech_spec)
    assert d_images == pytest.approx(d_original, rel=1e-9)
    # the Euclidean distance is not reparametrization-invariant
    assert abs(dist_euclidean(rho1, rho2) - dist_euclidean(p1, p2)) > 1.0


@pytest.mark.parametrize("history", [1, 2])
def test_dist_mechanics_equals_the_stored_trajectory_formula(truth, mech_spec, mech_spec_h2,
                                                              history):
    """The pairwise distance is the cloud scoring of one member, bit for bit
    equal to the max over time of the Frobenius norm of the stored
    trajectories' difference."""
    spec = mech_spec if history == 1 else mech_spec_h2
    rng = np.random.default_rng(11)
    for _ in range(4):
        p1, p2 = perturbed(truth, rng, 0.15), perturbed(truth, rng, 0.15)
        out = metric_trajectories(spec, np.stack([p1.as_vector(), p2.as_vector()]))
        diff = out[0] - out[1]
        expected = float(np.max(np.sqrt(np.sum(diff * diff, axis=(-2, -1)))))
        assert dist_mechanics(p1, p2, spec) == expected


def test_plane_gap_sum_equals_the_3x3_sum(mech_spec, monkeypatch):
    """On random symmetric plane stresses the scorer's squared gap, summed
    over the five rows, equals np.sum over the 3x3 gap bit for bit: the rows
    are added in the order numpy adds the nonzero 3x3 entries, which keeps
    seeded cloud sizes byte-identical. One sample, so no maximum hides a
    sum."""
    rng = np.random.default_rng(23)
    t = rng.standard_normal((5, 64)) * 10.0 ** rng.uniform(-2.0, 3.0, (5, 64))
    t[2] = t[1]

    def streaming(f, times, material, rows, sink):
        sink(0, t.copy())

    monkeypatch.setattr(metric, "cauchy_response", streaming)
    got = metric._max_gaps(mech_spec, np.zeros((64, 6)), 64)
    gap = _full(t[:, :, None] - t[:, None, :])
    assert np.array_equal(got, np.sqrt(np.sum(gap**2, axis=(-2, -1))))


def test_cloud_scoring_stores_no_stress_history(truth, material):
    """Scoring streams through the integrator: the traced peak stays below a
    quarter of one stored (M, T, 3, 3) history."""
    spec = MetricSpec(benchmark_history(1, duration=40.0), material, n_steps=400)
    rng = np.random.default_rng(12)
    cloud = truth.as_vector()[None, :] * (1.0 + 0.02 * rng.standard_normal((200, 6)))
    tracemalloc.start()
    try:
        d = mechanics_distances(cloud, truth, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.shape == (200,) and np.all(d > 0.0)
    assert peak < 200 * 401 * 72 / 4


def test_mechanics_grid_refinement(truth, material):
    rng = np.random.default_rng(8)
    other = perturbed(truth, rng, 0.15)
    values = []
    for steps in (400, 800):
        spec = MetricSpec(benchmark_history(1), material, n_steps=steps)
        values.append(dist_mechanics(truth, other, spec))
    assert abs(values[0] - values[1]) / values[1] < 0.005


# ---------------------------------------------------------------------------
# axiom checks


def test_axioms_all_equal_samples(truth, mech_spec):
    report = check_metric_axioms(mech_spec, [truth, truth, truth])
    assert report.nonnegativity_ok and report.symmetry_ok and report.triangle_ok
    assert not report.separation_violations  # no distinct pairs
    assert np.all(report.distances == 0.0)


def test_axioms_on_perturbed_sets(truth, mech_spec_h2):
    rng = np.random.default_rng(9)
    samples = [truth] + [perturbed(truth, rng, 0.15) for _ in range(5)]
    report = check_metric_axioms(mech_spec_h2, samples)
    assert report.nonnegativity_ok
    assert report.symmetry_ok
    assert report.triangle_ok
    assert report.separation_ok


def test_axioms_report_elastic_separation_failure(material, truth):
    spec = MetricSpec(elastic_history(), material, n_steps=60)
    rng = np.random.default_rng(10)
    samples = [truth, perturbed(truth, rng, 0.2), perturbed(truth, rng, 0.2)]
    report = check_metric_axioms(spec, samples)
    # reported, not raised
    assert not report.separation_ok
    assert len(report.separation_violations) == 3
    assert report.nonnegativity_ok and report.triangle_ok
    assert "VIOLATED" in report.summary()


def stored_axiom_distances(spec, vecs):
    """The pairwise distance matrix from stored trajectories: the reference
    formula max_t ||T(t, p_i) - T(t, p_j)||_F over the upper triangle,
    mirrored."""
    traj = metric_trajectories(spec, vecs)
    n = len(vecs)
    d = np.zeros((n, n))
    for i in range(n):
        diff = traj[i + 1:] - traj[i][None]
        if len(diff):
            d[i, i + 1:] = np.max(np.sqrt(np.sum(diff * diff, axis=(-2, -1))), axis=1)
    return d + d.T


@pytest.mark.parametrize("history", ["h1", "h2", "elastic"])
def test_axiom_distances_equal_the_stored_trajectory_formula(material, truth, mech_spec,
                                                             mech_spec_h2, history):
    """check_metric_axioms streams its pairwise distances in one pass; they
    equal the stored-trajectory formula bit for bit."""
    spec = {"h1": mech_spec, "h2": mech_spec_h2,
            "elastic": MetricSpec(elastic_history(), material, n_steps=60)}[history]
    rng = np.random.default_rng(13)
    samples = [truth, truth] + [perturbed(truth, rng, 0.15) for _ in range(4)]
    vecs = np.stack([p.as_vector() for p in samples])
    report = check_metric_axioms(spec, samples)
    assert np.array_equal(report.distances, stored_axiom_distances(spec, vecs))
    assert report.max_symmetry_defect == 0.0


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_axiom_check_stores_no_stress_history(truth, material):
    """The axiom check streams through the integrator. The (T, 3, 3) arrays
    of the path itself do not grow with the sample count, so the bound is on
    what 12 samples add over 3: under a quarter of one stored (12, T, 3, 3)
    history."""
    spec = MetricSpec(benchmark_history(1, duration=40.0), material, n_steps=400)
    rng = np.random.default_rng(14)
    samples = [perturbed(truth, rng, 0.05) for _ in range(12)]
    check_metric_axioms(spec, samples[:3])  # warm up
    growth = traced_peak(check_metric_axioms, spec, samples) - traced_peak(
        check_metric_axioms, spec, samples[:3])
    assert growth < 12 * 401 * 72 / 4


def test_axioms_need_three_samples(truth, mech_spec):
    with pytest.raises(ValueError):
        check_metric_axioms(mech_spec, [truth, truth])
