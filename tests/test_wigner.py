import numpy as np
import pytest

import oracle
from cvpost import conditioner, fock, wigner

GRID_TOL = 1e-4


def pure_grid(psi, *axes):
    """The Wigner grid of the pure state ``psi``."""
    return wigner.wigner_from_density(np.outer(psi, psi.conj()), *axes)


def small_axes(extent=3.0, points=121):
    axis = np.linspace(-extent, extent, points)
    return axis, axis.copy()


# ---------------------------------------------------------------------------
# Grid evaluation against closed forms
# ---------------------------------------------------------------------------


def test_vacuum_peak():
    grid = pure_grid(fock.fock_state(0, 20))
    i = np.argmin(np.abs(grid.x_axis))
    j = np.argmin(np.abs(grid.p_axis))
    np.testing.assert_allclose(grid.values[i, j], 2 / np.pi, rtol=1e-10)
    assert grid.values.max() <= 2 / np.pi + 1e-9


def test_single_photon_origin():
    grid = pure_grid(fock.fock_state(1, 20))
    i = np.argmin(np.abs(grid.x_axis))
    j = np.argmin(np.abs(grid.p_axis))
    np.testing.assert_allclose(grid.values[i, j], -2 / np.pi, rtol=1e-10)


def test_squeezed_photon_matches_closed_form():
    # W of S(s')|1> in closed form: squeezed coordinates in the |1> formula
    sp = 0.67
    psi = fock.squeezed_number_state(1, sp, 60)
    x_axis, p_axis = small_axes()
    grid = pure_grid(psi, x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    q = np.exp(-2 * sp) * xg**2 + np.exp(2 * sp) * pg**2
    expected = (2 / np.pi) * np.exp(-2 * q) * (4 * q - 1)
    np.testing.assert_allclose(grid.values, expected, atol=1e-6)


@pytest.mark.parametrize(
    "state, closed",
    [
        (lambda d: fock.fock_state(0, d), lambda a: oracle.squeezed_vacuum_wigner(a, 0.0)),
        (lambda d: fock.fock_state(1, d), oracle.single_photon_wigner),
        (lambda d: fock.squeezed_number_state(0, 0.52, d), lambda a: oracle.squeezed_vacuum_wigner(a, 0.52)),
        (lambda d: fock.coherent_state(1.1j, d), lambda a: (2 / np.pi) * np.exp(-2 * np.abs(a - 1.1j) ** 2)),
        (lambda d: fock.scs_state(1.1j, d), lambda a: oracle.scs_wigner(a, 1.1j)),
    ],
    ids=["vacuum", "one-photon", "squeezed", "coherent", "cat"],
)
def test_ground_truth_pointwise(state, closed):
    # every preparer's grid Wigner matches the closed form on |a+|,|a-| <= 3
    dim = 40
    x_axis, p_axis = small_axes()
    grid = pure_grid(state(dim), x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    expected = closed(xg + 1j * pg)
    np.testing.assert_allclose(grid.values, expected, atol=1e-6)


def test_scs_pointwise_tight():
    # the cat Wigner matches its closed form to 1e-8 at adequate dimension
    dim = 48
    pts = np.array([0.0, 0.3 + 0.4j, -1.0 + 1.1j, 0.5j, 1.5 - 0.5j])
    cat = fock.scs_state(1.1j, dim)
    got = wigner._wigner_values(np.outer(cat, cat.conj()), pts)
    np.testing.assert_allclose(got, oracle.scs_wigner(pts, 1.1j), atol=1e-8)


# ---------------------------------------------------------------------------
# Grid evaluation against the point-by-point oracle
# ---------------------------------------------------------------------------


def random_mixed_density(dim, rank=4, seed=0):
    rng = np.random.default_rng(seed + dim)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = (vecs * rng.random(rank)) @ vecs.conj().T
    return rho / np.trace(rho).real


def oracle_axes(kind):
    rng = np.random.default_rng(7)
    if kind == "cli-symmetric":  # radii repeat up to eight times
        axis = np.linspace(-6.0, 6.0, 241)
        return axis, axis.copy()
    if kind == "non-uniform":  # radii do not repeat
        return np.sort(rng.uniform(-6, 6, 57)), np.sort(rng.uniform(-6, 6, 43))
    # "origin": alpha = 0 lies on the grid
    return (np.sort(np.append(rng.uniform(-4, 4, 20), 0.0)),
            np.sort(np.append(rng.uniform(-4, 4, 16), 0.0)))


@pytest.mark.parametrize("kind", ["cli-symmetric", "non-uniform", "origin"])
@pytest.mark.parametrize("dim", [12, 40, 80])
def test_grid_matches_pointwise_oracle(dim, kind):
    rho = random_mixed_density(dim)
    x_axis, p_axis = oracle_axes(kind)
    grid = wigner.wigner_from_density(rho, x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    expected = oracle.wigner_values(rho, (xg + 1j * pg).ravel()).reshape(xg.shape)
    np.testing.assert_allclose(grid.values, expected, rtol=0, atol=1e-13)


def test_empty_diagonals_match_oracle():
    # an even cat has no odd Fock components, so every odd diagonal is zero
    cat = fock.scs_state(1.1j, 40)
    rho = np.outer(cat, cat.conj())
    x_axis, p_axis = oracle_axes("non-uniform")
    grid = wigner.wigner_from_density(rho, x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    expected = oracle.wigner_values(rho, (xg + 1j * pg).ravel()).reshape(xg.shape)
    np.testing.assert_allclose(grid.values, expected, rtol=0, atol=1e-13)


def test_wigner_point_matches_oracle():
    rho = random_mixed_density(40)
    pts = np.array([0.0, 0.3 - 0.4j, -1.0 + 1.1j, 0.5j, 2.5 - 0.5j, -0.3 + 0.4j])
    np.testing.assert_allclose(
        wigner._wigner_values(rho, pts), oracle.wigner_values(rho, pts), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("scale", [1e-20, 1e3])
def test_wigner_scales_with_the_state(scale):
    # conditioned states come unnormalized, with traces down to P1(x) << 1
    rho = random_mixed_density(40)
    x_axis, p_axis = oracle_axes("non-uniform")
    base = wigner.wigner_from_density(rho, x_axis, p_axis).values
    scaled = wigner.wigner_from_density(scale * rho, x_axis, p_axis).values
    np.testing.assert_allclose(scaled / scale, base, rtol=1e-12, atol=1e-12 * np.abs(base).max())


def test_tiny_trace_photon_is_not_zeroed():
    one = np.outer(fock.fock_state(1, 40), fock.fock_state(1, 40))
    got = wigner._wigner_values(1e-20 * one, np.array([0.0]))
    np.testing.assert_allclose(got, -1e-20 * 2 / np.pi, rtol=1e-12)


def test_far_points_are_zero_not_nan():
    # 4|alpha|^2 overflows past |alpha| = 1e154; W is 0 there, as it is at 1e150
    rho = random_mixed_density(20)
    pts = np.array([1e150, 1e154, -3e200j, 1e300 + 1e300j, 1.5e308])
    np.testing.assert_array_equal(wigner._wigner_values(rho, pts), 0.0)
    axis = np.linspace(-1e300, 1e300, 9)
    grid = wigner.wigner_from_density(rho, axis, axis.copy())
    assert np.all(np.isfinite(grid.values)) and grid.riemann_sum() == np.inf


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_closed_form_values():
    np.testing.assert_allclose(oracle.squeezed_vacuum_wigner(0.0, 0.0), 2 / np.pi, rtol=1e-12)
    # zero ring of the single photon at |alpha| = 1/2
    np.testing.assert_allclose(oracle.single_photon_wigner(0.5), 0.0, atol=1e-15)
    np.testing.assert_allclose(oracle.single_photon_wigner(0.3 + 0.4j), 0.0, atol=1e-15)
    np.testing.assert_allclose(oracle.scs_wigner(0.0, 1.1j), 2 / np.pi, rtol=1e-12)


@pytest.mark.parametrize(
    "func",
    [
        lambda a: oracle.squeezed_vacuum_wigner(a, 0.52),
        oracle.single_photon_wigner,
        lambda a: oracle.scs_wigner(a, 1.1j),
    ],
    ids=["sqz", "single_photon", "scs"],
)
def test_closed_forms_normalized(func):
    axis = np.linspace(-6, 6, 241)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    values = func(xg + 1j * pg)
    d = axis[1] - axis[0]
    np.testing.assert_allclose(values.sum() * d * d, 1.0, atol=GRID_TOL)


# ---------------------------------------------------------------------------
# Overlap functional
# ---------------------------------------------------------------------------


def test_overlap_identities():
    vac = pure_grid(fock.fock_state(0, 20))
    one = pure_grid(fock.fock_state(1, 20))
    np.testing.assert_allclose(oracle.overlap(vac, vac), 1.0, atol=GRID_TOL)
    np.testing.assert_allclose(oracle.overlap(vac, one), 0.0, atol=GRID_TOL)


def test_overlap_requires_identical_grids():
    vac = pure_grid(fock.fock_state(0, 12))
    other = pure_grid(fock.fock_state(0, 12), *small_axes(extent=5.0, points=101))
    with pytest.raises(ValueError):
        oracle.overlap(vac, other)


def test_overlap_matches_fock_fidelity_for_conditional_cat():
    # dual route: grid overlap against the Fock-basis fidelity
    target = fock.scs_state(1.1j, 40)
    joint = conditioner.build_joint(fock.fock_state(2, 40), 0.5, -0.37)
    state, _ = conditioner.homodyne_project(joint, 0.0)
    grid_state = pure_grid(state)
    grid_target = pure_grid(target)
    np.testing.assert_allclose(
        oracle.overlap(grid_state, grid_target), conditioner.fidelity(state, target), atol=GRID_TOL
    )


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "state",
    [
        lambda d: fock.fock_state(0, d),
        lambda d: fock.fock_state(1, d),
        lambda d: fock.squeezed_number_state(0, 0.4, d),
    ],
    ids=["vacuum", "one-photon", "squeezed"],
)
def test_marginal_reproduces_homodyne_density(state):
    psi = state(40)
    grid = pure_grid(psi)
    dp = np.diff(grid.p_axis).mean()  # the default axis is uniform
    marginal = grid.values.sum(axis=1) * dp
    density = fock.quadrature_wavefunctions(39, grid.x_axis)
    expected = np.abs(density.T @ psi) ** 2
    np.testing.assert_allclose(marginal, expected, atol=GRID_TOL)


def test_grids_normalized_and_bounded():
    states = [
        fock.fock_state(0, 40),
        fock.fock_state(1, 40),
        fock.squeezed_number_state(0, 0.52, 40),
        fock.scs_state(1.1j, 40),
    ]
    for psi in states:
        grid = pure_grid(psi)
        np.testing.assert_allclose(grid.riemann_sum(), 1.0, atol=GRID_TOL)
        assert grid.values.min() >= wigner.WIGNER_LOWER_BOUND - 1e-9


def test_non_uniform_axis_is_integrated_cell_by_cell():
    # 200 points on [-6, 0) and 41 on [0, 6]: a first-step spacing of 0.03
    # would put the vacuum's Riemann sum near 0.36
    axis = np.concatenate([np.linspace(-6, 0, 200, endpoint=False), np.linspace(0, 6, 41)])
    grid = pure_grid(fock.fock_state(0, 20), axis, axis.copy())
    assert abs(grid.riemann_sum() - 1.0) < 1e-4


@pytest.mark.parametrize(
    "axis, message",
    [([0.5], "at least two points"), ([], "at least two points"),
     ([1.0, 0.0, -1.0], "strictly increasing"), ([0.0, 0.0, 1.0], "strictly increasing")],
    ids=["one-point", "empty", "decreasing", "repeated"],
)
def test_bad_axis_is_rejected(axis, message):
    with pytest.raises(ValueError, match=message):
        pure_grid(fock.fock_state(0, 8), np.linspace(-3, 3, 7), axis)


@pytest.mark.parametrize(
    "rho, message",
    [(np.ones((2, 3)) / 2, r"square array, got shape \(2, 3\)"), (np.array([1.0, 0.0]), r"got shape \(2,\)"),
     (np.zeros((0, 0)), r"non-empty square array, got shape \(0, 0\)"),
     ([[0.5, 0.1], [0.3, 0.5]], "not Hermitian within 1e-12"),
     ([[0.5, 0.8], [0.8, 0.5]], "negative eigenvalues"),  # eigenvalues 1.3, -0.3
     # NaN passed the Hermitian and eigenvalue checks and ended in eigvalsh's "did not converge"
     (np.full((3, 3), np.nan), r"a non-finite entry, nan at \[0, 0\] \(9 in all\)"),
     ([[0.5, 0.0], [0.0, np.inf]], r"a non-finite entry, inf at \[1, 1\] \(1 in all\)"),
     (np.diag([0.5, complex(0.5, np.nan)]), r"a non-finite entry, \(0\.5\+nanj\) at \[1, 1\]")],
    ids=["non-square", "1-D", "empty", "non-Hermitian", "negative-eigenvalue", "nan", "inf", "complex-nan"],
)
def test_density_validation_rejects_bad_matrices(rho, message):
    # the grid is the one public function that takes a density matrix, so it checks it
    with pytest.raises(ValueError, match=message):
        wigner.wigner_from_density(rho)


@pytest.mark.parametrize("extent", [6.0, 4.0, 1e-3, 1e300, 1.7976931348623157e308])
@pytest.mark.parametrize("points", [9, 10, 241, 1001])
def test_mirror_axis_is_antisymmetric_and_near_linspace(extent, points):
    axis = wigner.mirror_axis(extent, points)
    assert np.array_equal(axis, -axis[::-1]) and axis[0] == -extent and np.all(np.diff(axis) > 0)
    if extent < 1e300:  # linspace itself overflows near the largest float
        linear = np.linspace(-extent, extent, points)
        assert np.array_equal(axis, 0.5 * (linear - linear[::-1]))
        assert np.abs(axis - linear).max() <= 2.0 * np.spacing(extent)


def test_default_grid_of_a_real_even_state_is_symmetric_bit_for_bit():
    # a real rho with only even diagonals: W(x, p) = W(x, -p) = W(-x, p) exactly
    values = pure_grid(fock.squeezed_number_state(1, 0.4, 30)).values
    assert np.array_equal(values, values[::-1]) and np.array_equal(values, values[:, ::-1])
    # a complex state keeps the complex sum, which is still exact under conjugation
    cat = pure_grid(fock.scs_state(1.1j, 30)).values
    assert np.array_equal(cat, cat[:, ::-1])



def test_conditional_coherent_output_is_minimum_uncertainty():
    # pure-state config at x = 0: det of the quadrature covariance is 1/16
    joint = conditioner.build_joint(fock.coherent_state(0.3 + 0.2j, 40), 0.75, 0.52)
    state, _ = conditioner.homodyne_project(joint, 0.0)
    grid = pure_grid(state)
    _, cov = oracle.grid_moments(grid)
    np.testing.assert_allclose(np.linalg.det(cov), 1.0 / 16.0, atol=GRID_TOL)
