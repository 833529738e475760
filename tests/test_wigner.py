import numpy as np
import pytest

import oracle
from cvpost import conditioner, fock, wigner

GRID_TOL = 1e-4


def small_axes(extent=3.0, points=121):
    axis = np.linspace(-extent, extent, points)
    return axis, axis.copy()


# ---------------------------------------------------------------------------
# Grid evaluation against closed forms
# ---------------------------------------------------------------------------


def test_vacuum_peak():
    grid = wigner.state_grid(fock.fock_state(0, 20))
    i = np.argmin(np.abs(grid.x_axis))
    j = np.argmin(np.abs(grid.p_axis))
    np.testing.assert_allclose(grid.values[i, j], 2 / np.pi, rtol=1e-10)
    assert grid.values.max() <= 2 / np.pi + 1e-9


def test_single_photon_origin():
    grid = wigner.state_grid(fock.fock_state(1, 20))
    i = np.argmin(np.abs(grid.x_axis))
    j = np.argmin(np.abs(grid.p_axis))
    np.testing.assert_allclose(grid.values[i, j], -2 / np.pi, rtol=1e-10)


def test_squeezed_photon_matches_closed_form():
    # W of S(s')|1> in closed form: squeezed coordinates in the |1> formula
    sp = 0.67
    psi = fock.squeezed_number_state(1, sp, 60)
    x_axis, p_axis = small_axes()
    grid = wigner.wigner_from_density(psi.density(), x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    q = np.exp(-2 * sp) * xg**2 + np.exp(2 * sp) * pg**2
    expected = (2 / np.pi) * np.exp(-2 * q) * (4 * q - 1)
    np.testing.assert_allclose(grid.values, expected, atol=1e-6)


@pytest.mark.parametrize(
    "state, closed",
    [
        (lambda d: fock.fock_state(0, d), lambda a: oracle.squeezed_vacuum_wigner(a, 0.0)),
        (lambda d: fock.fock_state(1, d), oracle.single_photon_wigner),
        (lambda d: fock.squeezed_vacuum(0.52, d), lambda a: oracle.squeezed_vacuum_wigner(a, 0.52)),
        (lambda d: fock.coherent_state(1.1j, d), lambda a: (2 / np.pi) * np.exp(-2 * np.abs(a - 1.1j) ** 2)),
        (lambda d: fock.scs_state(1.1j, "even", d), lambda a: wigner.scs_wigner(a, 1.1j)),
    ],
    ids=["vacuum", "one-photon", "squeezed", "coherent", "cat"],
)
def test_ground_truth_pointwise(state, closed):
    # every preparer's grid Wigner matches the closed form on |a+|,|a-| <= 3
    dim = 40
    x_axis, p_axis = small_axes()
    grid = wigner.wigner_from_density(state(dim).density(), x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    expected = closed(xg + 1j * pg)
    np.testing.assert_allclose(grid.values, expected, atol=1e-6)


def test_scs_pointwise_tight():
    # the cat Wigner matches its closed form to 1e-8 at adequate dimension
    dim = 48
    pts = np.array([0.0, 0.3 + 0.4j, -1.0 + 1.1j, 0.5j, 1.5 - 0.5j])
    got = wigner.wigner_point(fock.scs_state(1.1j, "even", dim).density(), pts)
    np.testing.assert_allclose(got, wigner.scs_wigner(pts, 1.1j), atol=1e-8)


# ---------------------------------------------------------------------------
# Grid evaluation against the point-by-point oracle
# ---------------------------------------------------------------------------


def random_mixed_density(dim, rank=4, seed=0):
    rng = np.random.default_rng(seed + dim)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = (vecs * rng.random(rank)) @ vecs.conj().T
    return fock.FockDensity(rho / np.trace(rho).real, dim)


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
    expected = oracle.wigner_values(rho.matrix, (xg + 1j * pg).ravel()).reshape(xg.shape)
    np.testing.assert_allclose(grid.values, expected, rtol=0, atol=1e-13)


def test_empty_diagonals_match_oracle():
    # an even cat has no odd Fock components, so every odd diagonal is zero
    rho = fock.scs_state(1.1j, "even", 40).density()
    x_axis, p_axis = oracle_axes("non-uniform")
    grid = wigner.wigner_from_density(rho, x_axis, p_axis)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    expected = oracle.wigner_values(rho.matrix, (xg + 1j * pg).ravel()).reshape(xg.shape)
    np.testing.assert_allclose(grid.values, expected, rtol=0, atol=1e-13)


def test_wigner_point_matches_oracle():
    rho = random_mixed_density(40)
    pts = np.array([0.0, 0.3 - 0.4j, -1.0 + 1.1j, 0.5j, 2.5 - 0.5j, -0.3 + 0.4j])
    np.testing.assert_allclose(
        wigner.wigner_point(rho, pts), oracle.wigner_values(rho.matrix, pts), rtol=0, atol=1e-13
    )
    got = wigner.wigner_point(rho, -1.0 + 1.1j)
    assert isinstance(got, float)
    assert abs(got - oracle.wigner_values(rho.matrix, np.array([-1.0 + 1.1j]))[0]) <= 1e-13


@pytest.mark.parametrize("scale", [1e-20, 1e3])
def test_wigner_scales_with_the_state(scale):
    # conditioned states come unnormalized, with traces down to P1(x) << 1
    rho = random_mixed_density(40)
    x_axis, p_axis = oracle_axes("non-uniform")
    base = wigner.wigner_from_density(rho, x_axis, p_axis).values
    scaled = wigner.wigner_from_density(
        fock.FockDensity(scale * rho.matrix, 40), x_axis, p_axis
    ).values
    np.testing.assert_allclose(scaled / scale, base, rtol=1e-12, atol=1e-12 * np.abs(base).max())


def test_tiny_trace_photon_is_not_zeroed():
    one = fock.fock_state(1, 40).density().matrix
    got = wigner.wigner_point(fock.FockDensity(1e-20 * one, 40), 0.0)
    np.testing.assert_allclose(got, -1e-20 * 2 / np.pi, rtol=1e-12)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_closed_form_values():
    np.testing.assert_allclose(oracle.squeezed_vacuum_wigner(0.0, 0.0), 2 / np.pi, rtol=1e-12)
    # zero ring of the single photon at |alpha| = 1/2
    np.testing.assert_allclose(oracle.single_photon_wigner(0.5), 0.0, atol=1e-15)
    np.testing.assert_allclose(oracle.single_photon_wigner(0.3 + 0.4j), 0.0, atol=1e-15)
    np.testing.assert_allclose(wigner.scs_wigner(0.0, 1.1j), 2 / np.pi, rtol=1e-12)


@pytest.mark.parametrize(
    "func",
    [
        lambda a: oracle.squeezed_vacuum_wigner(a, 0.52),
        oracle.single_photon_wigner,
        lambda a: wigner.scs_wigner(a, 1.1j),
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
    vac = wigner.state_grid(fock.fock_state(0, 20))
    one = wigner.state_grid(fock.fock_state(1, 20))
    np.testing.assert_allclose(oracle.overlap(vac, vac), 1.0, atol=GRID_TOL)
    np.testing.assert_allclose(oracle.overlap(vac, one), 0.0, atol=GRID_TOL)


def test_overlap_requires_identical_grids():
    vac = wigner.state_grid(fock.fock_state(0, 12))
    other = wigner.wigner_from_density(
        fock.fock_state(0, 12).density(), *small_axes(extent=5.0, points=101)
    )
    with pytest.raises(ValueError):
        oracle.overlap(vac, other)


def test_overlap_matches_fock_fidelity_for_conditional_cat():
    # dual route: grid overlap against the Fock-basis fidelity
    target = fock.scs_state(1.1j, "even", 40)
    joint = conditioner.build_joint(fock.fock_state(2, 40), 0.5, -0.37)
    result = conditioner.postselect_map(joint, target, [0.0])[0]
    grid_state = wigner.wigner_from_density(result.state)
    grid_target = wigner.state_grid(target)
    np.testing.assert_allclose(
        oracle.overlap(grid_state, grid_target), result.fidelity, atol=GRID_TOL
    )


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "state",
    [
        lambda d: fock.fock_state(0, d),
        lambda d: fock.fock_state(1, d),
        lambda d: fock.squeezed_vacuum(0.4, d),
    ],
    ids=["vacuum", "one-photon", "squeezed"],
)
def test_marginal_reproduces_homodyne_density(state):
    psi = state(40)
    grid = wigner.state_grid(psi)
    dx, dp = grid.spacing
    marginal = grid.values.sum(axis=1) * dp
    density = fock.quadrature_wavefunctions(39, grid.x_axis)
    expected = np.abs(density.T @ psi.amplitudes) ** 2
    np.testing.assert_allclose(marginal, expected, atol=GRID_TOL)


def test_grids_normalized_and_bounded():
    states = [
        fock.fock_state(0, 40),
        fock.fock_state(1, 40),
        fock.squeezed_vacuum(0.52, 40),
        fock.scs_state(1.1j, "even", 40),
    ]
    for psi in states:
        grid = wigner.state_grid(psi)
        np.testing.assert_allclose(grid.riemann_sum(), 1.0, atol=GRID_TOL)
        assert grid.values.min() >= wigner.WIGNER_LOWER_BOUND - 1e-9
        assert not grid.coarse


def test_coarse_grid_is_flagged():
    axis = np.linspace(-6, 6, 25)
    grid = wigner.wigner_from_density(
        fock.scs_state(1.1j, "even", 40).density(), axis, axis.copy()
    )
    assert grid.coarse


def test_non_uniform_axis_is_integrated_cell_by_cell():
    # 200 points on [-6, 0) and 41 on [0, 6]: a first-step spacing of 0.03
    # would put the vacuum's Riemann sum near 0.36
    axis = np.concatenate([np.linspace(-6, 0, 200, endpoint=False), np.linspace(0, 6, 41)])
    grid = wigner.wigner_from_density(fock.fock_state(0, 20).density(), axis, axis.copy())
    assert grid.spacing == (None, None)
    assert abs(grid.riemann_sum() - 1.0) < wigner.NORM_DEFECT_TOLERANCE
    assert not grid.coarse
    uniform = wigner.state_grid(fock.fock_state(0, 20))
    assert uniform.spacing == pytest.approx((0.05, 0.05), rel=1e-12)


@pytest.mark.parametrize(
    "axis, message",
    [([0.5], "at least two points"), ([], "at least two points"),
     ([1.0, 0.0, -1.0], "strictly increasing"), ([0.0, 0.0, 1.0], "strictly increasing")],
    ids=["one-point", "empty", "decreasing", "repeated"],
)
def test_bad_axis_is_rejected(axis, message):
    rho = fock.fock_state(0, 8).density()
    with pytest.raises(ValueError, match=message):
        wigner.wigner_from_density(rho, np.linspace(-3, 3, 7), axis)


def test_conditional_coherent_output_is_minimum_uncertainty():
    # pure-state config at x = 0: det of the quadrature covariance is 1/16
    joint = conditioner.build_joint(fock.coherent_state(0.3 + 0.2j, 40), 0.75, 0.52)
    state, _ = conditioner.homodyne_project(joint, 0.0)
    grid = wigner.wigner_from_density(state.normalized())
    _, cov = oracle.grid_moments(grid)
    np.testing.assert_allclose(np.linalg.det(cov), 1.0 / 16.0, atol=GRID_TOL)
