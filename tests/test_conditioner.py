import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracle
from cvpost import conditioner, fock
from cvpost.conditioner import (
    build_joint,
    density_norm,
    fidelity,
    homodyne_project,
    postselect_map,
    run_window,
    s_prime,
)


# ---------------------------------------------------------------------------
# s' map
# ---------------------------------------------------------------------------


def test_s_prime_vacuum_ancilla_is_identity():
    for r in (0.0, 0.25, 0.5, 0.75, 0.98):
        assert s_prime(r, 0.0) == 0.0


def test_s_prime_reference_value():
    np.testing.assert_allclose(s_prime(0.98, 0.7), 0.670, atol=1e-3)


def test_s_prime_limits():
    # R -> 1 gives s' -> s; s -> infinity gives s' -> -ln(T)/2
    np.testing.assert_allclose(s_prime(1.0, 0.55), 0.55, atol=1e-12)
    np.testing.assert_allclose(s_prime(0.75, 10.0), np.log(2.0), atol=1e-3)


def test_s_prime_monotone_in_s():
    values = [s_prime(0.8, s) for s in np.linspace(-1, 2, 13)]
    assert np.all(np.diff(values) > 0)


def test_s_prime_validation():
    with pytest.raises(ValueError):
        s_prime(1.2, 0.3)


# ---------------------------------------------------------------------------
# Homodyne projection
# ---------------------------------------------------------------------------


def test_two_mode_vacuum_projection():
    joint = fock.interfere(fock.fock_state(0, 12), fock.fock_state(0, 12), 0.5)
    state, density = homodyne_project(joint, 0.0)
    # P1(0) is the N(0, 1/4) density at the origin
    np.testing.assert_allclose(density, np.sqrt(2 / np.pi), atol=1e-9)
    np.testing.assert_allclose(
        state.normalized().matrix, fock.fock_state(0, 12).density().matrix, atol=1e-9
    )


def test_zero_reflectivity_leaves_input_untouched():
    joint = fock.interfere(fock.fock_state(1, 12), fock.fock_state(0, 12), 0.0)
    for x in (-0.7, 0.0, 1.3):
        state, _ = homodyne_project(joint, x)
        np.testing.assert_allclose(
            state.normalized().matrix, fock.fock_state(1, 12).density().matrix, atol=1e-10
        )


def test_zero_outcome_yields_squeezed_photon(fig2_joint, fig2_target):
    state, _ = homodyne_project(fig2_joint, 0.0)
    assert fidelity(state.normalized(), fig2_target) >= 1 - 1e-6


def test_homodyne_rejects_non_finite_outcome(fig2_joint):
    with pytest.raises(ValueError):
        homodyne_project(fig2_joint, np.nan)


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def test_fidelity_pure_self():
    psi = fock.coherent_state(0.4 + 0.3j, 30)
    np.testing.assert_allclose(fidelity(psi.density(), psi), 1.0, atol=1e-12)


def test_fidelity_opposite_parity_is_zero():
    vac = fock.fock_state(0, 40)
    target = fock.squeezed_number_state(1, 0.5, 40)
    np.testing.assert_allclose(fidelity(vac.density(), target), 0.0, atol=1e-12)


def test_fidelity_coherent_vs_vacuum():
    gamma = 0.9 - 0.2j
    rho = fock.coherent_state(gamma, 40).density()
    np.testing.assert_allclose(
        fidelity(rho, fock.fock_state(0, 40)), np.exp(-abs(gamma) ** 2), rtol=1e-8
    )


def test_fidelity_rejects_unnormalized():
    psi = fock.fock_state(0, 10)
    rho = fock.FockDensity(0.5 * psi.density().matrix, 10, validate=False)
    with pytest.raises(ValueError):
        fidelity(rho, psi)


# ---------------------------------------------------------------------------
# Window averaging
# ---------------------------------------------------------------------------


def single_photon(r, s, dim):
    """Joint of |1> and S(s)|0> at reflectivity r, and the target S(s')|1>."""
    return build_joint(fock.fock_state(1, dim), r, s), fock.squeezed_number_state(1, s_prime(r, s), dim)


def two_photon_cat():
    """Joint of the two-photon reference configuration and its even-cat target."""
    return build_joint(fock.fock_state(2, 40), 0.5, -0.37), fock.scs_state(1.1j, "even", 40)


def zero_outcome(joint, target):
    """postselect_map at x = 0."""
    return postselect_map(joint, target, [0.0])[0]


def test_window_single_photon_reference():
    win = run_window(*single_photon(0.98, 0.7, 60), 0.025)
    assert abs(win.avg_fidelity - 0.99) < 0.005
    assert abs(win.success_prob - 0.003) / 0.003 < 0.30
    np.testing.assert_allclose(win.avg_state.trace, 1.0, atol=1e-8)


def test_window_two_photon_reference():
    win = run_window(*two_photon_cat(), 0.084)
    assert abs(win.avg_fidelity - 0.99) < 0.005
    assert abs(win.success_prob - 0.052) / 0.052 < 0.20


def test_window_wide_threshold_captures_everything():
    win = run_window(*single_photon(0.5, 0.3, 40), 6.0)
    np.testing.assert_allclose(win.success_prob, 1.0, atol=1e-6)


def test_window_validation():
    joint, target = single_photon(0.5, 0.3, 20)
    for x0 in (0.0, -0.1):
        with pytest.raises(ValueError):
            run_window(joint, target, x0)


def _wavefunction_pair(m, n):
    """x -> <m|x><x|n> by the normalized Hermite recurrence in Python floats,
    independent of fock.quadrature_wavefunctions."""

    def product(x):
        xi = math.sqrt(2.0) * x
        prev, cur = 0.0, math.exp(-0.5 * xi * xi) * (2.0 / math.pi) ** 0.25
        vals = [cur]
        for k in range(max(m, n)):
            prev, cur = cur, xi * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
            vals.append(cur)
        return vals[m] * vals[n]

    return product


# quad warns of roundoff on some wide oscillatory entries; the test bounds its
# error estimate instead
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("dim", [40, 120])
@pytest.mark.parametrize("x0", [1e-6, 1e-4, 0.01, 0.09, 0.11, 1.0, 6.0])
def test_window_matrix_entries_match_quad(dim, x0):
    # x0 on both sides of NARROW_WINDOW, where the diagonal switches from
    # Gauss-Legendre to the erf recurrence.  A diagonal entry is held to its
    # own size: M_11 is all of P_s for a reflected |1>, and at x0 = 1e-6 it
    # is 1e-12 of M_00.  An off-diagonal entry is held to the largest
    # diagonal one, the scale of the window's success probability.
    m = conditioner.window_matrix(dim, x0)
    top = dim - 1
    entries = [(0, 0), (1, 1), (2, 0), (5, 3), (9, 30), (top // 2, top // 2),
               (top - 1, top - 1), (top, top), (top, top - 2), (top - 1, top - 13)]
    for i, j in entries:
        scale = m[i, i] if i == j else np.diag(m).max()
        want, err = quad(_wavefunction_pair(i, j), -x0, x0, epsabs=1e-15 * scale, epsrel=1e-13, limit=400)
        assert err <= 1e-13 * scale, (i, j, err)
        assert abs(m[i, j] - want) <= 1e-13 * scale, (i, j, m[i, j], want)


@pytest.mark.parametrize("x0", [1e-6, 0.05, 0.1, 2.0])
def test_window_matrix_parity_and_symmetry(x0):
    m = conditioner.window_matrix(60, x0)
    n = np.arange(60)
    assert np.all(m[(n[:, None] + n) % 2 == 1] == 0.0)
    assert np.array_equal(m, m.T)


def test_window_average_approaches_zero_outcome_fidelity():
    # F_ave converges quadratically in x0 to the zero-outcome fidelity
    joint, target = single_photon(0.9, 0.5, 40)
    win = run_window(joint, target, 1e-4)
    zero = zero_outcome(joint, target)
    np.testing.assert_allclose(win.avg_fidelity, zero.fidelity, atol=1e-6)


def test_window_monotone_in_threshold():
    faves, probs = [], []
    joint, target = single_photon(0.98, 0.7, 48)
    for x0 in (0.01, 0.025, 0.05, 0.1, 0.2):
        win = run_window(joint, target, x0)
        faves.append(win.avg_fidelity)
        probs.append(win.success_prob)
    assert np.all(np.diff(faves) < 0)
    assert np.all(np.diff(probs) > 0)


# ---------------------------------------------------------------------------
# Dense sweeps
# ---------------------------------------------------------------------------


def test_map_symmetric_density():
    xs = np.linspace(-1.5, 1.5, 21)
    results = postselect_map(*single_photon(0.75, 0.4, 40), xs)
    p1 = np.array([r.density for r in results])
    np.testing.assert_allclose(p1, p1[::-1], atol=1e-9)


def test_map_single_node_matches_direct_projection(fig2_joint, fig2_target):
    result = postselect_map(fig2_joint, fig2_target, [0.3])[0]
    raw, density = homodyne_project(fig2_joint, 0.3)
    np.testing.assert_allclose(result.density, density, rtol=1e-12)
    np.testing.assert_allclose(result.state.matrix, raw.matrix / density, atol=1e-12)


def test_map_zero_entry_reproduces_exact_target(fig2_joint, fig2_target):
    result = zero_outcome(fig2_joint, fig2_target)
    assert result.fidelity >= 1 - 1e-6
    np.testing.assert_allclose(result.state.trace, 1.0, atol=1e-9)


def test_map_rejects_empty_grid():
    with pytest.raises(ValueError):
        postselect_map(*single_photon(0.5, 0.3, 20), [])


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "psi_in, reflectivity, s",
    [
        (fock.fock_state(1, 60), 0.98, 0.7),
        (fock.fock_state(2, 40), 0.5, -0.37),
        (fock.fock_state(0, 40), 0.5, 0.0),
        (fock.coherent_state(0.5 + 0.3j, 40), 0.75, 0.52),
    ],
    ids=["squeezed-photon", "cat", "vacuum", "coherent"],
)
def test_outcome_density_normalizes(psi_in, reflectivity, s):
    joint = build_joint(psi_in, reflectivity, s)
    np.testing.assert_allclose(density_norm(joint), 1.0, atol=1e-6)


@pytest.mark.parametrize("n_in", [1, 2])
def test_parity_conservation_at_zero_outcome(n_in):
    joint = build_joint(fock.fock_state(n_in, 40), 0.6, 0.5)
    state = zero_outcome(joint, fock.squeezed_number_state(n_in, s_prime(0.6, 0.5), 40)).state
    wrong = np.arange(40) % 2 != n_in % 2
    assert np.abs(np.diag(state.matrix)[wrong]).max() < 1e-10
    assert np.abs(state.matrix[np.ix_(wrong, ~wrong)]).max() < 1e-10


def test_exactness_grid():
    # fidelity of the zero-outcome conditional to S(s')|1> across (R, s)
    dim = 60
    for r in np.linspace(0.5, 0.98, 5):
        for s in np.linspace(0.0, 0.7, 5):
            result = zero_outcome(*single_photon(r, s, dim))
            assert result.fidelity >= 1 - 1e-6, (r, s, result.fidelity)


def test_conditioned_coherent_target_is_exact():
    # coherent input at x = 0 produces exactly the displaced squeezed state
    gamma, r, s = 0.5 + 0.3j, 0.75, 0.52
    target = oracle.conditioned_coherent_target(gamma, r, s, 40)
    state = zero_outcome(build_joint(fock.coherent_state(gamma, 40), r, s), target).state
    assert fidelity(state, target) >= 1 - 1e-8


def test_conditioned_coherent_target_matches_wide_oracle():
    # the buffered expm route on 140 levels, cropped to 40; on 40 levels
    # (+20 buffer) that route is off by 3.3e-7 here
    gamma, r, s, dim = 0.18, 0.9, 0.7, 40
    sp = s_prime(r, s)
    shifted = np.sqrt(1 - r) * np.exp(2 * sp) * gamma
    ref = oracle.apply_displace(oracle.apply_squeeze(fock.fock_state(0, 140), sp), shifted)
    got = oracle.conditioned_coherent_target(gamma, r, s, dim)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes[:dim], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Agreement with the dense two-mode route
# ---------------------------------------------------------------------------

AGREE_TOL = 1e-12


@pytest.mark.parametrize("reflectivity", [0.3, 0.75, 0.98])
@pytest.mark.parametrize(
    "prepare",
    [
        lambda r, s, dim: (fock.fock_state(1, dim), fock.squeezed_number_state(1, s_prime(r, s), dim)),
        lambda r, s, dim: (fock.fock_state(2, dim), fock.scs_state(1.1j, "even", dim)),
        lambda r, s, dim: (fock.coherent_state(0.5 + 0.3j, dim), fock.scs_state(0.6 + 0.5j, "even", dim)),
    ],
    ids=["fock1", "fock2", "coherent"],
)
def test_pure_joint_agrees_with_dense_route(reflectivity, prepare):
    dim, s, x0 = 24, 0.4, 0.1
    psi_in, target_state = prepare(reflectivity, s, dim)
    dense = oracle.beam_splitter(
        psi_in.density(), fock.squeezed_vacuum(s, dim).density(), reflectivity
    )
    joint = build_joint(psi_in, reflectivity, s)
    vec = joint.amplitudes.ravel()
    np.testing.assert_allclose(np.outer(vec, vec.conj()), dense.matrix, rtol=0, atol=AGREE_TOL)

    xs = [-0.4, 0.0, 0.13]
    target = target_state.amplitudes
    for x, cond in zip(xs, postselect_map(joint, target_state, xs)):
        want, want_p1 = oracle.homodyne_project(dense, x)
        got, got_p1 = homodyne_project(joint, x)
        np.testing.assert_allclose(got.matrix, want, rtol=0, atol=AGREE_TOL)
        np.testing.assert_allclose(got_p1, want_p1, rtol=AGREE_TOL)
        np.testing.assert_allclose(cond.density, want_p1, rtol=AGREE_TOL)
        np.testing.assert_allclose(cond.state.matrix, want / want_p1, rtol=0, atol=AGREE_TOL)
        want_fid = np.real(target.conj() @ want @ target) / want_p1
        np.testing.assert_allclose(cond.fidelity, want_fid, rtol=0, atol=AGREE_TOL)

    win = run_window(joint, target_state, x0)
    # 1025 Simpson nodes bring the oracle within 3e-14 of the exact window
    # here; 129 leave it 1e-10 away at R = 0.98
    fave, ps, avg = oracle.window(dense, target, x0, 1025)
    np.testing.assert_allclose(win.avg_fidelity, fave, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.success_prob, ps, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.avg_state.matrix, avg, rtol=0, atol=AGREE_TOL)
    np.testing.assert_allclose(density_norm(joint), oracle.density_norm(dense, n_nodes=769), rtol=AGREE_TOL)
