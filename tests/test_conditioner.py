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
    run_window,
)
from cvpost.gaussian import s_prime


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
    vac = fock.fock_state(0, 12)
    state, density = homodyne_project(fock.interfere(vac, vac, 0.5), 0.0)
    # P1(0) is the N(0, 1/4) density at the origin
    np.testing.assert_allclose(density, np.sqrt(2 / np.pi), atol=1e-9)
    np.testing.assert_allclose(np.outer(state, state.conj()), np.outer(vac, vac), atol=1e-9)


def test_zero_reflectivity_leaves_input_untouched():
    one = fock.fock_state(1, 12)
    joint = fock.interfere(one, fock.fock_state(0, 12), 0.0)
    for x in (-0.7, 0.0, 1.3):
        state, _ = homodyne_project(joint, x)
        np.testing.assert_allclose(np.outer(state, state.conj()), np.outer(one, one), atol=1e-10)


def test_zero_outcome_yields_squeezed_photon(fig2_joint, fig2_target):
    state, _ = homodyne_project(fig2_joint, 0.0)
    assert fidelity(state, fig2_target) >= 1 - 1e-6


def test_homodyne_rejects_non_finite_outcome(fig2_joint):
    with pytest.raises(ValueError):
        homodyne_project(fig2_joint, np.nan)


def test_homodyne_rejects_vanished_outcome_density(fig2_joint):
    # every wavefunction underflows to 0 at x = 40, so no state is defined there
    with pytest.raises(ValueError, match="vanished"):
        homodyne_project(fig2_joint, 40.0)


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def test_fidelity_pure_self():
    psi = fock.coherent_state(0.4 + 0.3j, 30)
    np.testing.assert_allclose(fidelity(psi, psi), 1.0, atol=1e-12)


def test_fidelity_opposite_parity_is_zero():
    vac = fock.fock_state(0, 40)
    target = fock.squeezed_number_state(1, 0.5, 40)
    np.testing.assert_allclose(fidelity(vac, target), 0.0, atol=1e-12)


def test_fidelity_coherent_vs_vacuum():
    gamma = 0.9 - 0.2j
    psi = fock.coherent_state(gamma, 40)
    np.testing.assert_allclose(
        fidelity(psi, fock.fock_state(0, 40)), np.exp(-abs(gamma) ** 2), rtol=1e-8
    )


def test_fidelity_rejects_unnormalized():
    psi = fock.fock_state(0, 10)
    half = np.sqrt(0.5) * psi
    with pytest.raises(ValueError):
        fidelity(half, psi)


def test_fidelity_holds_state_and_target_to_one_normalization_rule():
    # squared norm 1.0000016: the target's norm alone, 1.0000008, passed 1e-6
    psi, off = np.array([1.0, 0.0]), np.array([1.0000008, 0.0])
    with pytest.raises(ValueError, match=r"^state must be normalized \(squared norm 1 within 1e-6\), got 1.0000016"):
        fidelity(off, psi)
    with pytest.raises(ValueError, match=r"^target must be normalized \(squared norm 1 within 1e-6\), got 1.0000016"):
        fidelity(psi, off)
    assert fidelity(np.array([1.0000004, 0.0]), np.array([0.0, 1.0000004])) == 0.0
    with pytest.raises(ValueError, match="state must be normalized .* got nan"):
        fidelity(np.array([np.nan, 0.0]), psi)  # returned nan


def test_state_taking_functions_reject_a_2d_or_mismatched_state():
    # run_window used to end in numpy's unnamed matmul error for a target of another dim
    joint, target = build_joint(fock.fock_state(1, 20), 0.5, 0.3), fock.fock_state(1, 20)
    with pytest.raises(ValueError, match=r"target must be a 1-D array of 20 amplitudes, got shape \(30,\)"):
        run_window(joint, fock.fock_state(1, 30), 0.1)
    with pytest.raises(ValueError, match=r"target must be a 1-D array of 20 amplitudes, got shape \(20, 20\)"):
        run_window(joint, np.outer(target, target), 0.1)
    with pytest.raises(ValueError, match=r"target must be a 1-D array of 20 amplitudes, got shape \(30,\)"):
        fidelity(target, fock.fock_state(1, 30))
    with pytest.raises(ValueError, match=r"state must be a 1-D array, got shape \(20, 20\)"):
        fidelity(np.outer(target, target), target)
    with pytest.raises(ValueError, match=r"input must be a 1-D array, got shape \(20, 20\)"):
        build_joint(np.outer(target, target), 0.5, 0.3)


# ---------------------------------------------------------------------------
# Window averaging
# ---------------------------------------------------------------------------


def single_photon(r, s, dim):
    """Joint of |1> and S(s)|0> at reflectivity r, and the target S(s')|1>."""
    return build_joint(fock.fock_state(1, dim), r, s), fock.squeezed_number_state(1, s_prime(r, s), dim)


def two_photon_cat():
    """Joint of the two-photon reference configuration and its even-cat target."""
    return build_joint(fock.fock_state(2, 40), 0.5, -0.37), fock.scs_state(1.1j, 40)


def zero_outcome(joint, target):
    """The conditional state at x = 0 and its fidelity to the target."""
    state, _ = homodyne_project(joint, 0.0)
    return state, fidelity(state, target)


@pytest.mark.parametrize("n", [1, 2])
def test_photon_runs_stay_real(n):
    # |n> and the squeezed vacuum are real, so are the joint, the projected
    # and the averaged states; a complex coherent input keeps a complex joint
    joint = build_joint(fock.fock_state(n, 30), 0.6, 0.4)
    assert joint.dtype == np.float64 and joint.shape == (30, 30) and not joint.flags.writeable
    state = homodyne_project(joint, 0.1)[0]
    assert type(state) is np.ndarray and state.dtype == np.float64 and state.shape == (30,)
    avg_state = run_window(joint, fock.squeezed_number_state(n, 0.3, 30), 0.1).avg_state
    assert type(avg_state) is np.ndarray and avg_state.dtype == np.float64 and avg_state.shape == (30, 30)
    assert not (state.flags.writeable or avg_state.flags.writeable)
    assert build_joint(fock.coherent_state(0.3 + 0.2j, 30), 0.6, 0.4).dtype == np.complex128


@pytest.mark.parametrize("x0", [1e160, 1e300, 1.7e308])
def test_huge_window_or_outcome_does_not_overflow(x0):
    # the wavefunctions are 0 long before |x| = 1e150, where they are capped
    joint, target = single_photon(0.98, 0.7, 40)
    capped, win = run_window(joint, target, 1e150), run_window(joint, target, x0)
    assert (win.success_prob, win.avg_fidelity) == (capped.success_prob, capped.avg_fidelity)
    assert density_norm(joint, x0) == density_norm(joint, 1e150)
    with pytest.raises(ValueError, match="outcome density vanished"):
        homodyne_project(joint, x0)


def test_window_single_photon_reference():
    win = run_window(*single_photon(0.98, 0.7, 60), 0.025)
    assert abs(win.avg_fidelity - 0.99) < 0.005
    assert abs(win.success_prob - 0.003) / 0.003 < 0.30
    np.testing.assert_allclose(np.trace(win.avg_state).real, 1.0, atol=1e-8)


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
    # x0 on both sides of NARROW_WINDOW, where M switches from Gauss-Legendre
    # to the closed form.  A diagonal entry is held to its own size: M_11 is
    # all of P_s for a reflected |1>, and at x0 = 1e-6 it is 1e-12 of M_00.  An off-diagonal entry is held to the largest
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


@pytest.mark.parametrize("dim", [40, 120])
@pytest.mark.parametrize("x0", [1e-6, 1e-4, 0.01])
def test_narrow_window_off_diagonal_entries_keep_their_own_digits(dim, x0):
    # Between two odd levels the closed-form bracket cancels as x0 -> 0
    # (M[1, 3] is 6e-6 relative off at x0 = 1e-6), which a reflected state
    # with no even-parity part would read as all of its window.  Each entry
    # here is held to its own size.
    m = conditioner.window_matrix(dim, x0)
    top = dim - 1
    for i, j in [(1, 3), (5, 9), (top - 2, top), (0, 2), (4, 10), (top - 1, top - 3)]:
        want, err = quad(_wavefunction_pair(i, j), -x0, x0, epsabs=0.0, epsrel=1e-13, limit=400)
        assert err <= 1e-13 * abs(want), (i, j, err)
        assert abs(m[i, j] - want) <= 1e-12 * abs(want), (i, j, m[i, j], want)


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
    _, zero = zero_outcome(joint, target)
    np.testing.assert_allclose(win.avg_fidelity, zero, atol=1e-6)


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
    joint, _ = single_photon(0.75, 0.4, 40)
    p1 = np.array([homodyne_project(joint, x)[1] for x in np.linspace(-1.5, 1.5, 21)])
    np.testing.assert_allclose(p1, p1[::-1], atol=1e-9)


def test_map_zero_entry_reproduces_exact_target(fig2_joint, fig2_target):
    state, fid = zero_outcome(fig2_joint, fig2_target)
    assert fid >= 1 - 1e-6
    np.testing.assert_allclose(np.linalg.norm(state) ** 2, 1.0, atol=1e-9)


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
    state, _ = homodyne_project(joint, 0.0)
    wrong = np.arange(40) % 2 != n_in % 2
    density = np.outer(state, state.conj())
    assert np.abs(np.diag(density)[wrong]).max() < 1e-10
    assert np.abs(density[np.ix_(wrong, ~wrong)]).max() < 1e-10


def test_exactness_grid():
    # fidelity of the zero-outcome conditional to S(s')|1> across (R, s)
    dim = 60
    for r in np.linspace(0.5, 0.98, 5):
        for s in np.linspace(0.0, 0.7, 5):
            _, fid = zero_outcome(*single_photon(r, s, dim))
            assert fid >= 1 - 1e-6, (r, s, fid)


def test_conditioned_coherent_target_is_exact():
    # coherent input at x = 0 produces exactly the displaced squeezed state
    gamma, r, s = 0.5 + 0.3j, 0.75, 0.52
    target = oracle.conditioned_coherent_target(gamma, r, s, 40)
    state, _ = homodyne_project(build_joint(fock.coherent_state(gamma, 40), r, s), 0.0)
    assert fidelity(state, target) >= 1 - 1e-8


def test_conditioned_coherent_target_matches_wide_oracle():
    # the buffered expm route on 140 levels, cropped to 40; on 40 levels
    # (+20 buffer) that route is off by 3.3e-7 here
    gamma, r, s, dim = 0.18, 0.9, 0.7, 40
    sp = s_prime(r, s)
    shifted = np.sqrt(1 - r) * np.exp(2 * sp) * gamma
    ref = oracle.apply_displace(oracle.apply_squeeze(fock.fock_state(0, 140), sp), shifted)
    got = oracle.conditioned_coherent_target(gamma, r, s, dim)
    np.testing.assert_allclose(got, ref[:dim], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Agreement with the position-space reference
# ---------------------------------------------------------------------------

AGREE_TOL = 1e-12


@pytest.mark.parametrize("reflectivity", [0.3, 0.75, 0.98])
@pytest.mark.parametrize(
    "prepare",
    [
        lambda r, s: [(fock.fock_state, 1), (fock.squeezed_number_state, 1, s_prime(r, s))],
        lambda r, s: [(fock.fock_state, 2), (fock.scs_state, 1.1j)],
        lambda r, s: [(fock.coherent_state, 0.5 + 0.3j), (fock.scs_state, 0.6 + 0.5j)],
    ],
    ids=["fock1", "fock2", "coherent"],
)
def test_pure_joint_agrees_with_dense_route(reflectivity, prepare):
    # the route is the reference's dense Gauss-Legendre grid over the exact
    # joint wavefunction, which has no truncation; at dim 60 the package shows
    # none either (3e-14 here), while at dim 24 it is off by up to 2e-6
    dim, s, x0 = 60, 0.4, 0.1
    (prep_in, *arg_in), (prep_target, *arg_target) = prepare(reflectivity, s)
    wf_target = oracle.wavefunction(prep_target, *arg_target)
    ref = oracle.joint_wavefunction(oracle.wavefunction(prep_in, *arg_in),
                                    oracle.wavefunction(fock.squeezed_number_state, 0, s), reflectivity)
    joint, target = build_joint(prep_in(*arg_in, dim), reflectivity, s), prep_target(*arg_target, dim)
    low = np.add.outer(np.arange(dim), np.arange(dim)) < dim - 4  # short of the truncated corner
    np.testing.assert_allclose(joint[low], oracle.number_amplitudes(ref, dim)[low], rtol=0, atol=AGREE_TOL)

    phi, p1, overlap = oracle.outcome_cuts(ref, wf_target, dim, [-0.4, 0.0, 0.13])
    for k, x in enumerate([-0.4, 0.0, 0.13]):
        got, got_p1 = homodyne_project(joint, x)
        np.testing.assert_allclose(got_p1, p1[k], rtol=AGREE_TOL)
        np.testing.assert_allclose(got, phi[:, k] / np.sqrt(p1[k]), rtol=0, atol=AGREE_TOL)
        np.testing.assert_allclose(fidelity(got, target), abs(overlap[k]) ** 2 / p1[k], rtol=0, atol=AGREE_TOL)

    win = run_window(joint, target, x0)
    fave, ps, avg = oracle.window_integrals(ref, wf_target, dim, x0)
    np.testing.assert_allclose(win.avg_fidelity, fave, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.success_prob, ps, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.avg_state, avg, rtol=0, atol=AGREE_TOL)
    np.testing.assert_allclose(density_norm(joint), oracle.window_integrals(ref, wf_target, 1, 6.0)[1], rtol=AGREE_TOL)


@pytest.mark.parametrize("n, reflectivity, s, x0, target, errors", [
    (2, 0.5, -0.37, 0.084, (fock.scs_state, 1.1j), {18: (2e-5, 1.0), 40: (0.0, 1e-11), 60: (0.0, 1e-12)}),
    (1, 0.98, 0.7, 0.025, (fock.squeezed_number_state, 1, s_prime(0.98, 0.7)), {40: (1e-9, 1.0), 60: (0.0, 1e-12)}),
], ids=["two-photon", "single-photon"])
def test_reference_sees_the_truncation_of_the_photon_defaults(n, reflectivity, s, x0, target, errors):
    # the relative P_s error of each CLI default against the reference falls
    # from a size the reference must see (3.9e-5 at two-photon dim 18, 2.2e-9
    # at single-photon dim 40) to below 1e-12, past the reference's own error
    prep_target, *arg_target = target
    wf_target = oracle.wavefunction(prep_target, *arg_target)
    ref = oracle.joint_wavefunction(oracle.wavefunction(fock.fock_state, n),
                                    oracle.wavefunction(fock.squeezed_number_state, 0, s), reflectivity)
    fave, ps, _ = oracle.window_integrals(ref, wf_target, 1, x0)
    fave2, ps2, _ = oracle.window_integrals(ref, wf_target, 1, x0, nodes=(160, 800))
    assert abs(ps2 / ps - 1) < 1e-13 and abs(fave2 - fave) < 1e-13  # doubling every node count
    for dim, (least, below) in errors.items():
        win = run_window(build_joint(fock.fock_state(n, dim), reflectivity, s), prep_target(*arg_target, dim), x0)
        assert least <= abs(win.success_prob / ps - 1) < below, dim
