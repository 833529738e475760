import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from cvpost import conditioner, fock, gaussian
from cvpost.gaussian import (
    GaussianState,
    classical_limit,
    coherent_gaussian,
    condition_coherent,
    gaussian_fidelity,
    ideal_gains,
    ideal_target,
    purity,
    s_prime,
)

#: The symplectic form of one mode.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def wigner_overlap_quadrature(a: GaussianState, b: GaussianState) -> float:
    """Independent oracle: pi * int W_a W_b by 2-D Simpson quadrature.

    Gaussian Wigner functions in Wigner units have covariance cov_snl/4
    and mean mean_snl/2.
    """
    axis = np.linspace(-8, 8, 801)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xg, pg], axis=-1)

    def wig(state):
        cov = state.cov / 4.0
        mean = state.mean / 2.0
        inv = np.linalg.inv(cov)
        d = pts - mean
        quad = np.einsum("...i,ij,...j->...", d, inv, d)
        return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.linalg.det(cov)))

    h = axis[1] - axis[0]
    return float(np.pi * np.sum(wig(a) * wig(b)) * h * h)


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def test_vacuum_passthrough():
    out = condition_coherent(0.0, 0.6, 0.0, 0.0)
    np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.18, 0.5 + 0.3j, -0.7 - 1.2j])
def test_closed_form_matches_the_general_schur_complement(gamma):
    # oracle: the validated 4 x 4 joint from interfere, conditioned by the
    # general Schur-complement update.  A mean can cancel to 0 (at s = 0 the
    # outcome carries no information), so it is compared relative to the
    # size of its terms, 2|gamma| and |x|.
    for r in (0.0, 0.25, 0.5, 0.75, 0.98):
        for s in (-1.0, -0.4, 0.0, 0.52, 1.2, 3.0):
            for x in (-1.3, 0.0, 0.2, 2.5):
                got = condition_coherent(gamma, r, s, x)
                joint = gaussian.interfere(coherent_gaussian(gamma), oracle.squeezed_gaussian(s), r)
                want, _ = oracle.condition_xplus(joint, x)
                np.testing.assert_allclose(got.cov, want.cov, rtol=1e-12, atol=0)
                scale = 2.0 * abs(gamma) + abs(x)
                np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("s", [9.0, 10.0, 11.0, gaussian.MAX_SQUEEZING])
def test_strongly_squeezed_output_stays_pure(s):
    # the Schur complement of the joint cancels terms of order e^{4s}, which
    # put purity 4e-9 above 1 at s = 10; the closed form keeps every term positive
    out = condition_coherent(0.18, 0.75, s, 0.3)
    assert abs(purity(out.cov) - 1.0) <= 1e-15
    target = ideal_target(coherent_gaussian(0.18), 0.75)
    assert gaussian_fidelity(out.mean, out.cov, target.mean, target.cov) <= 1.0


@pytest.mark.parametrize("s", [12.0, 20.0, -12.0, -300.0])
def test_closed_form_rejects_squeezing_past_the_limit(s):
    # the limit squeezed_number_state checks; unchecked, s_prime(0.5, -300)
    # overflowed to -inf and condition_coherent at -360 gave an infinite variance
    message = rf"^s: {re.escape(repr(s))} is outside \[-11.512925464970229, 11.512925464970229\]$"
    with pytest.raises(ValueError, match=message):
        s_prime(0.5, s)
    with pytest.raises(ValueError, match=message):
        condition_coherent(0.1, 0.5, s, 0.0)


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: s_prime(0.5, _NAN), r"^s: expected a finite number, got nan$"),
    (lambda: condition_coherent(0.1, 0.5, _NAN, 0.0), r"^s: expected a finite number, got nan$"),
    (lambda: condition_coherent(0.1, 0.5, 0.3, _NAN), r"must be finite, got \[nan, "),
    (lambda: condition_coherent(complex(_NAN, 0.0), 0.5, 0.3, 0.0), r"must be finite, got \[nan, "),
    (lambda: condition_coherent(complex(0.0, np.inf), 0.5, 0.3, 0.0), r"must be finite, got \[0.0, inf\]"),
    (lambda: ideal_target(coherent_gaussian(0.1), _NAN), r"^reflectivity: expected a finite number, got nan$"),
    (lambda: GaussianState(np.zeros(2), np.diag([_NAN, 1.0])), r"must be finite, got \[0.0, 0.0\] and \[\[nan, "),
], ids=["s_prime-s", "condition_coherent-s", "condition_coherent-x", "condition_coherent-gamma",
        "condition_coherent-gamma-inf", "ideal_target-reflectivity", "state-cov"])
def test_closed_form_rejects_nan(call, message):
    # each returned a NaN state silently: NaN fails every comparison, so no check fired
    with pytest.raises(ValueError, match=message):
        call()


_KET = fock.fock_state(1, 8)


# Each scalar argument the engines check, as (call with the value, the argument's name).
_ARGUMENTS = {
    "fock.interfere-reflectivity": (lambda v: fock.interfere(_KET, _KET, v), "reflectivity"),
    "gaussian.interfere-reflectivity": (lambda v: gaussian.interfere(coherent_gaussian(0.1), coherent_gaussian(0), v),
                                        "reflectivity"),
    "s_prime-reflectivity": (lambda v: s_prime(v, 0.5), "reflectivity"),
    "s_prime-s": (lambda v: s_prime(0.5, v), "s"),
    "condition_coherent-s": (lambda v: condition_coherent(0.1, 0.5, v, 0.0), "s"),
    "ideal_target-reflectivity": (lambda v: ideal_target(coherent_gaussian(0.1), v), "reflectivity"),
    "classical_limit-reflectivity": (lambda v: classical_limit(v), "reflectivity"),
    "squeezed_number_state-n": (lambda v: fock.squeezed_number_state(v, 0.3, 8), "n"),
    "squeezed_number_state-s": (lambda v: fock.squeezed_number_state(1, v, 8), "s"),
    "window_matrix-x0": (lambda v: conditioner.window_matrix(8, v), "x0"),
    "homodyne_project-x": (lambda v: conditioner.homodyne_project(fock.interfere(_KET, _KET, 0.5), v), "x"),
}


@pytest.mark.parametrize("value", ["0.5", True], ids=["str", "bool"])
@pytest.mark.parametrize("call, name", list(_ARGUMENTS.values()), ids=list(_ARGUMENTS))
def test_argument_of_the_wrong_kind_is_named(call, name, value):
    # a string ended in an unnamed TypeError, and True ran as 1
    kind = "an integer" if name == "n" else "a finite number"
    with pytest.raises(ValueError, match=rf"^{name}: expected {kind}, got {re.escape(repr(value))}$"):
        call(value)


def test_strong_squeezing_reaches_ideal_gains():
    # s -> infinity: gains (2, 1/2) at R = 0.75 and variances e^{+/-2s'}
    gamma = 0.18
    out = condition_coherent(gamma, 0.75, 10.0, 0.0)
    inp = coherent_gaussian(gamma)
    sp = -0.5 * np.log(0.25)
    np.testing.assert_allclose(out.mean[0] / inp.mean[0], 2.0, atol=1e-3)
    np.testing.assert_allclose(out.cov[0, 0], np.exp(2 * sp), rtol=1e-3)
    np.testing.assert_allclose(out.cov[1, 1], np.exp(-2 * sp), rtol=1e-3)
    gp, gm = ideal_gains(0.75)
    np.testing.assert_allclose([gp, gm], [2.0, 0.5], rtol=1e-12)


def test_phase_gain_is_sqrt_t():
    out = condition_coherent(0.3 + 0.4j, 0.75, 0.52, 0.0)
    inp = coherent_gaussian(0.3 + 0.4j)
    np.testing.assert_allclose(out.mean[1] / inp.mean[1], 0.5, atol=1e-12)


def test_matches_fock_engine():
    # oracle route: full Fock construction of the same configuration
    gamma, r, s, x_snl = 0.5 + 0.3j, 0.75, 0.52, 0.1
    g_state = condition_coherent(gamma, r, s, x_snl)
    joint = conditioner.build_joint(fock.coherent_state(gamma, 60), r, s)
    state, _ = conditioner.homodyne_project(joint, x_snl / 2.0)  # x_wig = x_snl / 2
    mean_w, cov_w = fock.quadrature_moments(state)
    np.testing.assert_allclose(2.0 * mean_w, g_state.mean, atol=1e-6)
    np.testing.assert_allclose(4.0 * cov_w, g_state.cov, atol=1e-6)


def test_outcome_density_units():
    # homodyne densities are per-unit-x: P_wig(x_wig) = 2 P_snl(2 x_wig)
    gamma, r, s = 0.2 - 0.1j, 0.6, 0.3
    joint_snl = gaussian.interfere(coherent_gaussian(gamma), oracle.squeezed_gaussian(s), r)
    _, dens_snl = oracle.condition_xplus(joint_snl, 0.3)
    joint = conditioner.build_joint(fock.coherent_state(gamma, 40), r, s)
    _, dens_wig = conditioner.homodyne_project(joint, 0.15)
    np.testing.assert_allclose(dens_wig, 2.0 * dens_snl, atol=1e-8)


# ---------------------------------------------------------------------------
# Ideal squeezer target
# ---------------------------------------------------------------------------


def test_ideal_target_vacuum():
    out = ideal_target(oracle.vacuum_state(), 0.75)
    np.testing.assert_allclose(np.diag(out.cov), [4.0, 0.25], rtol=1e-12)


def test_ideal_target_mixed_input():
    out = ideal_target(oracle.gaussian_from_variances(1.13, 1.05), 0.75)
    np.testing.assert_allclose(np.diag(out.cov), [4.52, 0.2625], rtol=1e-12)


def test_ideal_target_mean_gains():
    inp = coherent_gaussian(0.18)
    out = ideal_target(inp, 0.75)
    np.testing.assert_allclose(out.mean[0] / inp.mean[0], 2.0, rtol=1e-12)
    inp2 = coherent_gaussian(0.18j)
    out2 = ideal_target(inp2, 0.75)
    np.testing.assert_allclose(out2.mean[1] / inp2.mean[1], 0.5, rtol=1e-12)


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def fid(a: GaussianState, b: GaussianState):
    return gaussian_fidelity(a.mean, a.cov, b.mean, b.cov)


def test_fidelity_identical_states():
    pure = oracle.squeezed_gaussian(0.4)
    np.testing.assert_allclose(fid(pure, pure), 1.0, rtol=1e-12)
    mixed = oracle.gaussian_from_variances(1.3, 1.1, mean=(0.5, -0.2))
    np.testing.assert_allclose(fid(mixed, mixed), 1.0, rtol=1e-12)
    # stacked moments: one call gives each pair's fidelity, and a single
    # state broadcasts against the stack
    states = [pure, mixed, coherent_gaussian(0.3 - 0.4j), ideal_target(mixed, 0.75)]
    means, covs = np.stack([st.mean for st in states]), np.stack([st.cov for st in states])
    stacked = gaussian_fidelity(means, covs, means[::-1], covs[::-1])
    assert stacked.shape == (4,)
    one_at_a_time = [fid(a, b) for a, b in zip(states, states[::-1])]
    np.testing.assert_allclose(stacked, one_at_a_time, rtol=1e-15, atol=0)
    np.testing.assert_allclose(gaussian_fidelity(means, covs, mixed.mean, mixed.cov),
                               [fid(st, mixed) for st in states], rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.diag(gaussian_fidelity(means, covs, means[:, None], covs[:, None])), 1.0,
                               rtol=1e-12)


def test_fidelity_vacuum_vs_ideal_squeezed_vacuum():
    # oracle: numerical pi-weighted Wigner overlap (both states pure)
    vac = oracle.vacuum_state()
    target = ideal_target(vac, 0.75)
    got = fid(vac, target)
    np.testing.assert_allclose(got, 0.8, rtol=1e-12)
    np.testing.assert_allclose(got, wigner_overlap_quadrature(vac, target), atol=1e-6)


def test_fidelity_displacement_decay():
    # oracle: numerical quadrature; e^{-|g|^2} for a unit displacement
    vac = oracle.vacuum_state()
    disp = coherent_gaussian(1.0)
    got = fid(vac, disp)
    np.testing.assert_allclose(got, np.exp(-1.0), rtol=1e-12)
    np.testing.assert_allclose(got, wigner_overlap_quadrature(vac, disp), atol=1e-6)


@pytest.mark.parametrize("gamma", [1e150, 1e160, 1e300j])
def test_fidelity_of_far_apart_states_is_zero(gamma):
    # from |gamma| ~ 1e154 the exponent overflows to inf; F is its limit, 0, with no warning
    vac = oracle.vacuum_state()
    disp = coherent_gaussian(gamma)
    assert fid(vac, disp) == 0.0


def test_fidelity_rejects_bad_covariance():
    vac = oracle.vacuum_state()
    bad = np.diag([1.0, -0.5])
    with pytest.raises(ValueError):
        gaussian_fidelity(vac.mean, vac.cov, np.zeros(2), bad)
    # a stack in which one entry alone is bad
    covs = np.stack([np.eye(2), 2.0 * np.eye(2), bad])
    with pytest.raises(ValueError):
        gaussian_fidelity(np.zeros((3, 2)), covs, vac.mean, vac.cov)
    with pytest.raises(ValueError):
        purity(covs)


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


def test_purity_values():
    np.testing.assert_allclose(purity(oracle.vacuum_state().cov), 1.0, rtol=1e-12)
    np.testing.assert_allclose(purity(oracle.squeezed_gaussian(0.83).cov), 1.0, rtol=1e-12)
    out = oracle.gaussian_from_variances(4.70, 0.51)
    inp = oracle.gaussian_from_variances(1.13, 1.05)
    # arithmetic from the quoted bench variances
    np.testing.assert_allclose(
        purity(out.cov) / purity(inp.cov), np.sqrt(1.13 * 1.05 / (4.70 * 0.51)), rtol=1e-12
    )
    np.testing.assert_allclose(purity(out.cov) / purity(inp.cov), 0.704, atol=5e-4)
    # a stack gives each covariance's purity
    states = [out, inp, oracle.squeezed_gaussian(0.83), oracle.gaussian_from_variances(1.3, 1.1)]
    stacked = purity(np.stack([st.cov for st in states]))
    assert stacked.shape == (4,)
    np.testing.assert_allclose(stacked, [purity(st.cov) for st in states], rtol=1e-15, atol=0)


def test_purity_refuses_a_covariance_that_is_not_2_by_2():
    with pytest.raises(ValueError, match=r"^covariances must be \(\.\.\., 2, 2\): single-mode states$"):
        purity(np.eye(3))


def test_checked_takes_a_complex_value_as_its_two_parts():
    for val in (1.5 - 2j, np.complex128(1.5 - 2j), np.complex64(1.5 - 2j), [1.5, -2], (np.float32(1.5), -2.0)):
        parts = gaussian.checked(val, complex)
        assert parts == [1.5, -2.0] and all(type(part) is float for part in parts)
    assert gaussian.checked(np.float64(0.5), complex) == [0.5, 0.0]
    # each part is held to finiteness and to the interval; only the complex kind takes a complex
    for val, message in ((complex(np.nan, 1.0), r"expected a finite number or \[re, im\] pair, got \(nan\+1j\)"),
                         (1 - 2j, r"-2\.0 is outside \[-1, 1\]")):
        with pytest.raises(ValueError, match=rf"^gamma: {message}$"):
            gaussian.checked(val, complex, "[-1, 1]", "gamma")
    with pytest.raises(ValueError, match=r"^x: expected a finite number, got \(1\+0j\)$"):
        gaussian.checked(1 + 0j, float, None, "x")


# ---------------------------------------------------------------------------
# Classical fidelity bounds
# ---------------------------------------------------------------------------


def test_classical_limit_values():
    # the two quoted bounds, to the bit, and the closed form between them
    assert classical_limit(0.75) == 0.8
    assert classical_limit(0.5) == np.sqrt(8.0) / 3.0
    np.testing.assert_allclose(classical_limit(0.3), 2.0 * np.sqrt(0.7) / 1.7, rtol=1e-15)
    np.testing.assert_allclose(classical_limit(0.6), 1.0 / np.cosh(-0.5 * np.log(0.4)), rtol=1e-15)
    assert classical_limit(0.0) == 1.0
    for r in (1.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="reflectivity"):
            classical_limit(r)


@pytest.mark.parametrize("r", [0.0, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.98])
def test_classical_limit_is_the_best_coherent_fidelity(r):
    # the largest fidelity of a coherent state with the ideal target, over a
    # grid of displacements about the target's mean, is the bound, and is taken
    # at the mean
    target = ideal_target(coherent_gaussian(0.18 + 0.1j), r)
    offsets = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 41)] * 2, indexing="ij"), axis=-1).reshape(-1, 2)
    fid = gaussian_fidelity(target.mean + offsets, np.eye(2), target.mean, target.cov)
    best = int(np.argmax(fid))
    np.testing.assert_array_equal(offsets[best], [0.0, 0.0])
    np.testing.assert_allclose(fid[best], classical_limit(r), rtol=1e-14)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 0.98])
@pytest.mark.parametrize("s", [-0.4, 0.0, 0.52, 1.2])
def test_conditioning_respects_uncertainty(r, s):
    for x in (-1.0, 0.0, 2.0):
        out = condition_coherent(0.4 + 0.2j, r, s, x)
        evals = np.linalg.eigvalsh(out.cov + 1j * _J)
        assert evals.min() >= -1e-9


def test_conditional_covariance_is_outcome_independent():
    covs = [condition_coherent(0.3, 0.75, 0.52, x).cov for x in (-1.0, 0.0, 1.0)]
    np.testing.assert_allclose(covs[0], covs[1], atol=1e-12)
    np.testing.assert_allclose(covs[1], covs[2], atol=1e-12)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.35, 0.69, 1.03, 2.0])
def test_purity_preserving_for_pure_inputs(s):
    out = condition_coherent(0.7 - 0.1j, 0.6, s, 0.4)
    np.testing.assert_allclose(purity(out.cov), 1.0, atol=1e-9)


def test_zero_outcome_mean_matches_conditional_transform():
    # mean of the conditional state is sqrt(T) (e^{2s'} g+, g-) in amplitude units
    for gamma in (0.3, 0.2 + 0.5j, -0.4j):
        for r in (0.3, 0.75, 0.9):
            for s in (0.0, 0.3, 0.8):
                out = condition_coherent(gamma, r, s, 0.0)
                sp = s_prime(r, s)
                t = 1.0 - r
                g = complex(gamma)
                expected = 2.0 * np.sqrt(t) * np.array([np.exp(2 * sp) * g.real, g.imag])
                np.testing.assert_allclose(out.mean, expected, atol=1e-9)


def test_output_family_squeezes_monotonically():
    # sweeping the ancilla squeezing: output stays minimum-uncertainty and
    # approaches the ideal squeezer variances from above
    r = 0.75
    v_minus = []
    for s in (0.0, 0.35, 0.69, 1.03):
        out = condition_coherent(0.18, r, s, 0.0)
        np.testing.assert_allclose(np.linalg.det(out.cov), 1.0, atol=1e-9)
        v_minus.append(out.cov[1, 1])
    assert np.all(np.diff(v_minus) < 0)
    assert v_minus[-1] > 1.0 - r  # bounded below by the T = e^{-2s'} limit


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.diag([0.1, 0.1]))  # below vacuum noise
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))  # odd size
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(np.zeros(2), np.array([[2.0, 0.5], [0.4, 2.0]]))
    with pytest.raises(ValueError, match="one mode"):
        GaussianState(np.zeros(4), np.eye(4))  # two modes


def _pure_cov(r, theta):
    """R(theta) diag(e^{2r}, e^{-2r}) R(theta)^T, exactly symmetric: det 1, on the boundary."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ rot.T
    cov[1, 0] = cov[0, 1]
    return cov


_log_entry = st.floats(-12.0, 12.0)
_random_cov = st.builds(
    lambda a, b, rho, sa, sb: np.array([[sa * np.exp(a), rho * np.exp((a + b) / 2.0)],
                                        [rho * np.exp((a + b) / 2.0), sb * np.exp(b)]]),
    _log_entry, _log_entry, st.floats(-1.0, 1.0), st.sampled_from([1.0, 1.0, 1.0, -1.0]), st.sampled_from([1.0, -1.0]),
)
# (1 + delta) times a pure covariance, with |delta| from 1e-16 to 1 either side of 1
_near_boundary_cov = st.builds(
    lambda r, theta, sign, k: (1.0 + sign * 10.0**k) * _pure_cov(r, theta),
    st.floats(-6.0, 6.0), st.floats(0.0, np.pi), st.sampled_from([1.0, -1.0]), st.floats(-16.0, 0.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(cov=st.one_of(_random_cov, _near_boundary_cov))
def test_uncertainty_check_matches_eigvalsh(cov):
    # oracle: the smallest eigenvalue of cov + iJ by LAPACK, against the same
    # tolerance; a value within roundoff of the threshold is a tie either way
    scale = max(1.0, float(np.abs(cov).max()))
    lowest = np.linalg.eigvalsh(cov + 1j * _J).min()
    assume(abs(lowest + 1e-9 * scale) > 1e-12 * scale)
    rejected = lowest < -1e-9 * scale
    if rejected:
        with pytest.raises(ValueError, match="uncertainty relation"):
            GaussianState(np.zeros(2), cov)
    else:
        GaussianState(np.zeros(2), cov)
