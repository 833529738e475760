import numpy as np
import pytest

import oracle
from cvpost import conditioner, fock, gaussian
from cvpost.gaussian import (
    GaussianState,
    classical_limit,
    coherent_gaussian,
    condition_coherent,
    condition_through,
    gaussian_fidelity,
    ideal_gains,
    ideal_target,
    purity,
    purity_norm,
    squeezed_gaussian,
)


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
    rho, _ = conditioner.homodyne_project(joint, x_snl / 2.0)  # x_wig = x_snl / 2
    mean_w, cov_w = fock.quadrature_moments(rho.normalized())
    np.testing.assert_allclose(2.0 * mean_w, g_state.mean, atol=1e-6)
    np.testing.assert_allclose(4.0 * cov_w, g_state.cov, atol=1e-6)


def test_outcome_density_units():
    # homodyne densities are per-unit-x: P_wig(x_wig) = 2 P_snl(2 x_wig)
    gamma, r, s = 0.2 - 0.1j, 0.6, 0.3
    _, dens_snl = condition_through(
        coherent_gaussian(gamma), squeezed_gaussian(s), r, 0.3
    )
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


def test_fidelity_identical_states():
    pure = squeezed_gaussian(0.4)
    np.testing.assert_allclose(gaussian_fidelity(pure, pure), 1.0, rtol=1e-12)
    mixed = oracle.gaussian_from_variances(1.3, 1.1, mean=(0.5, -0.2))
    np.testing.assert_allclose(gaussian_fidelity(mixed, mixed), 1.0, rtol=1e-12)


def test_fidelity_vacuum_vs_ideal_squeezed_vacuum():
    # oracle: numerical pi-weighted Wigner overlap (both states pure)
    vac = oracle.vacuum_state()
    target = ideal_target(vac, 0.75)
    got = gaussian_fidelity(vac, target)
    np.testing.assert_allclose(got, 0.8, rtol=1e-12)
    np.testing.assert_allclose(got, wigner_overlap_quadrature(vac, target), atol=1e-6)


def test_fidelity_displacement_decay():
    # oracle: numerical quadrature; e^{-|g|^2} for a unit displacement
    vac = oracle.vacuum_state()
    disp = coherent_gaussian(1.0)
    got = gaussian_fidelity(vac, disp)
    np.testing.assert_allclose(got, np.exp(-1.0), rtol=1e-12)
    np.testing.assert_allclose(got, wigner_overlap_quadrature(vac, disp), atol=1e-6)


def test_fidelity_rejects_bad_covariance():
    vac = oracle.vacuum_state()
    bad = GaussianState.__new__(GaussianState)
    object.__setattr__(bad, "mean", np.zeros(2))
    object.__setattr__(bad, "cov", np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        gaussian_fidelity(vac, bad)


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


def test_purity_values():
    np.testing.assert_allclose(purity(oracle.vacuum_state()), 1.0, rtol=1e-12)
    np.testing.assert_allclose(purity(squeezed_gaussian(0.83)), 1.0, rtol=1e-12)
    out = oracle.gaussian_from_variances(4.70, 0.51)
    inp = oracle.gaussian_from_variances(1.13, 1.05)
    # arithmetic from the quoted bench variances
    np.testing.assert_allclose(
        purity_norm(out, inp), np.sqrt(1.13 * 1.05 / (4.70 * 0.51)), rtol=1e-12
    )
    np.testing.assert_allclose(purity_norm(out, inp), 0.704, atol=5e-4)


# ---------------------------------------------------------------------------
# Classical fidelity bounds
# ---------------------------------------------------------------------------


def test_classical_limit_values():
    assert classical_limit(0.75) == 0.8
    np.testing.assert_allclose(classical_limit(0.5), np.sqrt(8.0) / 3.0, atol=1e-12)
    with pytest.raises(ValueError):
        classical_limit(0.3)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 0.98])
@pytest.mark.parametrize("s", [-0.4, 0.0, 0.52, 1.2])
def test_conditioning_respects_uncertainty(r, s):
    for x in (-1.0, 0.0, 2.0):
        out = condition_coherent(0.4 + 0.2j, r, s, x)
        omega = gaussian.symplectic_form(1)
        evals = np.linalg.eigvalsh(out.cov + 1j * omega)
        assert evals.min() >= -1e-9


def test_conditional_covariance_is_outcome_independent():
    covs = [condition_coherent(0.3, 0.75, 0.52, x).cov for x in (-1.0, 0.0, 1.0)]
    np.testing.assert_allclose(covs[0], covs[1], atol=1e-12)
    np.testing.assert_allclose(covs[1], covs[2], atol=1e-12)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.35, 0.69, 1.03, 2.0])
def test_purity_preserving_for_pure_inputs(s):
    out = condition_coherent(0.7 - 0.1j, 0.6, s, 0.4)
    np.testing.assert_allclose(purity(out), 1.0, atol=1e-9)


def test_zero_outcome_mean_matches_conditional_transform():
    # mean of the conditional state is sqrt(T) (e^{2s'} g+, g-) in amplitude units
    for gamma in (0.3, 0.2 + 0.5j, -0.4j):
        for r in (0.3, 0.75, 0.9):
            for s in (0.0, 0.3, 0.8):
                out = condition_coherent(gamma, r, s, 0.0)
                sp = conditioner.s_prime(r, s)
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
