import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite, factorial

import oracle
from cvpost import fock
from cvpost.errors import TruncationError

RTOL = 1e-10


# ---------------------------------------------------------------------------
# Unit conventions
# ---------------------------------------------------------------------------


def test_unit_conversion_constants():
    assert fock.WIGNER_VACUUM_VAR == 0.25
    assert fock.SNL_VACUUM_VAR == 1.0
    assert fock.VAR_SNL_PER_WIGNER == 4.0
    assert fock.SNL_VACUUM_VAR == fock.VAR_SNL_PER_WIGNER * fock.WIGNER_VACUUM_VAR


# ---------------------------------------------------------------------------
# Number states
# ---------------------------------------------------------------------------


def test_fock_state_basis_vectors():
    one = fock.fock_state(1, 10)
    expected = np.zeros(10)
    expected[1] = 1.0
    np.testing.assert_allclose(one.amplitudes, expected)

    vac = fock.fock_state(0, 2)
    np.testing.assert_allclose(vac.amplitudes, [1.0, 0.0])

    two = fock.fock_state(2, 40)
    assert two.amplitudes[2] == 1.0
    assert np.count_nonzero(two.amplitudes) == 1


def test_fock_state_out_of_range():
    with pytest.raises(TruncationError):
        fock.fock_state(5, 5)


# ---------------------------------------------------------------------------
# Coherent states
# ---------------------------------------------------------------------------


def test_coherent_vacuum_limit():
    vac = fock.coherent_state(0.0, 10)
    np.testing.assert_allclose(vac.amplitudes, fock.fock_state(0, 10).amplitudes)


def test_coherent_ground_amplitude():
    psi = fock.coherent_state(1.0, 30)
    # <0|gamma> = e^{-|gamma|^2/2}
    np.testing.assert_allclose(psi.amplitudes[0], np.exp(-0.5), rtol=RTOL)


def test_coherent_mean_field():
    # oracle: direct expectation from the coefficient formula
    gamma = 1.1j
    psi = fock.coherent_state(gamma, 40)
    c = psi.amplitudes
    n = np.arange(1, 40)
    mean_a = np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(n))
    assert abs(mean_a - gamma) < 1e-8


def test_coherent_truncation_error_names_adequate_dim():
    with pytest.raises(TruncationError) as err:
        fock.coherent_state(3.0, 12)
    need = err.value.suggested_dim
    assert need is not None and need > 12
    # the suggested dimension really is adequate
    psi = fock.coherent_state(3.0, need)
    assert psi.tail_mass <= fock.TAIL_TOLERANCE


# ---------------------------------------------------------------------------
# Squeezed vacuum
# ---------------------------------------------------------------------------


def test_squeezed_vacuum_identity():
    np.testing.assert_allclose(
        fock.squeezed_vacuum(0.0, 20).amplitudes, fock.fock_state(0, 20).amplitudes
    )


def test_squeezed_vacuum_ground_amplitude():
    # oracle: |<0|S(s)|0>| = sech(s)^{1/2}
    psi = fock.squeezed_vacuum(0.5, 40)
    np.testing.assert_allclose(abs(psi.amplitudes[0]), np.cosh(0.5) ** -0.5, rtol=1e-12)


def test_squeezed_vacuum_quadrature_variances():
    # s > 0 squeezes the phase quadrature: V- = e^{-2s}/4, V+ = e^{+2s}/4.
    # At s = 0.52 the squeezed level is -4.5 dB relative to SNL.
    s = 0.52
    psi = fock.squeezed_vacuum(s, 60)
    _, cov = fock.quadrature_moments(psi.density())
    np.testing.assert_allclose(cov[1, 1], 0.25 * np.exp(-2 * s), atol=1e-10)
    np.testing.assert_allclose(cov[0, 0], 0.25 * np.exp(2 * s), atol=1e-10)
    level_db = 10 * np.log10(cov[1, 1] / fock.WIGNER_VACUUM_VAR)
    assert abs(level_db - (-4.5)) < 0.2


def test_squeezed_vacuum_parity():
    psi = fock.squeezed_vacuum(0.7, 40)
    assert np.all(psi.amplitudes[1::2] == 0.0)


def test_squeezed_vacuum_matches_operator_route():
    series = fock.squeezed_vacuum(0.6, 40)
    applied = oracle.apply_squeeze(fock.fock_state(0, 40), 0.6)
    np.testing.assert_allclose(series.amplitudes, applied.amplitudes, atol=1e-10)


# ---------------------------------------------------------------------------
# Squeezed number states and displaced squeezed vacua
# ---------------------------------------------------------------------------

# The oracle exponentiates on this many levels above the compared ones, so
# its own truncation error is far below the tolerance.
ORACLE_LEVELS = 80


def test_displaced_vacuum_is_coherent():
    gamma = 0.8 - 0.4j
    direct = fock.coherent_state(gamma, 40)
    displaced = oracle.displaced_squeezed_vacuum(gamma, 0.0, 40)
    np.testing.assert_allclose(displaced.amplitudes, direct.amplitudes, atol=1e-8)


def test_zero_squeeze_is_identity():
    psi = fock.coherent_state(0.5 + 0.2j, 30)
    out = oracle.displaced_squeezed_vacuum(0.5 + 0.2j, 0.0, 30)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)
    for n in (0, 1, 2):
        out = fock.squeezed_number_state(n, 0.0, 30)
        np.testing.assert_allclose(out.amplitudes, fock.fock_state(n, 30).amplitudes, atol=1e-12)


def test_squeezed_photon_origin_parity():
    # squeezing preserves photon-number parity, so W(0) = -2/pi for S(s)|1>
    psi = fock.squeezed_number_state(1, 0.67, 40)
    probs = np.abs(psi.amplitudes) ** 2
    parity = np.sum(probs * (-1.0) ** np.arange(40))
    w_origin = (2 / np.pi) * parity
    np.testing.assert_allclose(w_origin, -2 / np.pi, atol=1e-9)


def test_apply_squeeze_truncation_guard():
    with pytest.raises(TruncationError):
        fock.squeezed_number_state(1, 1.5, 8)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("s", [-0.9, -0.3, 0.4, 0.9])
def test_squeezed_number_state_matches_oracle(n, s):
    dim = 80
    got = fock.squeezed_number_state(n, s, dim)
    ref = oracle.apply_squeeze(fock.fock_state(n, dim + ORACLE_LEVELS), s)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes[:dim], rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.7 - 0.4j, 1.5j, -1.5, 1.06 + 1.06j])
@pytest.mark.parametrize("s", [-0.6, 0.0, 0.7])
def test_displaced_squeezed_vacuum_matches_oracle(beta, s):
    dim = 60
    got = oracle.displaced_squeezed_vacuum(beta, s, dim)
    vac = fock.fock_state(0, dim + ORACLE_LEVELS)
    ref = oracle.apply_displace(oracle.apply_squeeze(vac, s), beta)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes[:dim], rtol=0, atol=1e-12)


def test_squeezed_number_state_tail_guard_is_exact():
    # S(s)|1> at dim 40 keeps 1 - 5.3e-8 of its norm at s = 0.75 and
    # 1 - 7.4e-9 at s = 0.7; the guard raises on the first only
    for s, raises in ((0.75, True), (0.7, False)):
        ref = oracle.apply_squeeze(fock.fock_state(1, 40 + ORACLE_LEVELS), s)
        true_tail = 1.0 - np.sum(np.abs(ref.amplitudes[:40]) ** 2)
        assert (true_tail > fock.TAIL_TOLERANCE) == raises, true_tail
        if raises:
            with pytest.raises(TruncationError, match="dim=40"):
                fock.squeezed_number_state(1, s, 40)
        else:
            np.testing.assert_allclose(fock.squeezed_number_state(1, s, 40).tail_mass, true_tail, atol=1e-14)


def test_displaced_squeezed_vacuum_tail_guard():
    with pytest.raises(TruncationError):
        oracle.displaced_squeezed_vacuum(2.0 + 1.0j, 0.5, 12)


# ---------------------------------------------------------------------------
# Superpositions of coherent states
# ---------------------------------------------------------------------------


def test_scs_degenerate_even_limit():
    psi = fock.scs_state(0.0, "even", 12)
    np.testing.assert_allclose(psi.amplitudes, fock.fock_state(0, 12).amplitudes)


def test_scs_even_parity():
    psi = fock.scs_state(1.1j, "even", 40)
    assert psi.amplitudes[1] == 0.0
    assert np.all(psi.amplitudes[1::2] == 0.0)


def test_scs_normalization_constant():
    # oracle: <g|-g> = e^{-2|g|^2}, so N = [2(1 + e^{-2|g|^2})]^{-1/2}
    gamma = 1.1j
    n_const = (2.0 * (1.0 + np.exp(-2 * abs(gamma) ** 2))) ** -0.5
    psi = fock.scs_state(gamma, "even", 40)
    plus = fock.coherent_state(gamma, 40).amplitudes
    minus = fock.coherent_state(-gamma, 40).amplitudes
    np.testing.assert_allclose(psi.amplitudes, n_const * (plus + minus), atol=1e-12)
    np.testing.assert_allclose(psi.norm, 1.0, atol=1e-9)


def test_scs_odd_variant():
    psi = fock.scs_state(1.2, "odd", 40)
    assert np.all(psi.amplitudes[0::2] == 0.0)
    np.testing.assert_allclose(psi.norm, 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        fock.scs_state(0.0, "odd", 20)


@pytest.mark.parametrize(
    "prepare",
    [
        lambda: fock.squeezed_vacuum(np.nan, 20),
        lambda: fock.squeezed_number_state(1, np.nan, 20),
        lambda: oracle.displaced_squeezed_vacuum(0.5, np.nan, 20),
        lambda: fock.coherent_state(complex(np.nan, 0.0), 20),
        lambda: fock.scs_state(complex(0.0, np.nan), "even", 20),
    ],
    ids=["squeezed_vacuum", "squeezed_number_state", "displaced_squeezed_vacuum", "coherent_state", "scs_state"],
)
def test_preparers_reject_nan_parameters(prepare):
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        prepare()


# ---------------------------------------------------------------------------
# Beam splitter
# ---------------------------------------------------------------------------


def test_beam_splitter_zero_reflectivity_is_identity():
    rho_in = fock.coherent_state(0.4 + 0.1j, 24).density()
    rho_anc = fock.squeezed_vacuum(0.4, 24).density()
    joint = oracle.beam_splitter(rho_in, rho_anc, 0.0)
    np.testing.assert_allclose(joint.matrix, np.kron(rho_in.matrix, rho_anc.matrix))


@pytest.mark.parametrize("reflectivity", [0.5, 0.75])
def test_single_photon_reflection_probability(reflectivity):
    joint = oracle.beam_splitter(
        fock.fock_state(1, 8).density(), fock.fock_state(0, 8).density(), reflectivity
    )
    reflected = joint.ptrace(1)
    np.testing.assert_allclose(np.real(reflected.matrix[1, 1]), reflectivity, atol=1e-12)
    transmitted = joint.ptrace(0)
    np.testing.assert_allclose(np.real(transmitted.matrix[1, 1]), 1 - reflectivity, atol=1e-12)


@pytest.mark.parametrize("reflectivity", [0.0, 0.25, 0.5, 0.75, 0.98, 1.0])
def test_beam_splitter_preserves_trace(reflectivity):
    rho_in = fock.fock_state(1, 24).density()
    rho_anc = fock.squeezed_vacuum(0.5, 24).density()
    joint = oracle.beam_splitter(rho_in, rho_anc, reflectivity)
    np.testing.assert_allclose(joint.trace, rho_in.trace * rho_anc.trace, atol=1e-9)


def test_beam_splitter_full_reflection_swaps_contents():
    rho_in = fock.coherent_state(0.7, 24).density()
    rho_anc = fock.squeezed_vacuum(0.3, 24).density()
    joint = oracle.beam_splitter(rho_in, rho_anc, 1.0)
    # photon-number distributions swap (phases may flip sign)
    np.testing.assert_allclose(
        np.real(np.diag(joint.ptrace(1).matrix)), np.real(np.diag(rho_in.matrix)), atol=1e-10
    )
    np.testing.assert_allclose(
        np.real(np.diag(joint.ptrace(0).matrix)), np.real(np.diag(rho_anc.matrix)), atol=1e-10
    )


def test_beam_splitter_rejects_bad_reflectivity():
    rho = fock.fock_state(0, 4).density()
    with pytest.raises(ValueError):
        oracle.beam_splitter(rho, rho, 1.5)


def test_beam_splitter_matches_wigner_composition():
    # two-mode Wigner of |1> x S(s)|0> equals
    # W_in(sqrt(T) a + sqrt(R) b) * W_anc(-sqrt(R) a + sqrt(T) b)
    dim, r, s = 24, 0.75, 0.5
    st, sr = np.sqrt(1 - r), np.sqrt(r)
    joint = oracle.beam_splitter(
        fock.fock_state(1, dim).density(), fock.squeezed_vacuum(s, dim).density(), r
    )
    rng = np.random.default_rng(42)
    points = rng.uniform(-2.0, 2.0, size=(120, 4))
    for ap, am, bp, bm in points:
        a = ap + 1j * am
        b = bp + 1j * bm
        got = oracle.wigner_two_mode_point(joint, a, b)
        want = oracle.single_photon_wigner(st * a + sr * b) * oracle.squeezed_vacuum_wigner(
            -sr * a + st * b, s
        )
        assert abs(got - want) < 1e-5


def test_operations_do_not_mutate_inputs():
    psi_in = fock.fock_state(1, 20)
    psi_anc = fock.squeezed_vacuum(0.4, 20)
    before_in = psi_in.amplitudes.copy()
    before_anc = psi_anc.amplitudes.copy()
    joint = fock.interfere(psi_in, psi_anc, 0.6)
    np.testing.assert_array_equal(psi_in.amplitudes, before_in)
    np.testing.assert_array_equal(psi_anc.amplitudes, before_anc)
    with pytest.raises(ValueError):
        psi_in.density().matrix[0, 0] = 2.0  # payload arrays are read-only
    with pytest.raises(ValueError):
        joint.amplitudes[0, 0] = 2.0
    with pytest.raises(ValueError):
        fock.beam_splitter_unitary(20).vectors[5][0, 0] = 2.0


@pytest.mark.parametrize("reflectivity", [0.0, 0.3, 0.75, 1.0])
def test_unitary_blocks_match_dense_generator(reflectivity):
    # independent route: one expm of the full two-mode generator, whose own
    # rounding on a generator of norm ~dim is ~1e-12
    dim = 24
    np.testing.assert_allclose(
        oracle.dense_unitary(dim, reflectivity),
        oracle.generator_unitary(dim, reflectivity),
        rtol=0, atol=1e-10,
    )


def test_unitary_blocks_are_unitary_and_cached():
    basis = fock.beam_splitter_unitary(30)
    assert fock.beam_splitter_unitary(30) is basis
    assert basis.vectors.shape == (30, 30, 30)
    for vectors in basis.vectors:
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(30), atol=1e-12)
    # the operator itself, truncated blocks (N >= dim) included
    u = oracle.dense_unitary(30, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(30 * 30), atol=1e-12)


def test_cached_eigenbasis_is_read_only():
    for arr in fock.beam_splitter_unitary(12):  # every cached array, not only the vectors
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_interfere_is_bit_identical_from_a_cold_and_a_warm_cache():
    psi_in, psi_anc = fock.fock_state(2, 40), fock.squeezed_vacuum(-0.37, 40)
    fock.beam_splitter_unitary.cache_clear()
    cold = fock.interfere(psi_in, psi_anc, 0.5).amplitudes
    fock.interfere(fock.fock_state(1, 24), fock.squeezed_vacuum(0.3, 24), 0.9)
    warm = fock.interfere(psi_in, psi_anc, 0.5).amplitudes
    assert cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("reflectivity", [-0.1, 1.0 + 1e-12, float("nan")])
def test_interfere_rejects_bad_reflectivity(reflectivity):
    psi = fock.fock_state(0, 8)
    with pytest.raises(ValueError):
        fock.interfere(psi, psi, reflectivity)


def test_memory_guard_names_the_budget_and_the_largest_dim():
    fits = 401
    assert fock._dim_bytes(fits) <= fock.MEMORY_BUDGET < fock._dim_bytes(fits + 1)
    with pytest.raises(ValueError, match=f"{fock.MEMORY_BUDGET >> 20} MiB budget; the largest dim that fits is {fits}"):
        fock.beam_splitter_unitary(fits + 1)


def test_interfere_is_the_dense_route_on_a_vector():
    psi_in = fock.coherent_state(0.5 + 0.2j, 20)
    psi_anc = fock.squeezed_vacuum(0.4, 20)
    joint = fock.interfere(psi_in, psi_anc, 0.6)
    dense = oracle.beam_splitter(psi_in.density(), psi_anc.density(), 0.6)
    vec = joint.amplitudes.ravel()
    np.testing.assert_allclose(np.outer(vec, vec.conj()), dense.matrix, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        fock.interfere(psi_in, fock.fock_state(0, 10), 0.6)


# ---------------------------------------------------------------------------
# Quadrature wavefunctions
# ---------------------------------------------------------------------------


def test_wavefunction_at_origin():
    np.testing.assert_allclose(
        oracle.quadrature_wavefunction(0, 0.0), (2 / np.pi) ** 0.25, rtol=1e-12
    )
    assert oracle.quadrature_wavefunction(1, 0.0) == 0.0


def test_wavefunction_normalization_and_variance():
    # oracle: numerical quadrature fixes the delta-normalized convention
    norm, _ = quad(lambda x: oracle.quadrature_wavefunction(0, x) ** 2, -np.inf, np.inf)
    var, _ = quad(lambda x: x**2 * oracle.quadrature_wavefunction(0, x) ** 2, -np.inf, np.inf)
    np.testing.assert_allclose(norm, 1.0, atol=1e-10)
    np.testing.assert_allclose(var, 0.25, atol=1e-10)


def test_wavefunction_matches_hermite_formula():
    # independent small-n oracle with explicit Hermite polynomials
    xs = np.linspace(-4.0, 4.0, 41)
    for n in range(0, 31, 5):
        direct = (
            (2 / np.pi) ** 0.25
            * eval_hermite(n, np.sqrt(2) * xs)
            * np.exp(-(xs**2))
            / np.sqrt(2.0**n * factorial(n))
        )
        np.testing.assert_allclose(
            oracle.quadrature_wavefunction(n, xs), direct, atol=1e-10
        )


def test_wavefunction_recurrence_stability():
    xs = np.linspace(-6.0, 6.0, 121)
    table = fock.quadrature_wavefunctions(100, xs)
    assert np.all(np.isfinite(table))
    xi = np.sqrt(2.0) * xs
    for n in range(1, 100):
        residual = table[n + 1] - (
            xi * np.sqrt(2.0 / (n + 1)) * table[n] - np.sqrt(n / (n + 1)) * table[n - 1]
        )
        assert np.max(np.abs(residual)) < 1e-9


def test_wavefunction_rejects_negative_n():
    with pytest.raises(ValueError):
        oracle.quadrature_wavefunction(-1, 0.0)


def test_partial_traces_are_valid_densities():
    joint = oracle.beam_splitter(
        fock.coherent_state(0.5 + 0.2j, 20).density(),
        fock.squeezed_vacuum(0.4, 20).density(),
        0.6,
    )
    for keep in (0, 1):
        red = joint.ptrace(keep)
        # re-validate explicitly: Hermitian, positive, unit trace
        fock.FockDensity(red.matrix, red.dim, validate=True)
        np.testing.assert_allclose(red.trace, 1.0, atol=1e-9)
