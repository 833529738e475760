import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

import oracle
from cvpost import conditioner, fock, gaussian
from cvpost.fock import TruncationError

RTOL = 1e-10


# ---------------------------------------------------------------------------
# Number states
# ---------------------------------------------------------------------------


def test_real_preparers_build_float_states():
    # every preparer returns a read-only 1-D array of dim amplitudes; a real
    # state stays real from its preparer on, coherent states and cats stay complex
    for state, dtype in (
        (fock.fock_state(1, 30), np.float64),
        (fock.squeezed_number_state(1, 0.4, 30), np.float64),
        (fock.coherent_state(0.5, 30), np.complex128),
        (fock.scs_state(1.1j, 30), np.complex128),
    ):
        assert type(state) is np.ndarray and state.dtype == dtype and state.shape == (30,)
        assert not state.flags.writeable


def test_fock_state_basis_vectors():
    one = fock.fock_state(1, 10)
    expected = np.zeros(10)
    expected[1] = 1.0
    np.testing.assert_allclose(one, expected)

    vac = fock.fock_state(0, 2)
    np.testing.assert_allclose(vac, [1.0, 0.0])

    two = fock.fock_state(2, 40)
    assert two[2] == 1.0
    assert np.count_nonzero(two) == 1


@pytest.mark.parametrize("prepare", [
    partial(fock.fock_state, 1),
    partial(fock.coherent_state, 0.5),
    partial(fock.squeezed_number_state, 0, 0.3),
    partial(fock.scs_state, 1.1j),
], ids=["fock", "coherent", "squeezed", "cat"])
def test_preparers_check_dim_before_they_allocate(prepare):
    # unchecked, dim 1000 built a state that only interfere refused, and
    # dim 0 ended in a bare IndexError
    for dim in (0, -3, 402, 1000):
        with pytest.raises(ValueError, match=rf"^dim: {dim} is outside \[1, 401\]$"):
            prepare(dim)


def test_fock_state_out_of_range():
    with pytest.raises(TruncationError):
        fock.fock_state(5, 5)


@pytest.mark.parametrize("n, dim", [(2, 2), (400, 40)])
def test_fock_state_names_the_dim_that_holds_it(n, dim):
    # dim 2 once said only that |2> does not fit, naming no dim that holds it
    with pytest.raises(TruncationError, match=rf"^fock_state\(n={n}\) .* at dim={dim}; use dim >= {n + 1}$") as err:
        fock.fock_state(n, dim)
    assert err.value.suggested_dim == n + 1
    assert fock.fock_state(n, n + 1)[n] == 1.0


# Each once raised a bare numpy TypeError or IndexError, or ran with a bool as a number.
@pytest.mark.parametrize("call, message", [
    (lambda: fock.fock_state(1, 2.5), r"^dim: expected an integer, got 2\.5$"),
    (lambda: fock.coherent_state(0.5, 2.5), r"^dim: expected an integer, got 2\.5$"),
    (lambda: fock.squeezed_number_state(0, 0.3, 40.0), r"^dim: expected an integer, got 40\.0$"),
    (lambda: fock.scs_state(1.1j, True), r"^dim: expected an integer, got True$"),
    (lambda: conditioner.window_matrix(2.5, 0.3), r"^dim: expected an integer, got 2\.5$"),
    (lambda: conditioner.window_matrix(402, 0.3), r"^dim: 402 is outside \[1, 401\]$"),
    (lambda: fock.quadrature_wavefunctions(2.5, 0.3), r"^n_max: expected an integer, got 2\.5$"),
    (lambda: fock.quadrature_wavefunctions(-1, 0.3), r"^n_max: -1 is outside \[0, 402\]$"),
    (lambda: fock.quadrature_wavefunctions(403, 0.3), r"^n_max: 403 is outside \[0, 402\]$"),
    (lambda: fock.fock_state(1.0, 3), r"^n: expected an integer, got 1\.0$"),
    (lambda: fock.fock_state(True, 3), r"^n: expected an integer, got True$"),
    (lambda: fock.fock_state(500, 40), r"^n: 500 is outside \[0, 400\]$"),
    # S(s)|n> is built for the two states the protocol uses, n = 0 and 1
    (lambda: fock.squeezed_number_state(2, 0.3, 40), r"^n: 2 is outside \[0, 1\]$"),
    (lambda: fock.squeezed_number_state(40, 0.7, 60), r"^n: 40 is outside \[0, 1\]$"),
    (lambda: fock.squeezed_number_state(400, 0.3, 401), r"^n: 400 is outside \[0, 1\]$"),
    (lambda: fock.squeezed_number_state(600, 0.3, 401), r"^n: 600 is outside \[0, 1\]$"),
    (lambda: fock.squeezed_number_state(40000, 0.7, 60), r"^n: 40000 is outside \[0, 1\]$"),
    (lambda: fock.coherent_state("a", 10), r"^gamma: expected a finite number or \[re, im\] pair, got 'a'$"),
    (lambda: fock.coherent_state(True, 10), r"^gamma: expected .*, got True$"),
    (lambda: fock.scs_state(complex(np.inf, 0.0), 10), r"^gamma: expected .*, got \(inf\+0j\)$"),
    # |gamma| overflowed a float, an OverflowError from abs()
    (lambda: fock.coherent_state(complex(1.7e308, 1.7e308), 10), r"^gamma: 1\.7e\+308 is outside \[-1e308, 1e308\]$"),
    (lambda: fock.scs_state([1e308, -1.7e308], 10), r"^gamma: -1\.7e\+308 is outside \[-1e308, 1e308\]$"),
], ids=["fock-dim", "coherent-dim", "squeezed-dim", "cat-dim", "window-dim", "window-dim-402", "n_max-float",
        "n_max-negative", "n_max-403", "fock-n-float", "fock-n-bool", "fock-n-500", "squeezed-n-2",
        "squeezed-n-40", "squeezed-n-400", "squeezed-n-600", "squeezed-n-40000", "gamma-str", "gamma-bool", "cat-gamma-inf", "gamma-1.7e308", "cat-gamma-1.7e308"])
def test_engine_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_engine_arguments_take_numpy_scalars_and_their_largest_values():
    assert fock.fock_state(np.int64(400), np.int64(401))[400] == 1.0
    np.testing.assert_array_equal(fock.squeezed_number_state(np.int32(1), 0.4, 30),
                                  fock.squeezed_number_state(1, 0.4, 30))
    for gamma in (np.complex128(0.5 + 0.2j), [0.5, 0.2], (np.float64(0.5), 0.2)):
        np.testing.assert_array_equal(fock.coherent_state(gamma, 30), fock.coherent_state(0.5 + 0.2j, 30))
    assert fock.quadrature_wavefunctions(fock.MAX_DIM + 1, [0.3]).shape == (fock.MAX_DIM + 2, 1)
    assert conditioner.window_matrix(fock.MAX_DIM, 0.3).shape == (fock.MAX_DIM, fock.MAX_DIM)


# ---------------------------------------------------------------------------
# Coherent states
# ---------------------------------------------------------------------------


def test_coherent_vacuum_limit():
    vac = fock.coherent_state(0.0, 10)
    np.testing.assert_allclose(vac, fock.fock_state(0, 10))


def test_coherent_ground_amplitude():
    psi = fock.coherent_state(1.0, 30)
    # <0|gamma> = e^{-|gamma|^2/2}
    np.testing.assert_allclose(psi[0], np.exp(-0.5), rtol=RTOL)


def test_coherent_mean_field():
    # oracle: direct expectation from the coefficient formula
    gamma = 1.1j
    c = fock.coherent_state(gamma, 40)
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
    assert 1.0 - np.linalg.norm(psi) ** 2 <= fock.TAIL_TOLERANCE


@pytest.mark.parametrize("modulus", [0.5, 5.0, 20.0, 30.0])
def test_coherent_min_dim_matches_poisson_tail(modulus):
    # dim levels keep photon numbers 0 .. dim - 1, so the smallest adequate
    # dim is the first whose Poisson tail P(N >= dim) is within the
    # tolerance; |gamma| = 20 and 30 need more levels than the budget allows
    dims = np.arange(1, fock.MAX_DIM + 1)
    adequate = dims[poisson.sf(dims - 1, modulus**2) <= fock.TAIL_TOLERANCE]
    with pytest.raises(TruncationError) as err:
        fock.coherent_state(modulus * np.exp(0.3j), 1)
    assert err.value.suggested_dim == (int(adequate[0]) if adequate.size else None)


def test_truncation_error_says_when_no_dim_fits():
    with pytest.raises(TruncationError) as err:
        fock.scs_state(20.0, 40)
    assert err.value.suggested_dim is None
    assert "no dim up to 401, the largest the memory budget allows, holds it" in str(err.value)


@pytest.mark.parametrize("prepare", [
    partial(fock.scs_state, 1e200, 40), partial(fock.scs_state, -1e200j, 40),
    partial(fock.coherent_state, 1e160, 10), partial(fock.coherent_state, 1e300 + 1e300j, 10),
], ids=["scs-even-1e200", "scs-even-1e200j", "coherent-1e160", "coherent-1e300-1e300j"])
def test_huge_amplitudes_fit_no_dim(prepare):
    # |gamma|^2 overflows a float here; the state is still refused as too large
    with pytest.raises(TruncationError, match="no dim up to 401, the largest the memory budget allows, holds it"):
        prepare()


_MODULUS, _PHASE = st.floats(0.01, 17.0), st.floats(0.0, 2.0 * np.pi)
PREPARERS = st.one_of(
    st.builds(lambda r, a: partial(fock.coherent_state, r * np.exp(1j * a)), _MODULUS, _PHASE),
    st.builds(lambda r, a: partial(fock.scs_state, r * np.exp(1j * a)), _MODULUS, _PHASE),
    st.builds(lambda n, s: partial(fock.squeezed_number_state, n, s), st.integers(0, 1), st.floats(-1.9, 1.9)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(prepare=PREPARERS)
def test_truncation_hint_is_the_smallest_adequate_dim(prepare):
    try:
        prepare(1)
        return  # adequate at the smallest dim
    except TruncationError as err:
        need = err.suggested_dim
    if need is None:
        with pytest.raises(TruncationError):
            prepare(fock.MAX_DIM)
        return
    prepare(need)
    with pytest.raises(TruncationError) as err:
        prepare(need - 1)
    assert err.value.suggested_dim == need


@pytest.mark.parametrize("n, s, dim", [(0, 1.5, 40), (1, 1.2, 60), (1, -1.0, 40)])
def test_squeezed_truncation_error_names_smallest_adequate_dim(n, s, dim):
    with pytest.raises(TruncationError) as err:
        fock.squeezed_number_state(n, s, dim)
    need = err.value.suggested_dim
    assert f"use dim >= {need}" in str(err.value)
    assert 1.0 - np.linalg.norm(fock.squeezed_number_state(n, s, need)) ** 2 <= fock.TAIL_TOLERANCE
    with pytest.raises(TruncationError):
        fock.squeezed_number_state(n, s, need - 1)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("s", [-1000.0, 1000.0])
def test_squeezing_above_the_limit_is_refused_before_any_arithmetic(n, s):
    # cosh(1000) overflows; pyproject turns any RuntimeWarning into an error
    limit = re.escape(gaussian.SQUEEZING)
    with pytest.raises(ValueError, match=rf"^s: {re.escape(repr(s))} is outside {limit}$"):
        fock.squeezed_number_state(n, s, 10)
    # at the limit itself the state is built, and only its truncation fails
    with pytest.raises(TruncationError, match="no dim up to 401,"):
        fock.squeezed_number_state(n, np.sign(s) * gaussian.MAX_SQUEEZING, 40)


def test_squeezed_truncation_error_says_when_no_dim_fits():
    # S(s)|0> fits in the largest dim only below |s| ~ 1.94
    with pytest.raises(TruncationError, match=f"no dim up to {fock.MAX_DIM},") as err:
        fock.squeezed_number_state(0, 4.0, 40)
    assert err.value.suggested_dim is None


# ---------------------------------------------------------------------------
# Squeezed vacuum
# ---------------------------------------------------------------------------


def test_squeezed_vacuum_identity():
    np.testing.assert_allclose(
        fock.squeezed_number_state(0, 0.0, 20), fock.fock_state(0, 20)
    )


def test_squeezed_vacuum_ground_amplitude():
    # oracle: |<0|S(s)|0>| = sech(s)^{1/2}
    psi = fock.squeezed_number_state(0, 0.5, 40)
    np.testing.assert_allclose(abs(psi[0]), np.cosh(0.5) ** -0.5, rtol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(dim=st.integers(2, 80), seed=st.integers(0, 2**32 - 1), decay=st.floats(0.0, 0.5))
def test_quadrature_moments_match_operator_matrices(dim, seed, decay):
    # oracle: traces against the dim x dim x and p matrices of the truncated a
    rng = np.random.default_rng(seed)
    amps = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * np.exp(-decay * np.arange(dim))
    mean, cov = fock.quadrature_moments(amps)
    want_mean, want_cov = oracle.quadrature_moments(np.outer(amps, amps.conj()))
    scale = max(1.0, *(np.diag(want_cov) + want_mean**2))  # the larger second moment
    np.testing.assert_allclose(mean, want_mean, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-13 * scale)


def test_squeezed_vacuum_quadrature_variances():
    # s > 0 squeezes the phase quadrature: V- = e^{-2s}/4, V+ = e^{+2s}/4.
    # At s = 0.52 the squeezed level is -4.5 dB relative to SNL.
    s = 0.52
    psi = fock.squeezed_number_state(0, s, 60)
    _, cov = fock.quadrature_moments(psi)
    np.testing.assert_allclose(cov[1, 1], 0.25 * np.exp(-2 * s), atol=1e-10)
    np.testing.assert_allclose(cov[0, 0], 0.25 * np.exp(2 * s), atol=1e-10)
    level_db = 10 * np.log10(cov[1, 1] / 0.25)
    assert abs(level_db - (-4.5)) < 0.2


def test_squeezed_vacuum_parity():
    psi = fock.squeezed_number_state(0, 0.7, 40)
    assert np.all(psi[1::2] == 0.0)


def test_squeezed_vacuum_matches_operator_route():
    series = fock.squeezed_number_state(0, 0.6, 40)
    applied = oracle.apply_squeeze(fock.fock_state(0, 40), 0.6)
    np.testing.assert_allclose(series, applied, atol=1e-10)


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
    np.testing.assert_allclose(displaced, direct, atol=1e-8)


def test_zero_squeeze_is_identity():
    psi = fock.coherent_state(0.5 + 0.2j, 30)
    out = oracle.displaced_squeezed_vacuum(0.5 + 0.2j, 0.0, 30)
    np.testing.assert_allclose(out, psi, atol=1e-12)
    for n in (0, 1):
        out = fock.squeezed_number_state(n, 0.0, 30)
        np.testing.assert_allclose(out, fock.fock_state(n, 30), atol=1e-12)


def test_squeezed_photon_origin_parity():
    # squeezing preserves photon-number parity, so W(0) = -2/pi for S(s)|1>
    psi = fock.squeezed_number_state(1, 0.67, 40)
    probs = np.abs(psi) ** 2
    parity = np.sum(probs * (-1.0) ** np.arange(40))
    w_origin = (2 / np.pi) * parity
    np.testing.assert_allclose(w_origin, -2 / np.pi, atol=1e-9)


def test_apply_squeeze_truncation_guard():
    with pytest.raises(TruncationError):
        fock.squeezed_number_state(1, 1.5, 8)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("s", [-0.9, -0.3, 0.4, 0.9])
def test_squeezed_number_state_matches_oracle(n, s):
    dim = 80
    got = fock.squeezed_number_state(n, s, dim)
    ref = oracle.apply_squeeze(fock.fock_state(n, dim + ORACLE_LEVELS), s)
    np.testing.assert_allclose(got, ref[:dim], rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.7 - 0.4j, 1.5j, -1.5, 1.06 + 1.06j])
@pytest.mark.parametrize("s", [-0.6, 0.0, 0.7])
def test_displaced_squeezed_vacuum_matches_oracle(beta, s):
    dim = 60
    got = oracle.displaced_squeezed_vacuum(beta, s, dim)
    vac = fock.fock_state(0, dim + ORACLE_LEVELS)
    ref = oracle.apply_displace(oracle.apply_squeeze(vac, s), beta)
    np.testing.assert_allclose(got, ref[:dim], rtol=0, atol=1e-12)


def test_squeezed_number_state_tail_guard_is_exact():
    # S(s)|1> at dim 40 keeps 1 - 5.3e-8 of its norm at s = 0.75 and
    # 1 - 7.4e-9 at s = 0.7; the guard raises on the first only
    for s, raises in ((0.75, True), (0.7, False)):
        ref = oracle.apply_squeeze(fock.fock_state(1, 40 + ORACLE_LEVELS), s)
        true_tail = 1.0 - np.sum(np.abs(ref[:40]) ** 2)
        assert (true_tail > fock.TAIL_TOLERANCE) == raises, true_tail
        if raises:
            with pytest.raises(TruncationError, match="dim=40"):
                fock.squeezed_number_state(1, s, 40)
        else:
            tail = 1.0 - np.linalg.norm(fock.squeezed_number_state(1, s, 40)) ** 2
            np.testing.assert_allclose(tail, true_tail, atol=1e-14)


@pytest.mark.parametrize("s", [-1.2, -0.7, 0.3, 1.2])
def test_squeezed_photon_is_the_closed_form_product(s):
    # S(s)|1> = sech(s)^{3/2} sum_k tanh(s)^k sqrt((2k+1)!)/(2^k k!) |2k+1>, each
    # factorial ratio exact in integers, and the expm route; 110 levels hold S(1.2)|1>
    dim = 110
    ratios = [math.factorial(2 * k + 1) / (4**k * math.factorial(k) ** 2) for k in range(dim // 2)]
    terms = np.sqrt(ratios) * np.tanh(s) ** np.arange(dim // 2)
    got = fock.squeezed_number_state(1, s, dim)
    assert np.all(got[::2] == 0.0)
    np.testing.assert_allclose(got[1::2], np.cosh(s) ** -1.5 * terms, rtol=1e-14, atol=0)
    ref = oracle.apply_squeeze(fock.fock_state(1, dim + ORACLE_LEVELS), s)
    np.testing.assert_allclose(got, ref[:dim], rtol=0, atol=1e-13)


def test_displaced_squeezed_vacuum_tail_guard():
    with pytest.raises(TruncationError):
        oracle.displaced_squeezed_vacuum(2.0 + 1.0j, 0.5, 12)


# ---------------------------------------------------------------------------
# Superpositions of coherent states
# ---------------------------------------------------------------------------


def test_scs_degenerate_even_limit():
    psi = fock.scs_state(0.0, 12)
    np.testing.assert_allclose(psi, fock.fock_state(0, 12))


def test_scs_even_parity():
    psi = fock.scs_state(1.1j, 40)
    assert psi[1] == 0.0
    assert np.all(psi[1::2] == 0.0)


def test_scs_normalization_constant():
    # oracle: <g|-g> = e^{-2|g|^2}, so N = [2(1 + e^{-2|g|^2})]^{-1/2}
    gamma = 1.1j
    n_const = (2.0 * (1.0 + np.exp(-2 * abs(gamma) ** 2))) ** -0.5
    psi = fock.scs_state(gamma, 40)
    plus = fock.coherent_state(gamma, 40)
    minus = fock.coherent_state(-gamma, 40)
    np.testing.assert_allclose(psi, n_const * (plus + minus), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "prepare, message",
    [
        (lambda: fock.squeezed_number_state(0, np.nan, 20), "^s: expected a finite number, got nan$"),
        (lambda: fock.squeezed_number_state(1, np.nan, 20), "^s: expected a finite number, got nan$"),
        (lambda: oracle.displaced_squeezed_vacuum(0.5, np.nan, 20), r"S\(s=nan\)\|0> has squared norm nan at dim=20"),
        (lambda: fock.coherent_state(complex(np.nan, 0.0), 20), r"^gamma: expected .*, got \(nan\+0j\)$"),
        (lambda: fock.scs_state(complex(0.0, np.nan), 20), r"^gamma: expected .*, got nanj$"),
    ],
    ids=["squeezed_vacuum", "squeezed_number_state", "displaced_squeezed_vacuum", "coherent_state", "scs_state"],
)
def test_preparers_reject_nan_parameters(prepare, message):
    with pytest.raises(ValueError, match=message):
        prepare()


# ---------------------------------------------------------------------------
# Beam splitter
# ---------------------------------------------------------------------------


def test_beam_splitter_zero_reflectivity_is_identity():
    psi_in = fock.coherent_state(0.4 + 0.1j, 24)
    psi_anc = fock.squeezed_number_state(0, 0.4, 24)
    np.testing.assert_array_equal(fock.interfere(psi_in, psi_anc, 0.0), np.outer(psi_in, psi_anc))


@pytest.mark.parametrize("reflectivity", [0.5, 0.75])
def test_single_photon_reflection_probability(reflectivity):
    # |1, 0> goes to the transmitted |1, 0> and the reflected |0, 1>
    joint = fock.interfere(fock.fock_state(1, 8), fock.fock_state(0, 8), reflectivity)
    np.testing.assert_allclose(joint[[0, 1], [1, 0]] ** 2, [reflectivity, 1 - reflectivity], atol=1e-12)


@pytest.mark.parametrize("reflectivity", [0.0, 0.25, 0.5, 0.75, 0.98, 1.0])
def test_beam_splitter_preserves_trace(reflectivity):
    psi_in = fock.fock_state(1, 24)
    psi_anc = fock.squeezed_number_state(0, 0.5, 24)
    joint = fock.interfere(psi_in, psi_anc, reflectivity)
    want = np.linalg.norm(psi_in) ** 2 * np.linalg.norm(psi_anc) ** 2
    np.testing.assert_allclose(np.linalg.norm(joint) ** 2, want, atol=1e-9)


def test_beam_splitter_full_reflection_swaps_contents():
    psi_in = fock.coherent_state(0.7, 24)
    psi_anc = fock.squeezed_number_state(0, 0.3, 24)
    joint = np.abs(fock.interfere(psi_in, psi_anc, 1.0)) ** 2
    # photon-number distributions swap (phases may flip sign)
    np.testing.assert_allclose(joint.sum(axis=0), np.abs(psi_in) ** 2, atol=1e-10)
    np.testing.assert_allclose(joint.sum(axis=1), np.abs(psi_anc) ** 2, atol=1e-10)


def test_beam_splitter_rejects_bad_reflectivity():
    psi = fock.fock_state(0, 4)
    with pytest.raises(ValueError):
        fock.interfere(psi, psi, 1.5)


@pytest.mark.parametrize("reflectivity", [0.3, 0.75])
@pytest.mark.parametrize("state", [
    (fock.fock_state, 1), (fock.fock_state, 2), (fock.coherent_state, 0.5 + 0.2j),
], ids=["fock1", "fock2", "coherent"])
def test_interfere_matches_position_space_reference(state, reflectivity):
    # the amplitudes of the rotated product wavefunction, exact on the blocks
    # i + m < dim; the corner that truncates the inputs differs by about 1e-6
    dim, (prep, *args) = 24, state
    anc = oracle.wavefunction(fock.squeezed_number_state, 0, 0.4)
    ref = oracle.joint_wavefunction(oracle.wavefunction(prep, *args), anc, reflectivity)
    joint = fock.interfere(prep(*args, dim), fock.squeezed_number_state(0, 0.4, dim), reflectivity)
    low = np.add.outer(np.arange(dim), np.arange(dim)) < dim - 4
    np.testing.assert_allclose(joint[low], oracle.number_amplitudes(ref, dim)[low], rtol=0, atol=1e-13)


def test_operations_do_not_mutate_inputs():
    psi_in = fock.fock_state(1, 20)
    psi_anc = fock.squeezed_number_state(0, 0.4, 20)
    before_in = psi_in.copy()
    before_anc = psi_anc.copy()
    joint = fock.interfere(psi_in, psi_anc, 0.6)
    np.testing.assert_array_equal(psi_in, before_in)
    np.testing.assert_array_equal(psi_anc, before_anc)
    with pytest.raises(ValueError):
        psi_in[0] = 2.0  # states are read-only arrays
    with pytest.raises(ValueError):
        joint[0, 0] = 2.0
    with pytest.raises(ValueError):
        fock.beam_splitter_unitary(20).vectors[5][0, 0] = 2.0


@pytest.mark.parametrize("reflectivity", [0.0, 0.3, 0.75, 1.0])
def test_unitary_blocks_match_dense_generator(reflectivity):
    # independent route: the full two-mode generator's exponential applied to
    # a product of random amplitudes on every level, truncated blocks included
    rng = np.random.default_rng(24)
    psi_in, psi_anc = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
    psi_in, psi_anc = psi_in / np.linalg.norm(psi_in), psi_anc / np.linalg.norm(psi_anc)
    np.testing.assert_allclose(
        fock.interfere(psi_in, psi_anc, reflectivity),
        oracle.generator_joint(psi_in, psi_anc, reflectivity),
        rtol=0, atol=1e-12,
    )


def test_unitary_blocks_are_unitary_and_cached():
    basis = fock.beam_splitter_unitary(30)
    assert fock.beam_splitter_unitary(30) is basis
    assert basis.vectors.shape == (30, 30, 30)
    for vectors in basis.vectors:
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(30), atol=1e-12)
    # with orthogonal blocks and phases of modulus 1, a permutation makes the
    # operator unitary, truncated blocks (N >= dim) included
    np.testing.assert_array_equal(np.sort(basis.gather), np.arange(30 * 30))


@pytest.mark.parametrize("dim", [40, 80, 120])
def test_eigenbasis_diagonalizes_each_wrapped_diagonal(dim):
    # row n holds blocks n (i <= n) and n + dim (i > n): T[i-1, i] =
    # sqrt(i (N - i + 1)) within a block, and no coupling at i = n + 1
    basis = fock.beam_splitter_unitary(dim)
    i = np.arange(1, dim)
    for n, (vectors, eigenvalues) in enumerate(zip(basis.vectors, basis.eigenvalues)):
        total = np.where(i <= n, n, n + dim)
        coupling = np.where(i == n + 1, 0.0, np.sqrt(i * (total - i + 1.0)))
        generator = np.diag(coupling, 1) + np.diag(coupling, -1)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(dim), rtol=0, atol=1e-12)
        np.testing.assert_allclose((vectors * eigenvalues) @ vectors.T, generator, rtol=0, atol=1e-12 * dim)


def test_cached_eigenbasis_is_read_only():
    for arr in fock.beam_splitter_unitary(12):  # every cached array, not only the vectors
        with pytest.raises(ValueError):
            arr.flat[0] = 0


def test_interfere_is_bit_identical_from_a_cold_and_a_warm_cache():
    psi_in, psi_anc = fock.fock_state(2, 40), fock.squeezed_number_state(0, -0.37, 40)
    fock.beam_splitter_unitary.cache_clear()
    cold = fock.interfere(psi_in, psi_anc, 0.5)
    fock.interfere(fock.fock_state(1, 24), fock.squeezed_number_state(0, 0.3, 24), 0.9)
    warm = fock.interfere(psi_in, psi_anc, 0.5)
    assert cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("reflectivity", [-0.1, 1.0 + 1e-12, float("nan")])
def test_interfere_rejects_bad_reflectivity(reflectivity):
    psi = fock.fock_state(0, 8)
    with pytest.raises(ValueError):
        fock.interfere(psi, psi, reflectivity)


def test_memory_guard_names_the_budget_and_the_largest_dim():
    fits = 401
    assert fock._dim_bytes(fits) <= fock.MEMORY_BUDGET < fock._dim_bytes(fits + 1)
    with pytest.raises(ValueError, match=rf"^dim: {fits + 1} is outside \[1, {fits}\]$"):
        fock.beam_splitter_unitary(fits + 1)


@pytest.mark.parametrize("psi_in, psi_anc", [
    (fock.fock_state(1, 24), fock.squeezed_number_state(0, 0.4, 24)),
    (fock.fock_state(2, 24), fock.squeezed_number_state(0, -0.37, 24)),
    (fock.coherent_state(0.5 + 0.2j, 24), fock.squeezed_number_state(0, 0.4, 24)),
    (fock.coherent_state(0.5, 24), fock.squeezed_number_state(0, 0.4, 24)),
    (fock.fock_state(1, 24), fock.scs_state(1.1j, 24)),
], ids=["single-photon", "two-photon", "coherent", "real-coherent", "cat-ancilla"])
@pytest.mark.parametrize("reflectivity", [0.0, 0.3, 0.5, 0.98])
def test_interfere_is_real_exactly_for_real_inputs(psi_in, psi_anc, reflectivity):
    # the map is real orthogonal: inputs of real values give a float joint, even
    # when complex-typed (a coherent state of real gamma), and complex ones
    # keep their imaginary parts; both agree with the generator's exponential
    joint = fock.interfere(psi_in, psi_anc, reflectivity)
    real = not (psi_in.imag.any() or psi_anc.imag.any())
    assert joint.dtype == (np.float64 if real else np.complex128)
    assert joint.shape == (24, 24) and not joint.flags.writeable
    np.testing.assert_allclose(joint, oracle.generator_joint(psi_in, psi_anc, reflectivity), rtol=0, atol=1e-12)


def test_state_taking_functions_reject_a_2d_or_mismatched_state():
    # a pure state is a 1-D array of dim amplitudes; the error names the shape
    psi, wide = fock.fock_state(1, 12), fock.fock_state(0, 20)
    with pytest.raises(ValueError, match=r"input must be a 1-D array, got shape \(12, 12\)"):
        fock.interfere(np.outer(psi, psi), psi, 0.5)
    with pytest.raises(ValueError, match=r"ancilla must be a 1-D array of 12 amplitudes, got shape \(20,\)"):
        fock.interfere(psi, wide, 0.5)
    with pytest.raises(ValueError, match=r"ancilla must be a 1-D array of 12 amplitudes, got shape \(1, 12\)"):
        fock.interfere(psi, psi[None, :], 0.5)
    with pytest.raises(ValueError, match=r"state must be a 1-D array, got shape \(12, 12\)"):
        fock.quadrature_moments(np.outer(psi, psi))
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        fock.quadrature_moments(np.float64(1.0))
    with pytest.raises(ValueError, match=r"of 0 amplitudes, got shape \(12,\)"):
        fock.pure_dim(psi, 0)


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
        np.testing.assert_allclose(oracle.quadrature_wavefunction(n, xs), oracle.number_wavefunction(n, xs), atol=1e-10)


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


def test_wavefunctions_vanish_past_the_cap_without_overflow():
    # |x| is capped at 1e150 before it is squared; <n|x> is 0 there already
    table = fock.quadrature_wavefunctions(5, [1e150, -1e160, 1e300, 1.7e308, -np.inf])
    assert table.shape == (6, 5) and not table.any()


def test_wavefunction_rejects_negative_n():
    with pytest.raises(ValueError):
        oracle.quadrature_wavefunction(-1, 0.0)


def test_partial_traces_are_valid_densities():
    joint = fock.interfere(fock.coherent_state(0.5 + 0.2j, 20), fock.squeezed_number_state(0, 0.4, 20), 0.6)
    for red in (joint @ joint.conj().T, joint.T @ joint.conj()):  # transmitted, reflected
        # Hermitian, positive, unit trace
        np.testing.assert_allclose(red, red.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(red).min() > -1e-10
        np.testing.assert_allclose(np.trace(red).real, 1.0, atol=1e-9)
