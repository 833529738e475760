"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) carrying
the measured quantities; a failure raises before the line is printed.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from cvpost import conditioner, emulator, fock, gaussian
from cvpost.conditioner import build_joint, density_norm, fidelity, homodyne_project, run_window
from cvpost.gaussian import s_prime


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(n, elapsed, detail):
    print(f"criterion {n} PASS ({elapsed:.1f}s): {detail}")


def test_criterion_1_zero_outcome_exactness():
    with timer() as t:
        target = fock.squeezed_number_state(1, s_prime(0.98, 0.7), 60)
        state, _ = homodyne_project(build_joint(fock.fock_state(1, 60), 0.98, 0.7), 0.0)
        fid = fidelity(state, target)
    assert fid >= 1 - 1e-6
    assert t.elapsed < 10.0
    report(1, t.elapsed, f"zero-outcome fidelity deficit {1 - fid:.2e}")


def test_criterion_2_single_photon_window():
    with timer() as t:
        target = fock.squeezed_number_state(1, s_prime(0.98, 0.7), 60)
        win = run_window(build_joint(fock.fock_state(1, 60), 0.98, 0.7), target, 0.025)
    assert abs(win.avg_fidelity - 0.99) <= 0.005
    assert abs(win.success_prob - 0.003) / 0.003 <= 0.30
    assert t.elapsed < 60.0
    report(2, t.elapsed, f"F_ave={win.avg_fidelity:.4f}, P_s={win.success_prob:.5f}")


def test_criterion_3_two_photon_window():
    with timer() as t:
        target = fock.scs_state(1.1j, 40)
        win = run_window(build_joint(fock.fock_state(2, 40), 0.5, -0.37), target, 0.084)
    assert abs(win.avg_fidelity - 0.99) <= 0.005
    assert abs(win.success_prob - 0.052) / 0.052 <= 0.20
    assert t.elapsed < 60.0
    report(3, t.elapsed, f"F_ave={win.avg_fidelity:.4f}, P_s={win.success_prob:.5f}")


def test_criterion_4_output_squeezing_map():
    with timer() as t:
        reference = s_prime(0.98, 0.7)
        limit = s_prime(0.75, 10.0)
    assert abs(reference - 0.670) <= 1e-3
    assert abs(limit - np.log(2.0)) <= 1e-3
    report(4, t.elapsed, f"s'(0.98, 0.7)={reference:.4f}, s'(0.75, 10)={limit:.6f}")


def test_criterion_5_cross_engine_agreement():
    with timer() as t:
        gamma, r, s, x_snl = 0.5 + 0.3j, 0.75, 0.52, 0.1
        g_state = gaussian.condition_coherent(gamma, r, s, x_snl)
        joint = build_joint(fock.coherent_state(gamma, 60), r, s)
        state, _ = conditioner.homodyne_project(joint, x_snl / 2.0)
        mean_w, cov_w = fock.quadrature_moments(state)
        dmean = np.abs(2.0 * mean_w - g_state.mean).max()
        dcov = np.abs(4.0 * cov_w - g_state.cov).max()
    assert dmean < 1e-6 and dcov < 1e-6
    assert t.elapsed < 30.0
    report(5, t.elapsed, f"mean diff {dmean:.2e}, cov diff {dcov:.2e}")


def test_criterion_6_ideal_squeezer_limit():
    with timer() as t:
        gamma, r, s = 0.18 + 0.1j, 0.75, 10.0
        out = gaussian.condition_coherent(gamma, r, s, 0.0)
        # displaced-squeezed target built directly from the transform formula
        sp = s_prime(r, s)
        st = np.sqrt(1 - r)
        target = gaussian.GaussianState(
            np.array([2 * st * np.exp(2 * sp) * gamma.real, 2 * st * gamma.imag]),
            np.diag([np.exp(2 * sp), np.exp(-2 * sp)]),
        )
        fid = gaussian.gaussian_fidelity(out.mean, out.cov, target.mean, target.cov)
        inp = gaussian.coherent_gaussian(gamma)
        g_plus = out.mean[0] / inp.mean[0]
        g_minus = out.mean[1] / inp.mean[1]
    assert fid >= 0.999
    assert abs(g_plus - 2.0) <= 1e-3
    assert abs(g_minus - 0.5) <= 1e-3
    report(6, t.elapsed, f"fidelity={fid:.6f}, gains=({g_plus:.4f}, {g_minus:.4f})")


def test_criterion_7_classical_limits():
    with timer() as t:
        at_75 = gaussian.classical_limit(0.75)
        at_50 = gaussian.classical_limit(0.5)
    assert at_75 == 0.8
    assert at_50 == np.sqrt(8.0) / 3.0
    report(7, t.elapsed, f"bounds {at_75}, {at_50:.6f}")


def test_criterion_8_property_suite():
    with timer() as t:
        # outcome density integrates to one
        norm = density_norm(build_joint(fock.fock_state(1, 60), 0.98, 0.7))
        assert abs(norm - 1.0) <= 1e-6

        # parity conservation at the zero outcome
        for n_in in (1, 2):
            state, _ = homodyne_project(build_joint(fock.fock_state(n_in, 40), 0.6, 0.5), 0.0)
            wrong = np.arange(40) % 2 != n_in % 2
            assert np.abs(state[wrong]).max() ** 2 < 1e-10

        # Wigner grids normalize and respect the -2/pi bound
        from cvpost import wigner

        for psi in (
            fock.fock_state(1, 40),
            fock.squeezed_number_state(0, 0.52, 40),
            fock.scs_state(1.1j, 40),
        ):
            grid = wigner.wigner_from_density(np.outer(psi, psi.conj()))
            assert abs(grid.riemann_sum() - 1.0) <= 1e-4
            assert grid.values.min() >= -2 / np.pi - 1e-9

        # conditional covariance does not depend on the outcome
        covs = [gaussian.condition_coherent(0.3, 0.75, 0.52, x).cov for x in (-1.0, 0.0, 1.0)]
        assert np.abs(covs[0] - covs[1]).max() <= 1e-12
        assert np.abs(covs[1] - covs[2]).max() <= 1e-12

        # every conditioning respects the uncertainty relation
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for r in (0.25, 0.5, 0.75, 0.98):
            for s in (-0.4, 0.0, 0.52, 1.2):
                for x in (-1.0, 0.0, 2.0):
                    out = gaussian.condition_coherent(0.4 + 0.2j, r, s, x)
                    assert np.linalg.eigvalsh(out.cov + 1j * omega).min() >= -1e-9
    report(8, t.elapsed, "density norm, parity, Wigner bounds, covariance, uncertainty")


def test_criterion_9_bench_emulation():
    with timer() as t:
        params = emulator.ExperimentParams(n_samples=4_000_000)
        stats = emulator.run_experiment(params)
        assert stats.fidelity_est > 0.8
        assert 0.85 <= stats.fidelity_est <= 0.95
        assert 0.45 <= stats.gains.g_minus <= 0.55

        purities = []
        for g_plus in (0.18, 0.5, 1.0, 1.5, 2.03):
            probe = emulator.ExperimentParams(gamma_plus=g_plus)
            # keep at least ~15k selected samples as the window moves into
            # the tail of the gate distribution at large displacements
            need = int(15_000 / emulator.predict_stats(probe).success_prob)
            sweep = emulator.run_experiment(
                emulator.ExperimentParams(gamma_plus=g_plus, n_samples=max(1_000_000, need))
            )
            purities.append(sweep.purity_norm)
            assert 0.70 <= sweep.purity_norm <= 0.90

        # the full fidelity-vs-amplitude curve is out of reach at desk scale;
        # assert the monotone fidelity-vs-threshold behavior instead
        fids, ses = [], []
        for x0 in (1.0, 0.5, 0.2, 0.1):
            run = emulator.run_experiment(
                emulator.ExperimentParams(gamma_plus=1.07, x0=x0, n_samples=1_000_000)
            )
            fids.append(run.fidelity_est)
            ses.append(run.fidelity_se)
        for tight, loose, s_t, s_l in zip(fids[1:], fids[:-1], ses[1:], ses[:-1]):
            assert tight >= loose - 3 * np.hypot(s_t, s_l)
    assert t.elapsed < 120.0
    report(
        9,
        t.elapsed,
        f"fidelity={stats.fidelity_est:.3f}+-{stats.fidelity_se:.3f}, "
        f"g-={stats.gains.g_minus:.3f}, purity range "
        f"[{min(purities):.3f}, {max(purities):.3f}]",
    )
