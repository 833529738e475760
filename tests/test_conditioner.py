import numpy as np
import pytest

import oracle
from cvpost import conditioner, fock
from cvpost.conditioner import (
    CoherentInput,
    FockInput,
    ProtocolConfig,
    ScsTarget,
    build_joint,
    density_norm,
    fidelity,
    homodyne_project,
    postselect_map,
    resolve_target,
    run_window,
    s_prime,
)
from cvpost.errors import ConvergenceError


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


def test_zero_outcome_yields_squeezed_photon(fig2_config, fig2_joint):
    state, _ = homodyne_project(fig2_joint, 0.0)
    target = fock.squeezed_number_state(
        1, s_prime(fig2_config.reflectivity, fig2_config.squeezing), 60
    )
    assert fidelity(state.normalized(), target) >= 1 - 1e-6


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


def window(config, n_nodes=65):
    """run_window on the config's own joint and target."""
    return run_window(build_joint(config), resolve_target(config), config.x0, n_nodes)


def zero_outcome(config):
    """postselect_map at x = 0 on the config's own joint and target."""
    return postselect_map(build_joint(config), resolve_target(config), [0.0])[0]


def test_window_single_photon_reference():
    config = ProtocolConfig(0.98, 0.7, 0.025, dim=60)
    win = window(config)
    assert abs(win.avg_fidelity - 0.99) < 0.005
    assert abs(win.success_prob - 0.003) / 0.003 < 0.30
    np.testing.assert_allclose(win.avg_state.trace, 1.0, atol=1e-8)


def test_window_two_photon_reference():
    config = ProtocolConfig(
        0.5, -0.37, 0.084, input_spec=FockInput(2), target_spec=ScsTarget(1.1j), dim=40
    )
    win = window(config)
    assert abs(win.avg_fidelity - 0.99) < 0.005
    assert abs(win.success_prob - 0.052) / 0.052 < 0.20


def test_window_wide_threshold_captures_everything():
    config = ProtocolConfig(0.5, 0.3, 6.0, dim=40)
    win = window(config, n_nodes=641)
    np.testing.assert_allclose(win.success_prob, 1.0, atol=1e-6)


def test_window_validation():
    config = ProtocolConfig(0.5, 0.3, 0.0, dim=20)
    with pytest.raises(ValueError):
        window(config)
    config = ProtocolConfig(0.5, 0.3, 0.1, dim=20)
    with pytest.raises(ValueError):
        window(config, n_nodes=34)  # even
    with pytest.raises(ValueError):
        window(config, n_nodes=17)  # too few


def test_window_convergence_error_carries_both_estimates():
    config = ProtocolConfig(
        0.5, -0.37, 6.0, input_spec=FockInput(2), target_spec=ScsTarget(1.1j), dim=40
    )
    with pytest.raises(ConvergenceError) as err:
        window(config, n_nodes=33)
    assert set(err.value.coarse) == {"avg_fidelity", "success_prob"}
    assert set(err.value.fine) == {"avg_fidelity", "success_prob"}


def test_window_coarse_estimate_is_the_coarse_rule():
    # the convergence check reads the coarse rule off the fine grid's even
    # nodes; it must equal that rule evaluated on its own grid
    config = ProtocolConfig(
        0.5, -0.37, 6.0, input_spec=FockInput(2), target_spec=ScsTarget(1.1j), dim=40
    )
    joint, target = build_joint(config), resolve_target(config)
    with pytest.raises(ConvergenceError) as err:
        run_window(joint, target, config.x0, n_nodes=33)
    xs = np.linspace(-config.x0, config.x0, 33)
    w = conditioner._simpson_weights(33, -config.x0, config.x0)
    p1f1 = [cond.density * cond.fidelity for cond in postselect_map(joint, target, xs)]
    ps = float(w @ conditioner.gate_density(joint, xs))
    np.testing.assert_allclose(err.value.coarse["success_prob"], ps, rtol=1e-12)
    np.testing.assert_allclose(err.value.coarse["avg_fidelity"], float(w @ p1f1) / ps, rtol=1e-12)


def test_window_average_approaches_zero_outcome_fidelity():
    # F_ave converges quadratically in x0 to the zero-outcome fidelity
    config = ProtocolConfig(0.9, 0.5, 1e-4, dim=40)
    joint, target = build_joint(config), resolve_target(config)
    win = run_window(joint, target, config.x0)
    zero = postselect_map(joint, target, [0.0])[0]
    np.testing.assert_allclose(win.avg_fidelity, zero.fidelity, atol=1e-6)


def test_window_monotone_in_threshold():
    faves, probs = [], []
    for x0 in (0.01, 0.025, 0.05, 0.1, 0.2):
        win = window(ProtocolConfig(0.98, 0.7, x0, dim=48))
        faves.append(win.avg_fidelity)
        probs.append(win.success_prob)
    assert np.all(np.diff(faves) < 0)
    assert np.all(np.diff(probs) > 0)


# ---------------------------------------------------------------------------
# Dense sweeps
# ---------------------------------------------------------------------------


def test_map_symmetric_density():
    config = ProtocolConfig(0.75, 0.4, 0.1, dim=40)
    xs = np.linspace(-1.5, 1.5, 21)
    results = postselect_map(build_joint(config), resolve_target(config), xs)
    p1 = np.array([r.density for r in results])
    np.testing.assert_allclose(p1, p1[::-1], atol=1e-9)


def test_map_single_node_matches_direct_projection(fig2_config, fig2_joint):
    result = postselect_map(fig2_joint, resolve_target(fig2_config), [0.3])[0]
    raw, density = homodyne_project(fig2_joint, 0.3)
    np.testing.assert_allclose(result.density, density, rtol=1e-12)
    np.testing.assert_allclose(result.state.matrix, raw.matrix / density, atol=1e-12)


def test_map_zero_entry_reproduces_exact_target(fig2_config, fig2_joint):
    result = postselect_map(fig2_joint, resolve_target(fig2_config), [0.0])[0]
    assert result.fidelity >= 1 - 1e-6
    np.testing.assert_allclose(result.state.trace, 1.0, atol=1e-9)


def test_map_rejects_empty_grid():
    config = ProtocolConfig(0.5, 0.3, 0.1, dim=20)
    with pytest.raises(ValueError):
        postselect_map(build_joint(config), resolve_target(config), [])


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(0.98, 0.7, 0.025, dim=60),
        ProtocolConfig(0.5, -0.37, 0.084, input_spec=FockInput(2), target_spec=ScsTarget(1.1j), dim=40),
        ProtocolConfig(0.5, 0.0, 0.1, input_spec=FockInput(0), dim=40),
        ProtocolConfig(0.75, 0.52, 0.1, input_spec=CoherentInput(0.5 + 0.3j), dim=40),
    ],
    ids=["squeezed-photon", "cat", "vacuum", "coherent"],
)
def test_outcome_density_normalizes(config):
    joint = build_joint(config)
    np.testing.assert_allclose(density_norm(joint, n_nodes=769), 1.0, atol=1e-6)


@pytest.mark.parametrize("n_in", [1, 2])
def test_parity_conservation_at_zero_outcome(n_in):
    config = ProtocolConfig(0.6, 0.5, 0.1, input_spec=FockInput(n_in), dim=40)
    state = zero_outcome(config).state
    wrong = np.arange(40) % 2 != n_in % 2
    assert np.abs(np.diag(state.matrix)[wrong]).max() < 1e-10
    assert np.abs(state.matrix[np.ix_(wrong, ~wrong)]).max() < 1e-10


def test_exactness_grid():
    # fidelity of the zero-outcome conditional to S(s')|1> across (R, s)
    dim = 60
    for r in np.linspace(0.5, 0.98, 5):
        for s in np.linspace(0.0, 0.7, 5):
            config = ProtocolConfig(r, s, 0.1, dim=dim)
            result = zero_outcome(config)
            assert result.fidelity >= 1 - 1e-6, (r, s, result.fidelity)


def test_conditioned_coherent_target_is_exact():
    # coherent input at x = 0 produces exactly the displaced squeezed state
    gamma, r, s = 0.5 + 0.3j, 0.75, 0.52
    config = ProtocolConfig(r, s, 0.1, input_spec=CoherentInput(gamma), dim=40)
    state = zero_outcome(config).state
    target = conditioner.conditioned_coherent_target(gamma, r, s, 40)
    assert fidelity(state, target) >= 1 - 1e-8


def test_conditioned_coherent_target_matches_wide_oracle():
    # the buffered expm route on 140 levels, cropped to 40; on 40 levels
    # (+20 buffer) that route is off by 3.3e-7 here
    gamma, r, s, dim = 0.18, 0.9, 0.7, 40
    sp = s_prime(r, s)
    shifted = np.sqrt(1 - r) * np.exp(2 * sp) * gamma
    ref = oracle.apply_displace(oracle.apply_squeeze(fock.fock_state(0, 140), sp), shifted)
    got = conditioner.conditioned_coherent_target(gamma, r, s, dim)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes[:dim], rtol=0, atol=1e-12)


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(reflectivity=1.3, squeezing=0.5, x0=0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(reflectivity=0.5, squeezing=0.5, x0=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(reflectivity=0.5, squeezing=0.5, x0=0.1, dim=1)


# ---------------------------------------------------------------------------
# Agreement with the dense two-mode route
# ---------------------------------------------------------------------------

AGREE_TOL = 1e-12


@pytest.mark.parametrize("reflectivity", [0.3, 0.75, 0.98])
@pytest.mark.parametrize(
    "input_spec, target_spec",
    [
        (FockInput(1), conditioner.SqueezedFockTarget()),
        (FockInput(2), ScsTarget(1.1j)),
        (CoherentInput(0.5 + 0.3j), ScsTarget(0.6 + 0.5j)),
    ],
    ids=["fock1", "fock2", "coherent"],
)
def test_pure_joint_agrees_with_dense_route(reflectivity, input_spec, target_spec):
    dim, s, x0, nodes = 24, 0.4, 0.1, 65
    config = ProtocolConfig(reflectivity, s, x0, input_spec=input_spec, target_spec=target_spec, dim=dim)
    psi_in = conditioner.prepare_input(input_spec, dim)
    dense = oracle.beam_splitter(
        psi_in.density(), fock.squeezed_vacuum(s, dim).density(), reflectivity
    )
    joint = build_joint(config)
    vec = joint.amplitudes.ravel()
    np.testing.assert_allclose(np.outer(vec, vec.conj()), dense.matrix, rtol=0, atol=AGREE_TOL)

    xs = [-0.4, 0.0, 0.13]
    target_state = resolve_target(config)
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

    win = run_window(joint, target_state, x0, n_nodes=nodes)
    fave, ps, avg = oracle.window(dense, target, x0, 2 * nodes - 1)
    np.testing.assert_allclose(win.avg_fidelity, fave, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.success_prob, ps, rtol=AGREE_TOL)
    np.testing.assert_allclose(win.avg_state.matrix, avg, rtol=0, atol=AGREE_TOL)
    for n_nodes in (193, 769):  # at dim 24, 769 nodes take two blocks in _project
        np.testing.assert_allclose(density_norm(joint, n_nodes=n_nodes),
                                   oracle.density_norm(dense, n_nodes=n_nodes), rtol=AGREE_TOL)
