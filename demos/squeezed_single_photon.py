"""Squeezing a single photon by post-selection.

A single photon enters a highly reflective beam splitter (R = 0.98) whose
other port carries a squeezed vacuum with s = 0.7.  Homodyning the
reflected amplitude quadrature and keeping only outcomes near zero leaves
the transmitted mode in a squeezed single photon S(s')|1>: at the exact
zero outcome the match is perfect, and it stays excellent for small
windows at the price of throughput.
"""

import numpy as np

from cvpost import (
    build_joint,
    fock_state,
    postselect_map,
    run_window,
    s_prime,
    squeezed_number_state,
    wigner_from_density,
)

R = 0.98
S_ANC = 0.7
DIM = 60

print(f"beam splitter R = {R}, ancilla squeezing s = {S_ANC}")
print(f"output squeezing s' = {s_prime(R, S_ANC):.4f}  (-> s as R -> 1)\n")

# The joint state after the beam splitter does not depend on the window, so
# it is built once and every conditioning step below reads it.
joint = build_joint(fock_state(1, DIM), R, S_ANC)
target = squeezed_number_state(1, s_prime(R, S_ANC), DIM)

# The zero-outcome conditional state is exactly S(s')|1>.
zero = postselect_map(joint, target, [0.0])[0]
print(f"fidelity to S(s')|1> at outcome x = 0: {zero.fidelity:.12f}")

# Widening the acceptance window trades fidelity for success probability.
print("\n  x0 (wigner units)   F_ave      P_s")
for x0 in (0.005, 0.01, 0.025, 0.05, 0.1):
    win = run_window(joint, target, x0)
    print(f"  {x0:>8.3f}          {win.avg_fidelity:.4f}   {win.success_prob:.5f}")

# The window-averaged state keeps the negative Wigner dip of the photon.
win = run_window(joint, target, 0.025)
axis = np.linspace(-3, 3, 121)
grid = wigner_from_density(win.avg_state, axis, axis.copy())
origin = grid.values[60, 60]
print(f"\naverage-state Wigner at the origin: {origin:.4f}  (ideal -2/pi = {-2/np.pi:.4f})")
print("cut along the squeezed axis (alpha- at alpha+ = 0):")
for k in range(55, 66, 2):
    print(f"  alpha- = {axis[k]:+.2f}:  W = {grid.values[60, k]:+.4f}")
