"""Carving a cat state out of a two-photon Fock state.

With a balanced beam splitter (R = 1/2) and a mildly anti-squeezed ancilla
(s = -0.37), post-selecting the reflected amplitude quadrature near zero
turns an input |2> into a high-fidelity even superposition of coherent
states |g> + |-g> with g = 1.1i.  The interference fringes between the two
coherent lobes survive the window averaging.
"""

import numpy as np

from cvpost import (
    build_joint,
    fock_state,
    postselect_map,
    run_window,
    scs_state,
    scs_wigner,
)
from cvpost.wigner import wigner_point

R = 0.5
S_ANC = -0.37
GAMMA = 1.1j
DIM = 40

joint = build_joint(fock_state(2, DIM), R, S_ANC)
target = scs_state(GAMMA, "even", DIM)

zero = postselect_map(joint, target, [0.0])[0]
print(f"input |2>, R = {R}, s = {S_ANC}, target even cat with gamma = {GAMMA}")
print(f"fidelity to the cat at outcome x = 0: {zero.fidelity:.6f}\n")

print("  x0 (wigner units)   F_ave      P_s")
for x0 in (0.02, 0.05, 0.084, 0.15, 0.3):
    win = run_window(joint, target, x0)
    print(f"  {x0:>8.3f}          {win.avg_fidelity:.4f}   {win.success_prob:.5f}")

# Fringes along the amplitude axis: the cat's signature oscillation.
win = run_window(joint, target, 0.084)
axis = np.linspace(-2.5, 2.5, 101)
produced = wigner_point(win.avg_state, axis.astype(complex))
ideal = scs_wigner(axis, GAMMA)
print("\nWigner cut along alpha+ (alpha- = 0): produced vs ideal cat")
for k in range(0, 101, 10):
    print(f"  alpha+ = {axis[k]:+.2f}:  {produced[k]:+.4f}   {ideal[k]:+.4f}")

print(f"\ncat state normalization check: |psi| = {target.norm:.10f}")
