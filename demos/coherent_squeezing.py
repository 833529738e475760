"""The protocol as a single-mode squeezer for unknown coherent states.

For Gaussian inputs everything is closed-form.  Conditioning on a zero
outcome maps D(g)|0> to a displaced squeezed state whose squeezing grows
with the ancilla level; in the strong-squeezing limit the device acts as
an ideal squeezer with mean gains (1/sqrt(T), sqrt(T)).  The output is
minimum-uncertainty for every ancilla level.
"""

import numpy as np

from cvpost import (
    classical_limit,
    coherent_gaussian,
    condition_coherent,
    gaussian_fidelity,
    ideal_gains,
    ideal_target,
    purity,
    s_prime,
)

R = 0.75
GAMMA = 0.18 + 0.0j

print(f"R = {R}, input coherent amplitude gamma = {GAMMA.real}")
print(f"ideal gains (g+, g-) = {ideal_gains(R)}\n")

print("  ancilla s    s'       V+_out   V-_out   det(cov)  g+")
for s in (0.0, 0.35, 0.69, 1.03, 10.0):
    out = condition_coherent(GAMMA, R, s, x=0.0)
    gp = out.mean[0] / (2 * GAMMA.real)
    label = f"{s:>5.2f}" if s < 10 else "ideal"
    print(
        f"  {label}      {s_prime(R, s):.4f}   {out.cov[0, 0]:.4f}   "
        f"{out.cov[1, 1]:.4f}   {np.linalg.det(out.cov):.4f}    {gp:.4f}"
    )

# Fidelity against the ideal squeezer transform of the same input: with a
# realistic ancilla the device already beats the no-entanglement bound.
print(f"\nfidelity to the ideal squeezed input (target of the bench run):")
inp = coherent_gaussian(GAMMA)
target = ideal_target(inp, R)
for s in (0.0, 0.35, 0.52, 0.69, 1.03, 2.0):
    out = condition_coherent(GAMMA, R, s, x=0.0)
    fid = gaussian_fidelity(out.mean, out.cov, target.mean, target.cov)
    print(f"  s = {s:>4.2f}:  F = {fid:.4f}   (purity {purity(out.cov):.4f})")
print(f"\nclassical fidelity bound at R = {R}: {classical_limit(R)}")
print(f"classical fidelity bound at R = 0.5:  {classical_limit(0.5):.6f}")
