#!/usr/bin/env python3
"""Minimize the basis-dependent entropy over unitary rotations and verify
that the floor it finds is exactly the von Neumann entropy.

The receiver can lower the entropy they experience by rotating their
measurement basis; the best possible choice diagonalizes the state, at
which point the accessible entropy equals the eigenvalue entropy.  The
optimizer never sees the eigendecomposition (it applies exact pair
rotations, cyclic Jacobi sweeps that each zero one off-diagonal entry, in
round-robin rounds of disjoint pairs from dimension 8 on, where all-pairs
Newton steps finish the search once the rotated state is nearly diagonal),
so the match is a genuine two-route check.  The last column counts the
Newton steps kept; below dimension 8 it is always 0.
"""

import numpy as np

from qentro import informational, min_informational_over_unitaries, von_neumann
from qentro.linalg import is_unitary
from qentro.states import DensityMatrix, random_density

rng = np.random.default_rng(2024)

print("dim | S_i(rho)  S_n(rho)  found min  residual   evals  newton")
print("----+----------------------------------------------------------")
for dim in (2, 3, 4, 16):
    for _ in range(3):
        rho = random_density(dim, rng)
        report = min_informational_over_unitaries(rho)
        assert is_unitary(report.minimizer, 1e-8)
        print(
            f"{dim:3d} | {informational(rho).value:8.5f}  {von_neumann(rho).value:8.5f}"
            f"  {report.min_value:8.5f}  {report.residual_vs_von_neumann:9.2e}"
            f"  {report.iterations:6d}  {report.newton_steps:6d}"
        )

print()
print("The eigenbasis achieves the same floor analytically:")
rho = random_density(3, rng)
_, v = np.linalg.eigh(rho.matrix)
u = v.conj().T
rotated = u @ rho.matrix @ u.conj().T
rotated = DensityMatrix((rotated + rotated.conj().T) / 2)
print(f"  S_i(V† rho V) = {informational(rotated).value:.12f}")
print(f"  S_n(rho)      = {von_neumann(rho).value:.12f}")

print()
print("A tiny evaluation budget degrades gracefully (best-so-far + flag):")
report = min_informational_over_unitaries(rho, budget=2)
assert report.budget_exhausted
print(
    f"  budget 2 -> min {report.min_value:.5f}, residual"
    f" {report.residual_vs_von_neumann:.2e}, exhausted={report.budget_exhausted}"
)
report = min_informational_over_unitaries(rho)
print(
    f"  full budget -> min {report.min_value:.5f}, residual"
    f" {report.residual_vs_von_neumann:.2e}, exhausted={report.budget_exhausted}"
)
