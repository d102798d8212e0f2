#!/usr/bin/env python3
"""Freezing and steering a qubit with nothing but measurements.

Part one: frequent projections onto the initial state suppress Hamiltonian
evolution (survival -> 1 as observations become more frequent).  Part two:
projections onto a slowly rotating basis drag the state from |0> to |1>
with probability (cos^2 theta)^n, written to a CSV curve.
"""

import math
import sys

import numpy as np

from qentro.serialize import write_csv
from qentro.states import PureState
from qentro.zeno import (
    Hamiltonian,
    SteeringPlan,
    simulate_steering,
    steering_success_probability,
    steering_sweep_rows,
    zeno_survival,
)

pauli_x = Hamiltonian([[0, 1], [1, 0]])
zero = PureState.basis_state(2, 0)

print("Short-time survival and its quadratic approximation (H = X, |0>):")
print("   t      exact         1 - (dE t)^2   gap")
for t in (0.2, 0.1, 0.05, 0.025):
    exact = zeno_survival(pauli_x, t, 1, zero)
    approx = zeno_survival(pauli_x, t, 1, zero, mode="second_order")
    print(f"  {t:5.3f}  {exact:.10f}  {approx:.10f}  {exact - approx:8.1e}")
print("Each halving of t shrinks the gap ~16x: the dropped term is O(t^4).")

print()
print("Observation freezes evolution (t = 1 total, n projections onto |0>):")
for n in (1, 2, 5, 10, 100, 1000):
    exact = zeno_survival(pauli_x, 1.0, n, zero)
    approx = zeno_survival(pauli_x, 1.0, n, zero, mode="second_order")
    print(f"  n = {n:5d}: survival {exact:.6f}   linearized {approx:.6f}")
print("The linearized 1 - (dE)^2 t^2/n underestimates at small n; both")
print("agree as n grows and the state stops evolving at all.")

print()
print("Steering |0> to |1> through n bases rotated by theta = 90deg/n:")
rng = np.random.default_rng(33)
print("   n   theta     closed form   Monte Carlo (1e5 trials)   z")
for n in (2, 10, 45, 90):
    plan = SteeringPlan.from_steps(n)
    p = steering_success_probability(plan)
    result = simulate_steering(plan, 100_000, rng)
    print(
        f"  {n:3d}  {math.degrees(plan.theta_step):6.2f}deg"
        f"  {p:.6f}      {result.success_rate:.6f}               {result.z:+.2f}"
    )
print("Two 45-degree filters pass 1/4 of the photons; ninety 1-degree")
print("filters pass 97.3%: gentler steps succeed more often overall.")
print("z is each rate's distance from the closed form in standard errors.")

print()
plan = SteeringPlan.from_steps(10)
result = simulate_steering(plan, 100_000, np.random.default_rng(5))
print("Per-step survivors for n = 10 (each step keeps ~cos^2(9deg)):")
for k, alive in enumerate(result.survivors_per_step, start=1):
    print(f"  after step {k:2d}: {alive:6d} trials still on the forward ladder")
print("These per-step counts are the raw material for anyone who wants to")
print("model the drag as an effective time-dependent generator; the package")
print("emits the statistics and leaves the model fitting to the reader.")

rows = steering_sweep_rows(range(1, 101), trials=20_000, seed=99)
path = sys.argv[1] if len(sys.argv) > 1 else "steering_curve.csv"
with open(path, "w", newline="") as handle:
    write_csv(rows, handle)
print(f"\nWrote the n = 1..100 closed-form vs empirical curve to {path}")
