#!/usr/bin/env python3
"""The receiver's game and the signature scheme built on top of it.

A source emits copies of cos(theta)|0> + sin(theta)|1> for a hidden theta.
Each measurement returns one bit, but unlimited copies let the receiver
estimate theta to any precision, here by grid search and by adaptive
bisection.  The same asymmetry backs a signature: whoever knows the angles
verifies perfectly, while a forger guessing bit projections passes with
probability 2^-n.
"""

import math

import numpy as np

from qentro.protocol import (
    GUESS_ANGLES,
    GUESS_BITS,
    REPLAY,
    HiddenQubitSource,
    QuantizationGrid,
    SignatureKey,
    estimate_theta_adaptive,
    estimate_theta_bruteforce,
    eve_attack_success,
    verify_signature,
)

print("--- Estimating a hidden polarization angle ---")
hidden = 0.6143
grid = QuantizationGrid(16)
source = HiddenQubitSource(hidden, seed=1)
estimate = estimate_theta_bruteforce(source, grid, shots_per_hypothesis=2000)
print(f"hidden angle:          {hidden:.4f} rad")
print(f"grid search (16 bins): {estimate.theta_hat:.4f} rad"
      f"  using {estimate.copies_used} copies")

adaptive = estimate_theta_adaptive(HiddenQubitSource(hidden, seed=2),
                                   target_halfwidth=math.pi / 512,
                                   confidence_shots=400)
print(f"adaptive bisection:    {adaptive.theta_hat:.4f} rad"
      f"  +- {adaptive.halfwidth:.5f}, using {adaptive.copies_used} copies"
      f" in {adaptive.rounds} rounds")
print("Each copy yields one bit, yet precision keeps improving with more")
print("copies: the angle itself is a continuous secret.")

print()
print("--- Copies vs precision (adaptive) ---")
for target_exp in (4, 6, 8, 10):
    target = math.pi / 2 ** target_exp
    est = estimate_theta_adaptive(HiddenQubitSource(hidden, seed=3), target, 400)
    print(f"  halfwidth pi/2^{target_exp:<2d} -> {est.copies_used:6d} copies,"
          f" error {abs(est.theta_hat - hidden):.5f}")

print()
print("--- Signature verification ---")
rng = np.random.default_rng(7)
key = SignatureKey(rng.uniform(0, math.pi / 2, size=10))
verifier = np.random.default_rng(8)
accepted = sum(verify_signature(key, key.angles, verifier) for _ in range(1000))
print(f"honest signer accepted {accepted}/1000 times (aligned bases always read 0)")

print()
print("--- Forgery attempts against an all-45-degree key ---")
trials = 200_000
print("  n   strategy       empirical rate   reference")
for n in (4, 8, 12):
    key45 = SignatureKey.uniform(n)
    result = eve_attack_success(key45, GUESS_BITS, trials, np.random.default_rng(100 + n))
    print(f" {n:3d}  guess-bits     {result.success_rate:.6f}       2^-{n} = {2.0 ** -n:.6f}")
for n, strategy in ((8, GUESS_ANGLES), (8, REPLAY)):
    key45 = SignatureKey.uniform(n)
    result = eve_attack_success(key45, strategy, trials, np.random.default_rng(200 + n))
    print(f" {n:3d}  {strategy:<13} {result.success_rate:.6f}")
print("Guessing angles beats guessing bits (cos^2 is forgiving near the")
print("key) but stays exponentially small.")

print()
print("--- Why the key angles must not sit on the measurement basis ---")
aligned_key = SignatureKey(np.zeros(8))
replayed = eve_attack_success(aligned_key, REPLAY, 10_000, np.random.default_rng(13))
print(f"intercept-resend vs all-zero key: success rate {replayed.success_rate:.3f}")
print("A basis-aligned key leaks its bits to a single interception; angles")
print("strictly between the basis states keep every projection random.")

print()
print("--- A lucky forgery does not stay lucky ---")
n = 8
key45 = SignatureKey.uniform(n)
rng = np.random.default_rng(21)
stream = None
for _ in range(100_000):
    candidate = rng.integers(0, 2, size=n) * (math.pi / 2)
    if verify_signature(key45, candidate, rng):
        stream = candidate
        break
assert stream is not None
hits = sum(verify_signature(key45, stream, rng) for _ in range(20_000))
print(f"a once-accepted bit pattern re-verifies only {hits}/20000 times"
      f" (~2^-{n} = {2.0 ** -n:.4f})")
print("Fresh photons re-randomize every projection, so past success buys")
print("nothing at future times.")
