#!/usr/bin/env python3
"""Single-photon interferometer with a possibly-springy mirror: click
statistics, arrangement entropies, and what one click tells you.

A D2 click can only happen when the lower arm is blocked by the springy
mirror, so observing D2 identifies the springy arrangement with certainty
even though that photon never touched the mirror.
"""

import numpy as np

from qentro.interferometer import (
    ABSORBED,
    D1,
    D2,
    RIGID,
    SPRINGY,
    UNKNOWN,
    MirrorModel,
    arrangement_entropy,
    mirror_position_uncertainty,
    outcome_distribution,
    posterior_springy,
    simulate_latent_mirror,
    simulate_photons,
)

rng = np.random.default_rng(11)

print("arrangement   p(absorbed)  p(D1)   p(D2)   entropy [bits]")
print("-" * 60)
for mirror in (MirrorModel(RIGID), MirrorModel(SPRINGY), MirrorModel(UNKNOWN, 0.5)):
    dist = outcome_distribution(mirror)
    label = mirror.kind if mirror.prior_springy is None else f"{mirror.kind}(q=0.5)"
    print(
        f"{label:<13} {dist[ABSORBED]:^11.3f}  {dist[D1]:<6.3f}  {dist[D2]:<6.3f}"
        f"  {arrangement_entropy(mirror).value:.3f}"
    )

print()
print("Bayes update after one photon, starting from an even prior:")
for outcome in (D2, D1, ABSORBED):
    post = posterior_springy(0.5, outcome)
    print(f"  observe {outcome:<9} -> p(springy) = {post:.3f}")
print("A D2 click (or an absorption) settles the question in one photon;")
print("a D1 click actually *lowers* the odds to 1/5.")

print()
photons = 100_000
print(f"Monte Carlo with {photons} photons per arrangement (seeded):")
for mirror in (MirrorModel(SPRINGY), MirrorModel(UNKNOWN, 0.5)):
    counts = simulate_photons(mirror, photons, rng)
    label = mirror.kind if mirror.prior_springy is None else f"{mirror.kind}(q=0.5)"
    print(f"  {label:<13} {counts}")

print()
print("Treating the mirror itself as latent and counting who caused D1:")
counts = simulate_latent_mirror(0.5, photons, rng)
d1_s, d1_r = counts[("springy", D1)], counts[("rigid", D1)]
print(f"  D1 clicks: {d1_s} from springy worlds, {d1_r} from rigid worlds")
print(f"  empirical p(springy | D1) = {d1_s / (d1_s + d1_r):.4f}   (Bayes: 0.2)")
print(f"  rigid worlds never absorb: {counts[('rigid', ABSORBED)]} absorptions")

print()
print("Distinguishing the arrangements is itself limited by mechanics:")
for wavelength in (500e-9, 1e-6):
    dx = mirror_position_uncertainty(wavelength)
    print(f"  wavelength {wavelength:8.1e} m -> mirror position spread >= {dx:.4e} m")
