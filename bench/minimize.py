"""``minimize`` workload: ``entropy.min_informational_over_unitaries`` on a
seeded stream of random density matrices, one matrix per operation.

Why: the minimizer does nearly all the work here, so a change to it (an
exact pair step, a batched search) shows on this workload and on no other.
Each cycle of 20 matrices is 35 % dim 2, 40 % dim 4, 20 % dim 8 and 5 %
dim 16, so the median operation is a dim-4 call and the p90 one a dim-8
call, both well inside their group.  Dim 16 stays in although the search
fails there: its failures count in the error rate.
"""

import numpy as np

from checks import (
    VALUE_TOL,
    STRUCT_TOL,
    Op,
    Workload,
    exception_kind,
    input_key,
    random_density,
    residual_target,
    shannon_bits,
    unitarity_dev,
)
from qentro import entropy, states

CYCLE_DIMS = (2,) * 7 + (4,) * 8 + (8,) * 4 + (16,)
POOL_CYCLES = 32

# Failure kinds present when the benchmark was introduced: the line search
# runs out of its evaluation budget at dim 16.
KNOWN_DEFECTS = frozenset({"minimize.budget_exhausted.d16"})


def _op(m: np.ndarray) -> Op:
    dim = m.shape[0]
    rho = states.DensityMatrix(m)
    s_n = shannon_bits(np.linalg.eigvalsh(m))
    target = residual_target(dim)

    def call():
        return entropy.min_informational_over_unitaries(rho)

    def check(report, exc):
        if exc is not None:
            return [exception_kind(f"minimize.d{dim}", exc)]
        bad = []
        residual = report.min_value - s_n
        if residual > target:
            what = "budget_exhausted" if report.budget_exhausted else "residual_over_target"
            bad.append(f"minimize.{what}.d{dim}")
        if residual < -VALUE_TOL:
            bad.append(f"minimize.below_von_neumann.d{dim}")
        u = np.asarray(report.minimizer)
        if u.shape != (dim, dim) or unitarity_dev(u) > STRUCT_TOL:
            bad.append(f"minimize.minimizer_not_unitary.d{dim}")
        else:
            rotated = np.diagonal(u @ m @ u.conj().T).real
            if abs(shannon_bits(rotated) - report.min_value) > VALUE_TOL:
                bad.append(f"minimize.value_mismatch.d{dim}")
        return bad

    return Op(f"d{dim}", call, check, input_key(m))


def build(seed: int, tmpdir) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(POOL_CYCLES):
        for dim in rng.permutation(CYCLE_DIMS):
            ops.append(_op(random_density(int(dim), rng)))
    warm = ops[[op.label for op in ops].index("d2")]
    return Workload(ops, len(CYCLE_DIMS), [warm.call])
