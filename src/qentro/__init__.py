"""qentro: entropy measures for quantum states and the simulations that
motivate them: basis-dependent information, measurement-driven dynamics,
interferometer inference, and a qubit signature protocol."""

from . import errors, interferometer, linalg, protocol, serialize, states, zeno
from .entropy import (
    BITS,
    NATS,
    BoundCheck,
    EntropyResult,
    UnitaryMinimizationReport,
    bekenstein_bound,
    differential_entropy,
    ensemble_bound_check,
    informational,
    min_informational_over_unitaries,
    pure_entropy,
    quantized_entropy,
    shannon,
    von_neumann,
)
from .linalg import is_unitary
from .states import (
    DensityMatrix,
    Ensemble,
    MeasurementSet,
    PureState,
    density_of_pure,
    dephase,
    evolve_unitary,
    measure_collapse,
    mix,
)

__version__ = "0.1.0"
