"""Alignment dynamics of weighted agent flocks with degenerate communication.

Simulates pairwise velocity-averaging systems whose communication kernel
may vanish over a range of distances or blow up at contact, on Euclidean
space or the circle, and provides the functionals (variations,
dissipations, correctors, Lyapunov combinations, collision potentials,
good sets) used to certify alignment, misalignment, and collision
behavior, plus a scenario/CLI harness with decay-rate fitting.
"""

from . import diagnostics, dynamics, geometry, harness, kernels
from .diagnostics import (
    DiagnosticsRecord,
    GoodSetReport,
    LyapunovConfig,
    LyapunovVariant,
    compute_record,
    corrector_circle,
    corrector_euclidean,
    energy_residual,
    good_set,
    lyapunov,
    lyapunov_constant_search,
    read_csv,
    write_csv,
)
from .dynamics import (
    FlockState,
    ObserverSchedule,
    StepperConfig,
    Trajectory,
    flock_diameter,
    initial_state,
    integrate,
    min_separation,
    momentum,
    rhs,
    step,
    velocity_diameter,
)
from .errors import (
    CollisionError,
    DomainMismatchError,
    InsufficientDataError,
    KernelDomainError,
    RateFitDataError,
    StiffnessError,
    UnsupportedQueryError,
)
from .geometry import (
    Domain,
    chi,
    circle,
    euclidean,
    psi_euclidean,
    psi_periodic,
)
from .harness import (
    AcceptanceLab,
    RateFit,
    RateModel,
    ScenarioConfig,
    min_distance_rate_check,
    rate_fit,
    run_acceptance,
    scenario,
    scenario_names,
    tail_integral_check,
    windowed_rate_check,
)
from .kernels import (
    KernelKind,
    KernelSpec,
    SingularityClass,
    classify,
    evaluate,
    has_fat_tail,
    tail_minorant,
)

__version__ = "0.1.0"
