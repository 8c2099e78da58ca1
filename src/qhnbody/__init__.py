"""Central configurations and collision dynamics for quasihomogeneous
n-body problems.

The potential is U = W + V with W the alpha/r^a interaction and V the
beta/r^b interaction, 0 <= a < b.  Submodules:

- model: potentials, derivatives, mass metric, Hamiltonian structure
- integrate: embedded Runge-Kutta stepper with events and dense output
- central_config: collinear and equilateral central configurations
- mcgehee: the blow-up coordinates (rho, s, v, u) near total collision
- collision_flow: the flow on the collision manifold and its equilibria
- homothetic: homothetic orbits and collision-ejection connections
"""

from .errors import (
    AdmissibilityError,
    BracketError,
    CollisionError,
    DegenerateError,
    DegenerateStateError,
    DegenerateTermError,
    EnergySignError,
    FieldError,
    ManevOnlyError,
    MismatchError,
    NoConvergenceError,
    NotOnSphereError,
    OffManifoldError,
    QHError,
    StiffnessError,
    ZeroSizeError,
)
from .model import Configuration, MassSystem, PhaseState, PotentialParams

__all__ = [
    "AdmissibilityError",
    "BracketError",
    "CollisionError",
    "Configuration",
    "DegenerateError",
    "DegenerateStateError",
    "DegenerateTermError",
    "EnergySignError",
    "FieldError",
    "ManevOnlyError",
    "MassSystem",
    "MismatchError",
    "NoConvergenceError",
    "NotOnSphereError",
    "OffManifoldError",
    "PhaseState",
    "PotentialParams",
    "QHError",
    "StiffnessError",
    "ZeroSizeError",
]

__version__ = "0.1.0"
