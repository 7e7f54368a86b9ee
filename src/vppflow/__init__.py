"""Incompressible flow solver with penalty-projection stepping and an
immersed moving obstacle, plus the verification machinery around it."""

import os

# no solve calls BLAS, and OpenBLAS's helper thread only costs start-up time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grid import Grid, PressureField, VelocityField
from .linalg import NonConvergence
from .obstacle import Obstacle
from .scheme import FlowState, RunResult, SchemeParams, SolverFailure, run, step

__all__ = [
    "Grid",
    "VelocityField",
    "PressureField",
    "Obstacle",
    "SchemeParams",
    "FlowState",
    "RunResult",
    "NonConvergence",
    "SolverFailure",
    "run",
    "step",
]

__version__ = "0.1.0"
