"""Fourier/finite-element solver for static Maxwell div-curl problems on
axisymmetric domains with reentrant edges.

The 3D problem on the revolved domain is reduced to a family of 2D problems
on the meridian half-plane, one per azimuthal mode k.  Each mode is solved
with P1 elements in the r-weighted L2 setting; on domains with a reentrant
edge the trial space is augmented by an explicitly computed singular
complement field per mode.
"""

from .mesh import (
    AXIS,
    WALL,
    ConicalDescriptor,
    CornerDescriptor,
    TriangleMesh,
    classify_boundary,
    gen_lshape,
    gen_rectangle,
    load_mesh,
    save_mesh,
)
from .special import find_beta, find_nu, legendre_p
from .femcore import ModeField, ConstraintSet, build_constraints, interpolate, lift_boundary
from .singular import PrincipalPart, SingularBasis, compute_basis
from .solver import FourierSolution, solve_axisymmetric

__all__ = [
    "AXIS",
    "WALL",
    "TriangleMesh",
    "CornerDescriptor",
    "ConicalDescriptor",
    "gen_rectangle",
    "gen_lshape",
    "load_mesh",
    "save_mesh",
    "classify_boundary",
    "legendre_p",
    "find_beta",
    "find_nu",
    "ModeField",
    "ConstraintSet",
    "build_constraints",
    "interpolate",
    "lift_boundary",
    "PrincipalPart",
    "SingularBasis",
    "compute_basis",
    "FourierSolution",
    "solve_axisymmetric",
]
