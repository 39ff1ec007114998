"""Bernstein and modified-node (fixed e_0 and e_j) operators on [0, 1] and
the unit square, with the machinery to verify their first-order convergence
behavior numerically: residual series on doubling degree schedules, rate and
limit extrapolation, and an exact drift decomposition.
"""

from ._kernels import backend
from .akr import (
    NodeTable,
    akr_apply,
    bernstein_apply,
    build_node_table,
    fixed_point_error,
    remainder,
)
from .asymptotics import (
    SERIES_KINDS,
    ConvergenceSeries,
    Decomposition,
    ExtrapolationResult,
    classical_rhs_1d,
    classical_rhs_2d,
    decomposition,
    drift_rhs_2d,
    extrapolate,
    lemma_sum,
    residual_series,
    voronovskaja_rhs_1d,
    voronovskaja_rhs_2d,
)
from .basis import (
    Function1D,
    basis_weight,
    weight_vector,
)
from .catalog import CatalogEntry, catalog_names, lookup
from .errors import CapabilityError, DomainError, UnknownFunctionError
from .fd import finite_difference_partials
from .tensor import (
    Function2D,
    SquarePoint,
    SupBounds,
    tensor_akr_apply,
    tensor_bernstein_apply,
)

__version__ = "0.1.0"

__all__ = [
    "backend",
    "NodeTable",
    "akr_apply",
    "bernstein_apply",
    "build_node_table",
    "fixed_point_error",
    "remainder",
    "SERIES_KINDS",
    "ConvergenceSeries",
    "Decomposition",
    "ExtrapolationResult",
    "classical_rhs_1d",
    "classical_rhs_2d",
    "decomposition",
    "drift_rhs_2d",
    "extrapolate",
    "lemma_sum",
    "residual_series",
    "voronovskaja_rhs_1d",
    "voronovskaja_rhs_2d",
    "Function1D",
    "basis_weight",
    "weight_vector",
    "CatalogEntry",
    "catalog_names",
    "lookup",
    "CapabilityError",
    "DomainError",
    "UnknownFunctionError",
    "finite_difference_partials",
    "Function2D",
    "SquarePoint",
    "SupBounds",
    "tensor_akr_apply",
    "tensor_bernstein_apply",
]
