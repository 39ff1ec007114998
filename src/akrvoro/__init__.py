"""Bernstein and modified-node (fixed e_0 and e_j) operators on [0, 1] and
the unit square, with the machinery to verify their first-order convergence
behavior numerically: residual series on doubling degree schedules, rate and
limit extrapolation, and an exact drift decomposition.
"""

from ._kernels import backend
from .akr import NodeTable, build_node_table, fixed_point_error, remainder
from .asymptotics import (
    SERIES_KINDS,
    ConvergenceSeries,
    Decomposition,
    ExtrapolationResult,
    decomposition,
    extrapolate,
    lemma_sum,
    limit,
    residual_series,
)
from .basis import (
    basis_weight,
    weight_vector,
)
from .catalog import CatalogEntry, catalog_names, lookup
from .errors import CapabilityError, DomainError, UnknownFunctionError
from .tensor import Function, SupBounds, apply

__version__ = "0.1.0"

__all__ = [
    "backend",
    "NodeTable",
    "build_node_table",
    "fixed_point_error",
    "remainder",
    "SERIES_KINDS",
    "ConvergenceSeries",
    "Decomposition",
    "ExtrapolationResult",
    "decomposition",
    "extrapolate",
    "lemma_sum",
    "limit",
    "residual_series",
    "basis_weight",
    "weight_vector",
    "CatalogEntry",
    "catalog_names",
    "lookup",
    "CapabilityError",
    "DomainError",
    "UnknownFunctionError",
    "Function",
    "SupBounds",
    "apply",
]
