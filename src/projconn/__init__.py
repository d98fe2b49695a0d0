"""Exact symbolic tensor calculus for torsionfree holomorphic affine
connections: curvature, Ricci and trace curvatures, the dimension-3 Weyl
projective tensor, projective equivalence with explicit witnesses, volume
normalization, flatness classification of parametric families, and a numeric
geodesic cross-check.  All symbolic arithmetic is exact over Q(i)."""

from .rational import GaussianRational, as_gaussian
from .symbols import Symbol, SymbolTable, coordinate, function, parameter
from .poly import DiffPoly, as_poly
from .parser import parse_constant, parse_expr
from .tensor import Tensor, contract, symmetry_check, tensor_to_json
from .connection import (
    Connection,
    curvature,
    from_named_table,
    from_table,
    lie_derivative,
    ricci,
    trace_r,
    weyl3,
)
from .projective import (
    OneForm,
    divergence,
    flatness_conditions,
    inject,
    is_projectively_flat,
    projective_equiv,
    trace_free_project,
    volume_normalize,
    with_one_form,
)
from .families import (
    GroupElement,
    WeightedCoefficient,
    invariance_check,
    kuga_shimura,
    kuga_shimura_coefficients,
    torus3,
    torus_n,
    transported_values,
)

__version__ = "0.1.0"
