"""Rough-set approximation operators over general ordered topological
approximation spaces: a finite universe, a relation-generated topology and
a partial order, with the directed R / semi / pre / gamma / beta lower and
upper approximation families, their regions and accuracy measures, plus a
brute-force oracle and a mechanized law checker."""

import importlib.util as _importlib_util
import sys as _sys

from .approximations import (
    ApproxReport,
    DIRECTION_ORDER,
    Direction,
    FAMILY_ORDER,
    Gotas,
    OperatorFamily,
    accuracy,
    beta_lower,
    beta_upper,
    boundary,
    full_report,
    gamma_lower,
    gamma_upper,
    lower,
    negative,
    pre_lower,
    pre_upper,
    r_lower,
    r_upper,
    semi_lower,
    semi_upper,
    upper,
)
from .order import OrderAxiomError, PartialOrder, equality_order, validate_order
from .topology import (
    BinaryRelation,
    Topology,
    generate_topology,
    topology_from_relation,
)
from .universe import Subset, Universe, UniverseMismatchError

__version__ = "0.1.0"

# `topology` and `analyze` read nothing of `gotas.oracle`, so the module is
# registered here and compiled and run on its first attribute read (`check`,
# `oracle-diff`, `sweep`, the tests). Until then `gotas.oracle`,
# `sys.modules["gotas.oracle"]` and `cli.oracle` are already this one module
# object. Before Python 3.12 that first read is not thread-safe; no code path
# reaches `gotas.oracle` from a thread.
_spec = _importlib_util.find_spec(f"{__name__}.oracle")
_spec.loader = _importlib_util.LazyLoader(_spec.loader)
oracle = _importlib_util.module_from_spec(_spec)
_sys.modules[_spec.name] = oracle
_spec.loader.exec_module(oracle)
del _spec


def __getattr__(name: str):
    """``gotas.Batch``. The batch engine, ``gotas.batch``, is imported on first
    use: here, by ``Gotas.kernel_plan`` or by ``gotas.oracle``. These are
    plain imports, which hold the import lock, so they are thread-safe."""
    if name == "Batch":
        from .batch import Batch
        return Batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApproxReport",
    "Batch",
    "BinaryRelation",
    "DIRECTION_ORDER",
    "Direction",
    "FAMILY_ORDER",
    "Gotas",
    "OperatorFamily",
    "OrderAxiomError",
    "PartialOrder",
    "Subset",
    "Topology",
    "Universe",
    "UniverseMismatchError",
    "accuracy",
    "beta_lower",
    "beta_upper",
    "boundary",
    "equality_order",
    "full_report",
    "gamma_lower",
    "gamma_upper",
    "generate_topology",
    "lower",
    "negative",
    "pre_lower",
    "pre_upper",
    "r_lower",
    "r_upper",
    "semi_lower",
    "semi_upper",
    "topology_from_relation",
    "upper",
    "validate_order",
]
