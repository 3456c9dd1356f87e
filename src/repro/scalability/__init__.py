"""Strong-scaling analysis: η = LB · Ser · Trf and model extrapolation.

Implements the decomposition the paper takes from Rosas et al. (the BSC/POP
efficiency metrics): load balance, serialization, and transfer efficiency,
computed from a trace plus its ideal-network replay, and a scalability-model
fit used to extrapolate measured speedups to large node counts.

The fit needs ``scipy.optimize``, which the efficiency decomposition does
not: ``fit_usl``, ``r_squared`` and ``ScalingFit`` are re-exported lazily
(PEP 562), so importing this package for ``parallel_efficiency`` loads no
scipy.
"""

from repro.scalability.efficiency import EfficiencyBreakdown, parallel_efficiency

_EXTRAPOLATE = ("ScalingFit", "fit_usl", "r_squared")


def __getattr__(name: str):
    if name in _EXTRAPOLATE:
        from repro.scalability import extrapolate

        return getattr(extrapolate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EfficiencyBreakdown",
    "ScalingFit",
    "fit_usl",
    "parallel_efficiency",
    "r_squared",
]
