"""Gaussian-model simulator for two-pulse QND probing of a collective spin.

The namespace is lazy (PEP 562): each public name, and each of the four
modules below, is imported on first access, so ``import qndsim`` and
:mod:`qndsim.physics` load no NumPy; :mod:`qndsim.gaussian_core`,
:mod:`qndsim.montecarlo` and :mod:`qndsim.stats` load it when first used.
"""

import importlib

__version__ = "0.1.0"

_HOME = {  # each public name and its home module
    "ATOM": "gaussian_core",
    "AtomicParams": "physics",
    "ConditionalResult": "stats",
    "DerivedCoupling": "physics",
    "GaussianState": "gaussian_core",
    "InsufficientDataError": "stats",
    "ModeLabel": "gaussian_core",
    "ParameterSheet": "physics",
    "PulseParams": "physics",
    "RunResult": "montecarlo",
    "SequenceConfig": "montecarlo",
    "SingularConditioningError": "gaussian_core",
    "SymplecticMap": "gaussian_core",
    "VarianceSummary": "stats",
    "apply_loss": "gaussian_core",
    "apply_map": "gaussian_core",
    "binned_conditional": "stats",
    "bootstrap_ci": "stats",
    "coherent_init": "gaussian_core",
    "condition_on": "gaussian_core",
    "coupling_strength": "physics",
    "derive_coupling": "physics",
    "faraday_angle": "physics",
    "kappa_from_angle": "physics",
    "load_sheet": "physics",
    "loss_parameter": "physics",
    "marginal": "gaussian_core",
    "predict": "montecarlo",
    "pulse": "gaussian_core",
    "qnd_map": "gaussian_core",
    "run_group": "montecarlo",
    "run_sequence": "montecarlo",
    "squeezing_db": "stats",
    "variances": "stats",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME.values():  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME.values(), *__all__})
