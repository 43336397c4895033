"""Information dynamics and synergy-based information modification.

Measures of distributed computation for discrete processes: active
information storage, transfer entropy in its apparent, conditional, and
complete flavors, separable information, and a partial information
decomposition over the redundancy lattice whose synergy-only mass serves as
a measure of information modification. Includes an elementary cellular
automaton laboratory and reproduction pipelines.

The names below are the ones the README's Library section uses; everything
else is reached through its submodule. Each name imports its submodule on
first use (PEP 562), so ``import synpid`` alone loads no numpy: the CLI
module can then set up the environment numpy reads when it loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ExperimentConfig": "experiments",
    "active_info_storage": "dynamics",
    "ca_distribution": "dynamics",
    "ca_distributions": "dynamics",
    "local_ais": "dynamics",
    "local_i_min": "pid",
    "local_separable": "dynamics",
    "local_te": "dynamics",
    "modified_information": "pid",
    "partial_terms": "pid",
    "run": "eca",
    "run_or_demo": "experiments",
    "run_table1": "experiments",
    "transfer_entropy": "dynamics",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
