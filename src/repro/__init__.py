"""repro — a reproduction of "Refined Quorum Systems" (Guerraoui &
Vukolić, PODC 2007).

The library provides:

* :mod:`repro.core` — refined quorum systems over general adversary
  structures (the paper's primary contribution).
* :mod:`repro.sim` — a deterministic discrete-event simulation substrate
  modelling the paper's asynchronous message-passing system.
* :mod:`repro.storage` — the optimally-resilient, best-case-optimal
  Byzantine atomic storage algorithm (Figures 5–7) plus baselines.
* :mod:`repro.consensus` — the RQS-based Byzantine consensus algorithm
  (Figures 9–15) plus baselines.
* :mod:`repro.analysis` — the register checker (atomic / regular,
  stamp-ordered), the consensus checker and latency accounting.
* :mod:`repro.scenarios` — the unified declarative scenario layer: a
  :class:`~repro.scenarios.ScenarioSpec` plus ``run(spec)`` is the
  public way to execute any protocol under any fault schedule, and a
  :class:`~repro.scenarios.SweepSpec` plus ``run_grid(sweep)`` is the
  public way to execute a whole grid of them (serial or
  multiprocessing).
* :mod:`repro.experiments` — drivers regenerating every figure and claim
  of the paper (see docs/experiments.md); each one is a sweep grid
  literal plus a reporting hook.

All executions go through :mod:`repro.scenarios`: build a spec, call
``run``, read verdicts off the :class:`~repro.scenarios.RunResult` —
and all parameter studies go through sweeps: build a grid literal, call
``run_grid``, export the :class:`~repro.scenarios.SweepResult`.

Importing a package imports none of its submodules: every public name
of ``repro``, :mod:`repro.core`, :mod:`repro.storage` and
:mod:`repro.analysis` resolves on first access (PEP 562), and a
protocol's modules load when a spec names it
(:mod:`repro.scenarios.registry`).  A process compiles the half of the
paper it runs, and only that half.
"""

__version__ = "1.1.0"

from importlib import import_module as _import_module


def _lazy(namespace: dict, exports: dict):
    """The PEP 562 ``__getattr__`` / ``__dir__`` pair of the package
    whose globals are ``namespace``: its public names resolve on first
    access.

    ``exports`` maps each name to the module that defines it; the first
    access imports that module and keeps the value on the package.  A
    submodule is an attribute once it is imported, as for any package.
    """

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(_import_module(source), name)
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), {
    "Adversary": "repro.core.adversary",
    "ExplicitAdversary": "repro.core.adversary",
    "ThresholdAdversary": "repro.core.adversary",
    "RefinedQuorumSystem": "repro.core.rqs",
    **dict.fromkeys((
        "ByzantineRole", "Crash", "FaultPlan", "Propose", "RandomMix",
        "Read", "RunResult", "ScenarioSpec", "SweepResult", "SweepSpec",
        "Write", "available_protocols", "labeled", "register_protocol",
        "run", "run_grid", "write_bench_json",
    ), "repro.scenarios"),
})

__all__ = [
    "Adversary",
    "ByzantineRole",
    "Crash",
    "ExplicitAdversary",
    "FaultPlan",
    "Propose",
    "RandomMix",
    "Read",
    "RefinedQuorumSystem",
    "RunResult",
    "ScenarioSpec",
    "SweepResult",
    "SweepSpec",
    "ThresholdAdversary",
    "Write",
    "__version__",
    "available_protocols",
    "labeled",
    "register_protocol",
    "run",
    "run_grid",
    "write_bench_json",
]
