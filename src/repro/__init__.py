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
"""

__version__ = "1.1.0"

from repro.core import (
    Adversary,
    ExplicitAdversary,
    RefinedQuorumSystem,
    ThresholdAdversary,
)
from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Propose,
    RandomMix,
    Read,
    RunResult,
    ScenarioSpec,
    SweepResult,
    SweepSpec,
    Write,
    available_protocols,
    labeled,
    register_protocol,
    run,
    run_grid,
    write_bench_json,
)

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
