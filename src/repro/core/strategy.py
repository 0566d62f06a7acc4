"""Load-optimal access strategies over quorum families (exact LP).

The paper's concluding section names "the load and availability of RQS"
as an open direction; this module makes the *load* half computable.  An
access strategy is a probability distribution over quorums; its load is
the maximum, over nodes, of the expected per-operation work landing on
that node (Naor–Wool).  The optimal strategy minimizes that peak, and
``capacity = 1 / load`` predicts the sustainable system throughput in
operations per unit of the slowest node's work.

Everything here is **exact**: weights are :class:`fractions.Fraction`
values, distributions sum to 1 with no float error, and the optimum is
found by a small built-in two-phase simplex (Bland's rule, hence
terminating and deterministic) — no external solver, which matters both
for the no-new-dependency constraint and for byte-identical sweeps
across executor backends.

The capacity model: node ``x`` has a read capacity ``rc(x)`` and a write
capacity ``wc(x)`` (operations per time unit).  Under read fraction
``fr`` and distributions ``p_r`` over read quorums and ``p_w`` over
write quorums, the load of ``x`` is

    ``fr · Σ_{r ∋ x} p_r(r) / rc(x)  +  (1 − fr) · Σ_{w ∋ x} p_w(w) / wc(x)``

— the expected time ``x`` spends serving one system-wide operation.
:func:`optimal_strategy` solves the LP ``minimize L`` subject to every
node's load ≤ ``L`` and both distributions summing to 1.

The paper's storage protocol uses a *single* quorum family; pass the
same family as both ``read_quorums`` and ``write_quorums`` (the helper
:func:`optimal_single_load` does exactly that for unit capacities, and
is what makes :func:`repro.core.metrics.system_load` exact).
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from dataclasses import field
from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.properties import normalize_family
from repro.errors import QuorumSystemError
from repro.records import record

Subset = FrozenSet[Hashable]
Weights = Tuple[Tuple[Subset, Fraction], ...]
CapacityMap = Optional[Mapping[Hashable, Union[int, Fraction]]]

ZERO = Fraction(0)
ONE = Fraction(1)


# -- exact two-phase simplex ---------------------------------------------------

def _pivot(rows, obj, basis, pr, pc) -> None:
    """Pivot the tableau on row ``pr``, column ``pc`` (all Fractions)."""
    pivot = rows[pr][pc]
    rows[pr] = [v / pivot for v in rows[pr]]
    for i, row in enumerate(rows):
        if i != pr and row[pc]:
            factor = row[pc]
            rows[i] = [a - factor * b for a, b in zip(row, rows[pr])]
    if obj[pc]:
        factor = obj[pc]
        obj[:] = [a - factor * b for a, b in zip(obj, rows[pr])]
    basis[pr] = pc


def _optimize(rows, obj, basis, n_cols) -> None:
    """Run simplex iterations under Bland's rule until optimal.

    Entering variable: the lowest-index column with a negative reduced
    cost; leaving variable: the minimum-ratio row, ties broken by the
    lowest basic-variable index.  Bland's rule never cycles, so this
    terminates on every input.
    """
    while True:
        pc = next((j for j in range(n_cols) if obj[j] < 0), None)
        if pc is None:
            return
        candidates = [
            (rows[i][-1] / rows[i][pc], basis[i], i)
            for i in range(len(rows))
            if rows[i][pc] > 0
        ]
        if not candidates:
            raise QuorumSystemError("strategy LP is unbounded")
        _, _, pr = min(candidates)
        _pivot(rows, obj, basis, pr, pc)


def _reduced_costs(costs, rows, basis, n_cols) -> List[Fraction]:
    """The objective row ``c_j − c_B·A_j`` (rhs slot holds −objective)."""
    obj = [
        costs[j] - sum(
            (costs[basis[i]] * rows[i][j] for i in range(len(rows))), ZERO
        )
        for j in range(n_cols)
    ]
    obj.append(-sum(
        (costs[basis[i]] * rows[i][-1] for i in range(len(rows))), ZERO
    ))
    return obj


def simplex_minimize(
    costs: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
) -> Tuple[Fraction, List[Fraction]]:
    """Minimize ``costs · x`` s.t. ``a_ub x ≤ b_ub``, ``a_eq x = b_eq``,
    ``x ≥ 0`` — exact over Fractions, deterministic (Bland's rule).

    Returns ``(optimal value, x)``.  Raises
    :class:`~repro.errors.QuorumSystemError` on infeasible/unbounded
    programs (which the strategy LPs never are, but the solver is
    honest about its domain).
    """
    n = len(costs)
    rows: List[List[Fraction]] = []
    artificials: List[int] = []
    structural = n
    # Count slack columns first so indices are stable.
    n_slack = len(a_ub)
    total = structural + n_slack  # artificials appended after
    basis: List[int] = []
    pending: List[Tuple[List[Fraction], bool]] = []
    for i, (coeffs, rhs) in enumerate(zip(a_ub, b_ub)):
        row = list(coeffs) + [ZERO] * n_slack
        row[structural + i] = ONE
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            pending.append((row + [rhs], True))   # needs artificial
        else:
            pending.append((row + [rhs], False))  # slack is basic
        # mark slack index for the non-artificial case
    for coeffs, rhs in zip(a_eq, b_eq):
        row = list(coeffs) + [ZERO] * n_slack
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        pending.append((row + [rhs], True))
    for row, needs_artificial in pending:
        if needs_artificial:
            index = total + len(artificials)
            artificials.append(index)
            basis.append(index)
        else:
            # the slack column that is +1 in this row
            basis.append(next(
                j for j in range(structural, total) if row[j] == ONE
            ))
        rows.append(row)
    n_cols = total + len(artificials)
    # Widen rows with artificial columns.
    for i, row in enumerate(rows):
        extra = [ZERO] * len(artificials)
        rows[i] = row[:-1] + extra + [row[-1]]
        if basis[i] >= total:
            rows[i][basis[i]] = ONE

    if artificials:
        phase1 = [ZERO] * n_cols
        for j in artificials:
            phase1[j] = ONE
        obj = _reduced_costs(phase1, rows, basis, n_cols)
        _optimize(rows, obj, basis, n_cols)
        if -obj[-1] != 0:
            raise QuorumSystemError("strategy LP is infeasible")
        # Pivot any lingering artificial out of the basis (degenerate
        # rows) or drop the row entirely if it has no structural pivot.
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] in artificials:
                pc = next(
                    (j for j in range(total) if rows[i][j] != 0), None
                )
                if pc is None:
                    del rows[i]
                    del basis[i]
                else:
                    _pivot(rows, obj, basis, i, pc)
        # Freeze artificial columns at zero.
        for i, row in enumerate(rows):
            rows[i] = row[:total] + [row[-1]]
        n_cols = total

    full_costs = list(costs) + [ZERO] * (n_cols - n)
    obj = _reduced_costs(full_costs, rows, basis, n_cols)
    _optimize(rows, obj, basis, n_cols)
    solution = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = rows[i][-1]
    value = sum(
        (c * x for c, x in zip(costs, solution)), ZERO
    )
    return value, solution


# -- distributions and the Strategy object ------------------------------------

def _as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _capacity(caps: CapacityMap, node: Hashable) -> Fraction:
    if caps is None:
        return ONE
    value = _as_fraction(caps.get(node, 1))
    if value <= 0:
        raise QuorumSystemError(
            f"node {node!r} has non-positive capacity {value}"
        )
    return value


def uniform_distribution(quorums: Sequence) -> Weights:
    """The exact uniform distribution over a (normalized) family."""
    family = normalize_family(quorums)
    if not family:
        raise QuorumSystemError("need at least one quorum")
    weight = Fraction(1, len(family))
    return tuple((q, weight) for q in family)


def peak_load(
    read_weights: Weights,
    write_weights: Weights,
    read_fraction: Fraction,
    read_capacity: CapacityMap = None,
    write_capacity: CapacityMap = None,
) -> Fraction:
    """The exact peak per-node load induced by a pair of distributions."""
    fr = _as_fraction(read_fraction)
    per_node: Dict[Hashable, Fraction] = {}
    for quorum, weight in read_weights:
        for node in quorum:
            per_node[node] = per_node.get(node, ZERO) + (
                fr * weight / _capacity(read_capacity, node)
            )
    for quorum, weight in write_weights:
        for node in quorum:
            per_node[node] = per_node.get(node, ZERO) + (
                (ONE - fr) * weight / _capacity(write_capacity, node)
            )
    if not per_node:
        raise QuorumSystemError("strategy has no quorums")
    return max(per_node.values())


def _check_distribution(weights: Weights, label: str) -> None:
    if not weights:
        raise QuorumSystemError(f"{label} distribution is empty")
    total = ZERO
    for quorum, weight in weights:
        if not isinstance(weight, Fraction):
            raise QuorumSystemError(
                f"{label} weight for {sorted(map(repr, quorum))} is "
                f"{type(weight).__name__}, not an exact Fraction"
            )
        if weight < 0:
            raise QuorumSystemError(f"{label} weight {weight} is negative")
        total += weight
    if total != 1:
        raise QuorumSystemError(
            f"{label} distribution sums to {total}, not exactly 1"
        )


@record(frozen=True)
class Strategy:
    """A validated access strategy: exact quorum distributions.

    ``read_weights`` / ``write_weights`` map quorums to
    :class:`~fractions.Fraction` probabilities that sum to exactly 1
    (validated on construction — no float drift, ever).  ``load`` is
    the peak per-node load the strategy induces under ``read_fraction``
    and the capacities it was computed for; ``capacity = 1 / load`` is
    the predicted sustainable throughput.  The object is frozen, so it
    can ride inside a :class:`ScenarioSpec` as a field.
    """

    read_weights: Weights
    write_weights: Weights
    read_fraction: Fraction = field(default_factory=lambda: Fraction(1, 2))
    load: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(
            self, "read_weights", tuple(
                (frozenset(q), w) for q, w in self.read_weights
            )
        )
        object.__setattr__(
            self, "write_weights", tuple(
                (frozenset(q), w) for q, w in self.write_weights
            )
        )
        _check_distribution(self.read_weights, "read")
        _check_distribution(self.write_weights, "write")
        object.__setattr__(
            self, "read_fraction", _as_fraction(self.read_fraction)
        )
        if not ZERO <= self.read_fraction <= ONE:
            raise QuorumSystemError(
                f"read fraction must be in [0, 1], got {self.read_fraction}"
            )
        if self.load is not None:
            object.__setattr__(self, "load", _as_fraction(self.load))

    # -- predicted performance ----------------------------------------------

    @property
    def capacity(self) -> Optional[Fraction]:
        """Predicted throughput ``1 / load`` (None when load unknown/0)."""
        if self.load is None or self.load == 0:
            return None
        return ONE / self.load

    # -- seeded draws --------------------------------------------------------

    def _cumulative(self, weights: Weights):
        quorums = [q for q, _ in weights]
        edges: List[float] = []
        acc = ZERO
        for _, weight in weights:
            acc += weight
            edges.append(float(acc))
        return quorums, edges

    def draw_read(self, rng: random.Random) -> Subset:
        """One read quorum drawn from the read distribution."""
        quorums, edges = self._cumulative(self.read_weights)
        return quorums[min(bisect_right(edges, rng.random()),
                           len(quorums) - 1)]

    def draw_write(self, rng: random.Random) -> Subset:
        """One write quorum drawn from the write distribution."""
        quorums, edges = self._cumulative(self.write_weights)
        return quorums[min(bisect_right(edges, rng.random()),
                           len(quorums) - 1)]

# -- strategy construction -----------------------------------------------------

def uniform_strategy(
    read_quorums: Sequence,
    write_quorums: Optional[Sequence] = None,
    read_fraction: Union[Fraction, float, str] = Fraction(1, 2),
    read_capacity: CapacityMap = None,
    write_capacity: CapacityMap = None,
) -> Strategy:
    """The uniform strategy over the given families, with its exact load."""
    reads = uniform_distribution(read_quorums)
    writes = (
        reads if write_quorums is None
        else uniform_distribution(write_quorums)
    )
    fr = _as_fraction(read_fraction)
    return Strategy(
        read_weights=reads,
        write_weights=writes,
        read_fraction=fr,
        load=peak_load(reads, writes, fr, read_capacity, write_capacity),
    )


def optimal_strategy(
    read_quorums: Sequence,
    write_quorums: Optional[Sequence] = None,
    read_fraction: Union[Fraction, float, str] = Fraction(1, 2),
    read_capacity: CapacityMap = None,
    write_capacity: CapacityMap = None,
) -> Strategy:
    """The load-optimal strategy (exact LP over Fractions).

    Variables: one probability per read quorum, one per write quorum,
    plus the peak load ``L``; minimize ``L`` subject to every node's
    load ≤ ``L`` and both distributions summing to 1.  Deterministic:
    families and nodes are sorted before the LP is built, and the
    simplex pivots by Bland's rule.
    """
    reads = normalize_family(read_quorums)
    writes = (
        reads if write_quorums is None else normalize_family(write_quorums)
    )
    if not reads or not writes:
        raise QuorumSystemError("need at least one quorum per direction")
    fr = _as_fraction(read_fraction)
    if not ZERO <= fr <= ONE:
        raise QuorumSystemError(
            f"read fraction must be in [0, 1], got {fr}"
        )
    nodes = sorted(set().union(*reads, *writes), key=repr)
    n_r, n_w = len(reads), len(writes)
    n_vars = n_r + n_w + 1  # [p_r..., p_w..., L]
    load_col = n_r + n_w

    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    for node in nodes:
        row = [ZERO] * n_vars
        rc = _capacity(read_capacity, node)
        wc = _capacity(write_capacity, node)
        for j, quorum in enumerate(reads):
            if node in quorum:
                row[j] = fr / rc
        for j, quorum in enumerate(writes):
            if node in quorum:
                row[n_r + j] += (ONE - fr) / wc
        row[load_col] = -ONE
        a_ub.append(row)
        b_ub.append(ZERO)
    a_eq = [
        [ONE] * n_r + [ZERO] * n_w + [ZERO],
        [ZERO] * n_r + [ONE] * n_w + [ZERO],
    ]
    b_eq = [ONE, ONE]
    costs = [ZERO] * (n_r + n_w) + [ONE]
    value, solution = simplex_minimize(costs, a_ub, b_ub, a_eq, b_eq)
    return Strategy(
        read_weights=tuple(
            (q, solution[j]) for j, q in enumerate(reads)
        ),
        write_weights=tuple(
            (q, solution[n_r + j]) for j, q in enumerate(writes)
        ),
        read_fraction=fr,
        load=value,
    )


def optimal_single_load(
    quorums: Sequence, capacity: CapacityMap = None
) -> Fraction:
    """The exact Naor–Wool load of a single quorum family.

    One distribution over one family (the paper's storage protocol has
    no read/write split); with unit capacities this is the classical
    load, and :func:`repro.core.metrics.system_load` delegates here.
    """
    strategy = optimal_strategy(
        quorums, quorums, read_fraction=ONE,
        read_capacity=capacity, write_capacity=capacity,
    )
    return strategy.load


# -- per-client seeded selection ----------------------------------------------

def selector_seed(seed: int, pid: Hashable) -> int:
    """The dedicated strategy-RNG seed for one client.

    Strategy draws live on their own crc32-derived stream (mirroring
    :func:`repro.scenarios.workloads.client_seed`), so they consume
    **zero** draws from the workload RNGs — every pre-strategy spec
    keeps its byte-identical schedule and golden fingerprint.
    """
    return zlib.crc32(f"strategy:{seed}:{pid}".encode()) & 0x7FFFFFFF


class QuorumSelector:
    """Per-client quorum picker: seeded draws from a :class:`Strategy`.

    Each client owns one selector (and hence one RNG stream); a draw is
    made once per operation and reused for every round of that
    operation, so an operation's rounds and write-backs all target the
    same quorum.
    """

    def __init__(self, strategy: Strategy, seed: int, pid: Hashable):
        self.strategy = strategy
        self._rng = random.Random(selector_seed(seed, pid))

    def next_read(self) -> Subset:
        return self.strategy.draw_read(self._rng)

    def next_write(self) -> Subset:
        return self.strategy.draw_write(self._rng)
