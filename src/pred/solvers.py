"""Solver dispatch and the exact branch-and-bound ILP backend.

Dispatch order: a dedicated solver when the type has one (only ILP in the
shipped catalogue), otherwise the cheapest witness-capable reduction path to
ILP, otherwise brute-force enumeration.

The ILP backend is an exact depth-first branch-and-bound that maximises; a
min program is searched on its negated objective. Each constraint is stored
once as a sparse ``<=`` row of its nonzero ``(index, coeff)`` pairs (a
``>=`` row negated, an ``=`` row split in two), and a FIFO worklist of rows
tightens variable bounds until nothing moves. A node's optimistic bound
takes every nonzero objective term at its better domain end. The search
walks an explicit stack, branching on the lowest-index unfixed variable in
ascending value order, so its depth is not limited by Python's recursion.
A child's bound before propagation falls by ``|c|`` per step away from the
end the parent's bound used, so the values not yet prunable form one window
computed in O(1) per sibling; only those are charged as nodes. The search
meets points in lexicographic order and replaces its incumbent only on
strict improvement, so the witness is the lexicographically smallest
optimal point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graph import ReductionPath, default_graph, extract_along, reduce_along
from .model import (
    AggregatedValue,
    Configuration,
    DEFAULT_CONFIG_BUDGET,
    Problem,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    SolveCapability,
    ValueKind,
    evaluate,
    fold_space,
)
from .problems import Ilp, IlpData

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    value: AggregatedValue
    witness: Configuration | None
    solver_name: str
    route: ReductionPath | None = None


def solver_label(result: SolveResult, prefix_steps: tuple = ()) -> str:
    """Human-readable solver string, e.g. ``ilp (via MIS -> ILP)``."""
    steps = tuple(prefix_steps)
    if result.route is not None:
        steps += result.route.steps
    if not steps:
        return result.solver_name
    registry = default_graph().registry
    hops = " -> ".join(registry.short_name(step.target.key) for step in steps)
    return f"{result.solver_name} (via {hops})"


class _Search:
    """One exact DFS over a bounded ILP, maximising ``sign * objective``."""

    def __init__(self, data: IlpData, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.nodes = 0
        self.num_vars = data.num_vars
        self.sign = 1 if data.sense == "max" else -1
        self.gain = [self.sign * c for c in data.objective]
        self.objective = tuple((j, c) for j, c in enumerate(self.gain) if c)
        # every row reads sum(a * x) <= rhs over its nonzero (index, a) pairs
        self.rows: list[tuple[tuple[tuple[int, int], ...], int]] = []
        for coeffs, rel, rhs in data.constraints:
            pairs = tuple((j, a) for j, a in enumerate(coeffs) if a)
            if rel in ("<=", "="):
                self.rows.append((pairs, rhs))
            if rel in (">=", "="):
                self.rows.append((tuple((j, -a) for j, a in pairs), -rhs))
        # row indices touching each variable, for worklist propagation
        self.touching: list[list[int]] = [[] for _ in range(data.num_vars)]
        for index, (pairs, _) in enumerate(self.rows):
            for j, _ in pairs:
                self.touching[j].append(index)
        self.var_bounds = data.var_bounds
        self.best_value: int | None = None
        self.best_point: tuple[int, ...] | None = None

    def _propagate(self, lo: list[int], hi: list[int], queue) -> bool:
        pending = deque(dict.fromkeys(queue))
        enqueued = set(pending)
        rows = self.rows
        touching = self.touching
        while pending:
            row_index = pending.popleft()
            enqueued.discard(row_index)
            pairs, slack = rows[row_index]
            for j, a in pairs:
                slack -= a * (lo[j] if a > 0 else hi[j])
            if slack < 0:
                return False
            # slack >= 0, so no tightened bound can cross its opposite bound
            for j, a in pairs:
                if a > 0:
                    tightened = lo[j] + slack // a
                    if tightened >= hi[j]:
                        continue
                    hi[j] = tightened
                else:
                    tightened = hi[j] - slack // -a
                    if tightened <= lo[j]:
                        continue
                    lo[j] = tightened
                for other in touching[j]:
                    if other not in enqueued:
                        pending.append(other)
                        enqueued.add(other)
        return True

    def _optimistic(self, lo: list[int], hi: list[int]) -> int:
        total = 0
        for j, c in self.objective:
            total += c * (hi[j] if c > 0 else lo[j])
        return total

    def _charge_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"branch-and-bound exceeded {self.max_nodes} nodes", limit=self.max_nodes
            )

    def _enter(self, lo: list[int], hi: list[int], start: int) -> list | None:
        """Bound a propagated node: its open frame, or None when it is closed."""
        bound = self._optimistic(lo, hi)
        if self.best_value is not None and bound <= self.best_value:
            return None
        # variables before ``start`` were fixed by an ancestor's branching
        branch = next((j for j in range(start, self.num_vars) if lo[j] < hi[j]), None)
        if branch is None:
            # every variable is fixed and propagation proved every row feasible,
            # so the bound is this point's value and it beats the incumbent
            self.best_value = bound
            self.best_point = tuple(lo)
            return None
        return [lo, hi, branch, bound, lo[branch]]

    def run(self) -> None:
        lo = [l for l, _ in self.var_bounds]
        hi = [h for _, h in self.var_bounds]
        self._charge_node()
        if not self._propagate(lo, hi, range(len(self.rows))):
            return
        # a frame is [lo, hi, branch, bound, next value of the branch variable]
        frame = self._enter(lo, hi, 0)
        stack = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            lo, hi, branch, bound, value = frame
            last = hi[branch]
            if self.best_value is not None:
                # Before propagation the child at ``v`` is bounded by ``bound``
                # less |c| per step of ``v`` away from the end ``bound`` used,
                # so the values it cannot prune form one window. The incumbent
                # only grows, so the window only shrinks as siblings finish.
                slack = bound - self.best_value
                if slack <= 0:
                    stack.pop()
                    continue
                c = self.gain[branch]
                if c > 0:
                    value = max(value, hi[branch] - (slack - 1) // c)
                elif c < 0:
                    last = min(last, lo[branch] + (slack - 1) // -c)
            if value > last:
                stack.pop()
                continue
            frame[4] = value + 1
            self._charge_node()
            child_lo = lo.copy()
            child_hi = hi.copy()
            child_lo[branch] = child_hi[branch] = value
            if self._propagate(child_lo, child_hi, self.touching[branch]):
                child = self._enter(child_lo, child_hi, branch + 1)
                if child is not None:
                    stack.append(child)


def solve_ilp(data: IlpData, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact optimum of a bounded integer linear program."""
    sense = SENSE_MAXIMIZE if data.sense == "max" else SENSE_MINIMIZE
    search = _Search(data, max_nodes)
    search.run()
    if search.best_point is None:
        return SolveResult(
            AggregatedValue(ValueKind.EXTREMUM, None, False, sense), None, "ilp"
        )
    witness = tuple(x - l for x, (l, _) in zip(search.best_point, data.var_bounds))
    value = search.sign * search.best_value
    return SolveResult(
        AggregatedValue(ValueKind.EXTREMUM, value, True, sense),
        witness,
        "ilp",
    )


def solve_brute(instance: Problem, max_configs: int = DEFAULT_CONFIG_BUDGET) -> SolveResult:
    result = fold_space(instance, max_configs)
    return SolveResult(result.value, result.witness, "brute-force")


def _strip_false_witness(value: AggregatedValue, witness: Configuration | None):
    if value.kind is ValueKind.OR and not value.payload:
        return None
    return witness


def solve(
    instance: Problem,
    max_configs: int = DEFAULT_CONFIG_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Dispatch in priority order: dedicated, ILP route, brute force."""
    graph = default_graph()
    descriptor = graph.registry.lookup_key(instance.variant_key())
    if descriptor.solve_capability is SolveCapability.DEDICATED:
        if isinstance(instance, Ilp):
            return solve_ilp(instance.data, max_nodes)
        raise NotImplementedError(f"no dedicated solver wired for {descriptor.name}")
    if descriptor.solve_capability is SolveCapability.VIA_ILP:
        ilp_key = graph.registry.lookup("IntegerLinearProgram").key
        path = graph.find_path(instance.variant_key(), ilp_key, require_witness=True)
        if path is not None and path.steps:
            envelope = reduce_along(path, instance)
            ilp_result = solve_ilp(envelope.target_instance.data, max_nodes)
            if ilp_result.witness is not None:
                config = extract_along(envelope, ilp_result.witness)
                value = evaluate(instance, config)
                return SolveResult(
                    value, _strip_false_witness(value, config), "ilp", route=path
                )
            # a reduced ILP should never be infeasible; fall through defensively
    brute = solve_brute(instance, max_configs)
    return SolveResult(
        brute.value, _strip_false_witness(brute.value, brute.witness), "brute-force"
    )
