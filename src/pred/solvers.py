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
computed in O(1) per sibling; only those are charged as nodes.

A node the optimistic bound leaves open while an incumbent exists is then
bounded by a cardinality-row relaxation. Cardinality rows, collected once,
are the ``<=`` rows whose coefficients are all +1 (packing: at most ``r``
ones, as in MIS edge rows) or all -1 (covering: at least ``k`` ones, as in
VC edge and SetCover element rows) over variables boxed in [0, 1]. Each free
variable in turn takes its first binding row whose free variables no row
taken so far holds. A packing row keeps its best ``r`` positive gains; a
covering row keeps every positive gain plus the least-bad of the rest. The
taken rows share no free variable, so their one-row optima plus every other
variable at its better end bound the node, which closes when that is no
better than the incumbent. The sibling window keeps the plain optimistic
bound: only that bound falls by exactly ``|c|`` per step of the branch
value, which is what the window's arithmetic relies on.

A node whose optimistic point (positive gains at ``hi``, the rest at
``lo``) satisfies every row closes with that point as its incumbent: every
optimum of the subtree agrees with it on the nonzero gains and it puts the
zero gains at their lowest, so it is the subtree's lexicographically
smallest optimum. A fully fixed node is the special case with no free
variable. The relaxation closes only subtrees that cannot strictly beat
the incumbent, the attained close keeps the point a full search of the
subtree would keep, and the search meets points in lexicographic order and
replaces its incumbent only on strict improvement, so the witness is the
lexicographically smallest optimal point.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExceededError, Record
from .graph import ReductionPath, default_graph, extract_along, reduce_along
from .model import (
    AggregatedValue,
    Configuration,
    DEFAULT_CONFIG_BUDGET,
    DEFAULT_NODE_BUDGET,
    Problem,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    SolveCapability,
    ValueKind,
    evaluate,
    fold_space,
    reported_witness,
)
from .problems import Ilp, IlpData


class SolveResult(Record):
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
        # ``against[j]`` lists the rows that x_j at its optimistic end pushes
        # toward violation, the only rows the attained-point test must read;
        # ``cardinal[j]`` lists, in row order, the cardinality rows holding x_j
        # as (members, r or k, packing)
        binary = [0 <= l and h <= 1 for l, h in data.var_bounds]
        self.against: list[list[int]] = [[] for _ in range(data.num_vars)]
        self.cardinal: list[list[tuple]] = [[] for _ in range(data.num_vars)]
        for index, (pairs, rhs) in enumerate(self.rows):
            for j, a in pairs:
                if (a > 0) == (self.gain[j] > 0):
                    self.against[j].append(index)
            if len({a for _, a in pairs}) == 1 and abs(pairs[0][1]) == 1 and all(
                binary[j] for j, _ in pairs
            ):
                packing = pairs[0][1] == 1
                row = (tuple(j for j, _ in pairs), rhs if packing else -rhs, packing)
                for j, _ in pairs:
                    self.cardinal[j].append(row)
        self.has_cardinal = any(self.cardinal)
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

    def _rows_close(
        self, lo: list[int], hi: list[int], branch: int, bound: int, best: int
    ) -> bool:
        """Whether the cardinality-row relaxation of a node is at most ``best``.

        Each free variable not yet covered takes its first binding row whose
        free variables are all uncovered; a taken row gets its exact one-row
        optimum and every other variable keeps its optimistic end.
        """
        gain = self.gain
        taken: set[int] = set()
        for j in range(branch, self.num_vars):
            if lo[j] == hi[j] or j in taken:
                continue
            for members, rhs, packing in self.cardinal[j]:
                free = [k for k in members if lo[k] < hi[k]]
                # propagation leaves every row with slack, so a row binds
                # only when it has at least two free variables
                if len(free) < 2 or not taken.isdisjoint(free):
                    continue
                fixed = sum(lo[k] for k in members)  # free variables have lo == 0
                if packing:
                    ups = sorted(gain[k] for k in free if gain[k] > 0)
                    excess = len(ups) - (rhs - fixed)
                    if excess <= 0:
                        continue
                    bound -= sum(ups[:excess])
                else:
                    downs = sorted((gain[k] for k in free if gain[k] <= 0), reverse=True)
                    short = rhs - fixed - (len(free) - len(downs))
                    if short <= 0:
                        continue
                    bound += sum(downs[:short])
                if bound <= best:
                    return True
                taken.update(free)
                break
        return False

    def _attained(self, lo: list[int], hi: list[int], branch: int) -> tuple | None:
        """The node's optimistic point when it satisfies every row, else None."""
        gain = self.gain
        rows = self.rows
        seen: set[int] = set()
        # variables before ``branch`` are fixed, and a row whose free variables
        # all sit at their row-minimising end keeps the slack propagation left
        for j in range(branch, self.num_vars):
            if lo[j] == hi[j]:
                continue
            for index in self.against[j]:
                if index in seen:
                    continue
                seen.add(index)
                pairs, rhs = rows[index]
                for k, a in pairs:
                    rhs -= a * (hi[k] if gain[k] > 0 else lo[k])
                if rhs < 0:
                    return None
        return tuple(hi[j] if gain[j] > 0 else lo[j] for j in range(self.num_vars))

    def _charge_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"branch-and-bound exceeded {self.max_nodes} nodes",
                limit=self.max_nodes,
                nodes=self.max_nodes,
                incumbent=None if self.best_value is None else self.sign * self.best_value,
            )

    def _enter(self, lo: list[int], hi: list[int], start: int) -> list | None:
        """Bound a propagated node: its open frame, or None when it is closed."""
        bound = self._optimistic(lo, hi)
        best = self.best_value
        if best is not None and bound <= best:
            return None
        # variables before ``start`` were fixed by an ancestor's branching
        branch = next((j for j in range(start, self.num_vars) if lo[j] < hi[j]), self.num_vars)
        if (
            best is not None
            and self.has_cardinal
            and self._rows_close(lo, hi, branch, bound, best)
        ):
            return None
        point = self._attained(lo, hi, branch)
        if point is not None:
            # a feasible optimistic point is the subtree's optimum, and the
            # lexicographically smallest one, since every optimum shares its
            # nonzero-gain values and its zero-gain values sit at ``lo``
            self.best_value = bound
            self.best_point = point
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
                return SolveResult(value, reported_witness(value, config), "ilp", route=path)
            # a reduced ILP should never be infeasible; fall through defensively
    return solve_brute(instance, max_configs)
