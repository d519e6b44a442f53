"""Solver dispatch, the solver table and the exact branch-and-bound ILP backend.

``SOLVERS`` names the solver nodes of the reduction graph and the solver
each one runs: ILP has the branch-and-bound search below, and QUBO the
pruned prefix walk of ``pred.model`` (``_first_best``) under its node
budget. Brute force takes the same walk for every Or fold and for every
class that bounds its prefixes, QUBO's included. The reduction graph makes
the one dispatch decision (``ReductionGraph.solver_route``): an instance
with a witness-capable path to a solver node is carried along the cheapest
one and solved there, a solver node itself being the empty path, and any
other instance is enumerated by brute force. Adding a solver is one entry
in the table.

The ILP backend is an exact depth-first branch-and-bound that maximises; a
min program is searched on its negated objective. Each constraint is stored
once as a sparse ``<=`` row of its nonzero ``(index, coeff)`` pairs (a
``>=`` row negated, an ``=`` row split in two). Rows tighten variable bounds
until nothing moves; every row rule is monotone, so the order rows are
visited in does not change the fixpoint. A row's rule reads only its least
activity, which uses ``lo[j]`` where the coefficient is positive and
``hi[j]`` where it is negative, so a bound move, a branch's or a row's,
wakes only the rows that read the moved bound. A node's optimistic bound
takes every nonzero objective term at its better domain end; it is summed
at the root and carried down, a child's bound being its parent's, moved by
the branch, less what propagation took from it. The search walks an
explicit stack, branching on the lowest-index unfixed variable in ascending
value order, so its depth is not limited by Python's recursion. A child's
bound before propagation falls by ``|c|`` per step away from the end the
parent's bound used, so the values not yet prunable form one window
computed in O(1) per sibling; only those are charged as nodes.

A node the optimistic bound leaves open while an incumbent exists is then
bounded by a cardinality-row relaxation. Cardinality rows, collected once,
are the ``<=`` rows whose coefficients are all +1 (packing: at most ``r``
ones, as in MIS edge rows) or all -1 (covering: at least ``k`` ones, as in
VC edge and SetCover element rows) over variables boxed in [0, 1]. Each free
variable in turn takes its first binding row whose free variables no row
taken so far holds. A packing row keeps its best ``r`` positive gains; a
covering row keeps every positive gain plus the least-bad of the rest. The
gains a row may give up are sorted once, when the search starts, so a node
sums a prefix of its free ones. The taken rows share no free variable, so
their one-row optima plus every other variable at its better end bound the
node, which closes when that is no better than the incumbent. The sibling
window keeps the plain optimistic bound: only that bound falls by exactly
``|c|`` per step of the branch value, which the window's arithmetic needs.

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

from itertools import compress

from .errors import BudgetExceededError, Record
from .graph import ReductionPath, default_graph, reduce_along, solution_along
from .model import (
    AggregatedValue,
    Configuration,
    DEFAULT_CONFIG_BUDGET,
    DEFAULT_NODE_BUDGET,
    Problem,
    SENSE_MAXIMIZE,
    SENSE_MINIMIZE,
    ValueKind,
    _first_best,
    fold_space,
)
from .problems import IlpData


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
            pairs = tuple((j, coeffs[j]) for j in compress(range(data.num_vars), coeffs))
            if rel in ("<=", "="):
                self.rows.append((pairs, rhs))
            if rel in (">=", "="):
                self.rows.append((tuple((j, -a) for j, a in pairs), -rhs))
        # raising lo[j] wakes ``lo_rows[j]`` (a > 0), lowering hi[j] ``hi_rows[j]``;
        # ``against[j]`` lists the rows that x_j at its optimistic end pushes
        # toward violation, the only rows the attained-point test must read;
        # ``cardinal[j]`` lists, in row order, the cardinality rows holding x_j
        # as (mask, members, r or k, packing, ranked), ``ranked`` being the
        # (gain, k) the one-row optimum may give up, best kept first
        binary = [0 <= l and h <= 1 for l, h in data.var_bounds]
        self.lo_rows: list[list[int]] = [[] for _ in range(data.num_vars)]
        self.hi_rows: list[list[int]] = [[] for _ in range(data.num_vars)]
        self.against: list[list[int]] = [[] for _ in range(data.num_vars)]
        self.cardinal: list[list[tuple]] = [[] for _ in range(data.num_vars)]
        for index, (pairs, rhs) in enumerate(self.rows):
            for j, a in pairs:
                (self.lo_rows if a > 0 else self.hi_rows)[j].append(index)
                if (a > 0) == (self.gain[j] > 0):
                    self.against[j].append(index)
            if len({a for _, a in pairs}) == 1 and abs(pairs[0][1]) == 1 and all(
                binary[j] for j, _ in pairs
            ):
                packing = pairs[0][1] == 1
                members = tuple(j for j, _ in pairs)
                # a packing row gives up its least positive gains first, a
                # covering row takes its least-bad other gains first
                ranked = sorted(
                    ((self.gain[k], k) for k in members if (self.gain[k] > 0) == packing),
                    reverse=not packing,
                )
                mask = sum(1 << j for j in members)
                row = (mask, members, rhs if packing else -rhs, packing, tuple(ranked))
                for j in members:
                    self.cardinal[j].append(row)
        self.has_cardinal = any(self.cardinal)
        self.var_bounds = data.var_bounds
        self.best_value: int | None = None
        self.best_point: tuple[int, ...] | None = None

    def _propagate(self, lo: list[int], hi: list[int], pending: list[int]) -> int | None:
        """Tighten bounds from the distinct rows in the ``pending`` stack to a fixpoint.

        A bound move wakes only the rows whose least activity reads it. Returns
        what the moves took from the optimistic bound, or None if a row fails.
        """
        enqueued = set(pending)
        rows = self.rows
        gain = self.gain
        loss = 0
        while pending:
            row_index = pending.pop()
            enqueued.discard(row_index)
            pairs, slack = rows[row_index]
            for j, a in pairs:
                slack -= a * (lo[j] if a > 0 else hi[j])
            if slack < 0:
                return None
            # slack >= 0, so no tightened bound can cross its opposite bound
            for j, a in pairs:
                if a > 0:
                    tightened = lo[j] + slack // a
                    if tightened >= hi[j]:
                        continue
                    if gain[j] > 0:
                        loss += gain[j] * (hi[j] - tightened)
                    hi[j] = tightened
                    woken = self.hi_rows[j]
                else:
                    tightened = hi[j] - slack // -a
                    if tightened <= lo[j]:
                        continue
                    if gain[j] < 0:
                        loss -= gain[j] * (tightened - lo[j])
                    lo[j] = tightened
                    woken = self.lo_rows[j]
                for other in woken:
                    if other not in enqueued:
                        pending.append(other)
                        enqueued.add(other)
        return loss

    def _optimistic(self, lo: list[int], hi: list[int]) -> int:
        total = 0
        for j, c in self.objective:
            total += c * (hi[j] if c > 0 else lo[j])
        return total

    def _rows_close(
        self, lo: list[int], hi: list[int], branch: int, bound: int, best: int
    ) -> bool:
        """Whether the cardinality-row relaxation of a node is at most ``best``.

        Each free variable not yet covered, in index order, takes its first
        binding row whose free variables are all uncovered; a taken row gets
        its exact one-row optimum, read off a prefix of its presorted gains,
        and every other variable keeps its optimistic end.
        """
        # a set of variables is an int with bit j for x_j
        free_mask = 0
        for j in range(branch, self.num_vars):
            if lo[j] < hi[j]:
                free_mask |= 1 << j
        taken = 0
        for j in range(branch, self.num_vars):
            if lo[j] == hi[j] or taken >> j & 1:
                continue
            for mask, members, rhs, packing, ranked in self.cardinal[j]:
                free = mask & free_mask
                # propagation leaves every row with slack, so a row binds
                # only when it has at least two free variables
                if not free & (free - 1) or free & taken:
                    continue
                fixed = sum(lo[k] for k in members)  # free variables have lo == 0
                gains = [g for g, k in ranked if lo[k] < hi[k]]
                if packing:
                    # at most rhs - fixed of the positive gains are kept
                    excess = len(gains) - (rhs - fixed)
                    if excess <= 0:
                        continue
                    bound -= sum(gains[:excess])
                else:
                    # at least rhs - fixed ones, the positive gains among them
                    short = rhs - fixed - (free.bit_count() - len(gains))
                    if short <= 0:
                        continue
                    bound += sum(gains[:short])
                if bound <= best:
                    return True
                taken |= free
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

    def _enter(self, lo: list[int], hi: list[int], start: int, bound: int) -> list | None:
        """Bound a propagated node of optimistic bound ``bound``: its open frame, or None."""
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
        if self._propagate(lo, hi, list(range(len(self.rows)))) is None:
            return
        # a frame is [lo, hi, branch, bound, next value of the branch variable]
        frame = self._enter(lo, hi, 0, self._optimistic(lo, hi))
        stack = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            lo, hi, branch, bound, value = frame
            last = hi[branch]
            c = self.gain[branch]
            if self.best_value is not None:
                # Before propagation the child at ``v`` is bounded by ``bound``
                # less |c| per step of ``v`` away from the end ``bound`` used,
                # so the values it cannot prune form one window. The incumbent
                # only grows, so the window only shrinks as siblings finish.
                slack = bound - self.best_value
                if slack <= 0:
                    stack.pop()
                    continue
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
            # only the rows reading a bound the branch moved can tighten
            pending = self.lo_rows[branch].copy() if value > lo[branch] else []
            if value < hi[branch]:
                pending += self.hi_rows[branch]
            loss = self._propagate(child_lo, child_hi, pending)
            if loss is not None:
                end = hi[branch] if c > 0 else lo[branch]
                child_bound = bound + c * (value - end) - loss
                child = self._enter(child_lo, child_hi, branch + 1, child_bound)
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


# The solver nodes, by problem name: each runs ``(instance, max_nodes)`` and
# returns the instance's value and witness, charging its search against the
# node budget. Its name is the solver's label.
SOLVERS = {
    "IntegerLinearProgram": ("ilp", lambda ilp, max_nodes: solve_ilp(ilp.data, max_nodes)),
    "QUBO": ("qubo", _first_best),
}


def solve(
    instance: Problem,
    max_configs: int = DEFAULT_CONFIG_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Solve at the solver node the graph routes ``instance`` to, or by brute
    force when it has no route.

    The solver's witness is mapped back and evaluated at the instance. A
    solver node is its own empty route, so it gets its solver's result as it
    is, and so does a reduced instance that comes back with no witness.
    """
    route = default_graph().solver_route(instance.variant_key())
    if route is None:
        return solve_brute(instance, max_configs)
    name, run = SOLVERS[route.target_type.name]
    if not route.steps:
        result = run(instance, max_nodes)
        return SolveResult(result.value, result.witness, name)
    envelope = reduce_along(route, instance)
    result = run(envelope.target_instance, max_nodes)
    if result.witness is None:
        return SolveResult(result.value, None, name)
    value, witness = solution_along(envelope, result.witness)
    return SolveResult(value, witness, name, route=route)
