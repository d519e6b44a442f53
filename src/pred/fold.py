"""The brute-force fold: each kind's combine law over a whole configuration space.

Solving by brute force is a per-kind fold over the whole space in
lexicographic order that gives the same value and witness as folding
``combine`` over the feasible configurations' ``evaluate`` from the
identity (``identity_value``): Max, Min and Extremum keep the first
configuration of best feasible payload, or give the identity
(``Max(none)``, ``Extremum(none)``) when nothing is feasible, Or stops at
the first true configuration, Sum adds, and And stops at the first false
configuration. Every Or, Max, Min and Extremum fold is one prefix walk
(``first_best``) that skips the prefixes whose bound, the one hook
``Problem._optimistic_payload``, says they hold no feasible configuration
that beats the incumbent; a linear
family's bound is set up here from its rows (``row_bound``), and a
quadratic family's from its matrix (``coupling_shares``). Every fold runs
under one node budget, the branch-and-bound search's: a walk charges each
prefix it asks, as at the QUBO solver node, and a Sum or And fold each
configuration it measures.

``pred.model.fold_space`` is the entry point; this module loads on its
first call, or on the QUBO solver's, so the commands that fold nothing
(``create``, ``reduce`` and every solve routed to the ILP node) never
compile it.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

from .errors import BudgetExceededError, KindError, Record
from .model import (
    SENSE_MINIMIZE,
    AggregatedValue,
    Configuration,
    LinearProblem,
    Problem,
    ValueKind,
)


def identity_value(kind: ValueKind, sense: str | None = None) -> AggregatedValue:
    """The combine-neutral element of a kind."""
    if kind in (ValueKind.MAX, ValueKind.MIN):
        return AggregatedValue(kind, None, feasible=False)
    if kind is ValueKind.EXTREMUM:
        if sense is None:
            raise KindError("Extremum identity needs a sense")
        return AggregatedValue(kind, None, feasible=False, sense=sense)
    if kind is ValueKind.OR:
        return AggregatedValue(kind, False)
    if kind is ValueKind.AND:
        return AggregatedValue(kind, True)
    return AggregatedValue(kind, 0)


def _sign(kind: ValueKind, sense: str | None) -> int:
    """+1 where a larger payload is better, -1 where a smaller one is."""
    return -1 if kind is ValueKind.MIN or sense == SENSE_MINIMIZE else 1


def _score(value: AggregatedValue) -> tuple:
    """Total order used by Max/Min/Extremum combines.

    Feasible beats infeasible, any payload beats the identity's None, and
    only then does the payload itself decide. Infeasible payloads therefore
    never win against feasible ones but still combine deterministically.
    """
    has_payload = value.payload is not None
    payload = _sign(value.kind, value.sense) * value.payload if has_payload else 0
    return (value.feasible, has_payload, payload)


def combine(a: AggregatedValue, b: AggregatedValue) -> AggregatedValue:
    if a.kind is not b.kind:
        raise KindError(f"cannot combine {a.kind.value} with {b.kind.value}")
    if a.kind is ValueKind.OR:
        return AggregatedValue(ValueKind.OR, bool(a.payload) or bool(b.payload))
    if a.kind is ValueKind.AND:
        return AggregatedValue(ValueKind.AND, bool(a.payload) and bool(b.payload))
    if a.kind is ValueKind.SUM:
        return AggregatedValue(ValueKind.SUM, (a.payload or 0) + (b.payload or 0))
    if a.kind is ValueKind.EXTREMUM and a.sense != b.sense:
        raise KindError(f"cannot combine Extremum senses {a.sense} and {b.sense}")
    return a if _score(a) >= _score(b) else b


class FoldResult(Record):
    value: AggregatedValue
    witness: Configuration | None


def fold(instance: Problem, max_nodes: int) -> FoldResult:
    """``pred.model.fold_space``: ``first_best`` for an Or, Max, Min or
    Extremum instance; a Sum or And fold measures the space in product order,
    charging each configuration as one node."""
    kind = instance.kind
    if kind is not ValueKind.SUM and kind is not ValueKind.AND:
        return first_best(instance, max_nodes)
    total = 0 if kind is ValueKind.SUM else True
    for nodes, config in enumerate(itertools.product(*map(range, instance.config_dims()))):
        if nodes == max_nodes:
            raise _exceeded(max_nodes)
        payload = instance._measure(config)[0]
        if kind is ValueKind.SUM:
            total += payload
        elif not payload:
            total = False
            break
    return FoldResult(AggregatedValue(kind, total), None)


def _exceeded(max_nodes: int, incumbent: int | None = None) -> BudgetExceededError:
    return BudgetExceededError(
        f"bounded search exceeded {max_nodes} nodes", limit=max_nodes, incumbent=incumbent
    )


def first_best(instance: Problem, max_nodes: int) -> FoldResult:
    """The Or, Max, Min or Extremum fold of ``instance`` by a pruned prefix walk.

    An iterative depth-first walk in product order (no recursion, so any
    number of variables is fine): ``value`` is the next value to try at
    position ``len(prefix)``. Full configurations are measured, and the
    incumbent, the signed payload of a feasible one, moves only on a strict
    improvement. Every nonempty shorter prefix whose parent passed is first
    bounded by ``_optimistic_payload`` and skipped when its bound is None or
    cannot strictly beat the incumbent. A skipped prefix holds no feasible
    configuration that would have moved the incumbent, so the result is the
    plain fold's: the best feasible value with its lexicographically
    smallest witness, or the kind's identity with none when nothing is
    feasible. An Or walk starts from its identity, false, and stops at its
    first true configuration, which nothing beats. Each prefix asked counts
    as one node, and asking one more than ``max_nodes`` raises
    ``BudgetExceededError``, as the branch-and-bound search does. A walk
    asks one prefix per variable but the last on its way to its first
    configuration, so an instance of more than ``max_nodes + 1`` variables
    raises before the walk builds anything, even one whose bound would
    have pruned every prefix. ``fold`` sends every instance of those four
    kinds here.
    """
    if instance.num_variables() > max_nodes + 1:
        raise _exceeded(max_nodes)
    dims = instance.config_dims()
    optimistic, measure = instance._optimistic_payload, instance._measure
    kind = instance.kind
    sign = _sign(kind, instance.sense)
    last = len(dims) - 1
    nodes = 0
    best = 0 if kind is ValueKind.OR else None
    witness = None
    prefix: Configuration = ()
    value = 0
    while True:
        depth = len(prefix)
        if depth > last:
            payload, feasible = measure(prefix)
            if feasible and (best is None or sign * payload > best):
                best, witness = sign * payload, prefix
                if kind is ValueKind.OR:
                    break
        elif value < dims[depth]:
            child = prefix + (value,)
            value += 1
            if depth < last:
                nodes += 1
                if nodes > max_nodes:
                    raise _exceeded(max_nodes, None if witness is None else sign * best)
                bound = optimistic(child)
                if bound is None or best is not None and sign * bound <= best:
                    continue
            prefix, value = child, 0
            continue
        if not prefix:
            break
        prefix, value = prefix[:-1], prefix[-1] + 1
    if witness is None:
        return FoldResult(identity_value(kind, instance.sense), None)
    payload = True if kind is ValueKind.OR else sign * best
    return FoldResult(AggregatedValue(kind, payload, True, instance.sense), witness)


def row_bound(instance: LinearProblem) -> tuple:
    """``LinearProblem._closing``. From each k on, a variable adds at most its
    term at its better end, less the covering need: a covering row sums 0-1
    variables with coefficient +1 to at least 1, so one member is 1, losing
    at least the cheapest member's loss from its better end, and rows with
    no shared member add their losses. They are picked greedily, as a
    matching: the variable in the fewest live rows, then the one of its rows
    whose members lie in the fewest, the lowest indices on ties."""
    rows, objective = instance._statement
    n = len(objective)
    closing: list[list] = [[] for _ in range(n)]
    for row in rows:
        if row[0]:
            closing[row[0][-1][0]].append(row)
    if instance.kind is ValueKind.OR:
        return closing, None
    last = tuple(d - 1 for d in instance.config_dims())
    sign = _sign(instance.kind, instance.sense)
    gain, loss = [], []  # signed: the better end's term, and what a 0-1 variable loses at 1
    for c, lo, hi in zip(objective, instance.point((0,) * n), instance.point(last)):
        gain.append(max(sign * c * lo, sign * c * hi))
        loss.append(gain[-1] - sign * c if (lo, hi) == (0, 1) else None)
    most = list(itertools.accumulate(reversed(gain), initial=0))[::-1]
    rest = [sign * (m - need) for m, need in zip(most, _covering_need(rows, loss))]
    return closing, rest


def _covering_need(rows, loss: list[int | None]) -> list[int]:
    """Entry k is the loss of the covering rows picked from variable k on,
    but for rows of no loss or with a member not 0-1 (loss None)."""
    n = len(loss)
    members = []
    for terms, rel, rhs in rows:
        if rel == ">=" and rhs >= 1 and terms and all(a == 1 and loss[j] for j, a in terms):
            members.append(tuple(j for j, _ in terms))
    rows_of = [0] * n  # bit r set when row r holds the variable
    starting = [0] * n  # the rows whose first member is the variable
    for r, row in enumerate(members):
        starting[row[0]] |= 1 << r
        for j in row:
            rows_of[j] |= 1 << r
    meets = [reduce(or_, map(rows_of.__getitem__, row)) for row in members]
    costs = [min(map(loss.__getitem__, row)) for row in members]
    need, degree, live_from = [0] * (n + 1), [0] * n, 0
    for k in range(n - 1, -1, -1):
        if not starting[k]:  # the same rows as from k + 1 on
            need[k] = need[k + 1]
            continue
        live_from |= starting[k]
        live, total = live_from, 0
        while live:
            pick, least = 0, len(members) + 1
            for j in range(k, n):
                degree[j] = d = (rows_of[j] & live).bit_count()
                if 0 < d < least:
                    pick, least = j, d
                    if d == 1:  # the least there is
                        break
            mine = rows_of[pick] & live
            r = mine.bit_length() - 1
            if least > 1:  # then every degree is fresh
                r = min((s for s in range(r + 1) if mine >> s & 1),
                        key=lambda s: (sum(map(degree.__getitem__, members[s])), members[s]))
            live &= ~meets[r]
            total += costs[r]
        need[k] = max(total, need[k + 1])
    return need


def coupling_shares(q) -> list[tuple[int, tuple[tuple, ...]]]:
    """``QuadraticProblem._shares``: two roofs on ``xᵀqx`` once x_0 to x_{k-1}
    are fixed. A free pair's term 2c x_j x_l is at most c x_j + c x_l when c >
    0; when c < 0 it is at most 0 (the first roof) and at most -c + c x_j +
    c x_l (the second). Entry k holds the second roof's constant, the sum of
    -c over the negative couplings among the free variables, and for each
    free x_j in turn its row, with what x_j = 1 adds beyond its couplings
    with the prefix: under the first roof, ``q[j][j]`` plus its positive
    couplings with the other free variables, and under the second, also its
    negative ones (Pardalos & Rodgers, 1990)."""
    n = len(q)
    up = [row[j] for j, row in enumerate(q)]
    down = [0] * n
    shares, apart = [(0, ())] * (n + 1), 0
    for k in range(n - 1, -1, -1):  # x_k joins the free variables
        row = q[k]
        for l in range(k + 1, n):
            c = row[l]
            if c > 0:
                up[k] += c
                up[l] += c
            elif c < 0:
                down[k] += c
                down[l] += c
                apart -= c
        shares[k] = (apart, tuple(zip(q[k:], up[k:], down[k:])))
    return shares
