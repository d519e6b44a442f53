"""The box kernel of the branch-and-bound ILP search: ``_BoxSearch``.

``pred.kernel._kernel`` sends here every program that the 0-1 kernel does
not take: a box wider than [0, 1], or a coefficient other than +1 and -1,
as in QUBO's linearisation. It loads on the first such program, so a solve
of a 0-1 program of ±1 rows, the program of every other forward map into
ILP, never compiles it. The search itself, ``_Search``, is
``pred.kernel``'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .kernel import Row, _Search

if TYPE_CHECKING:
    from .model import Configuration
    from .problems.ilp import IlpData


class _BoxSearch(_Search):
    """The box kernel: a node is ``(lo, hi)``, two lists of variable bounds."""

    def __init__(self, data: IlpData, rows: list[Row], max_nodes: int) -> None:
        super().__init__(data, max_nodes)
        self.rows = rows
        # raising lo[j] wakes ``lo_rows[j]`` (a > 0), lowering hi[j] ``hi_rows[j]``
        self.lo_rows: list[list[int]] = [[] for _ in range(data.num_vars)]
        self.hi_rows: list[list[int]] = [[] for _ in range(data.num_vars)]
        for index, (pairs, _) in enumerate(rows):
            for j, a in pairs:
                (self.lo_rows if a > 0 else self.hi_rows)[j].append(index)

    def _state(self, lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
        return lo, hi

    def _all_rows(self) -> list[int]:
        return list(range(len(self.rows)))

    def _propagate(self, state, pending: list[int]) -> tuple | None:
        """Tighten ``state`` in place from the distinct rows in the ``pending`` stack
        to a fixpoint.

        A bound move wakes only the rows whose least activity reads it. Returns
        the state and what the moves took from the optimistic bound, or None if
        a row fails.
        """
        lo, hi = state
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
        return state, loss

    def _child(self, state, branch: int, value: int) -> tuple | None:
        lo, hi = state
        child_lo = lo.copy()
        child_hi = hi.copy()
        child_lo[branch] = child_hi[branch] = value
        # only the rows reading a bound the branch moved can tighten
        pending = self.lo_rows[branch].copy() if value > lo[branch] else []
        if value < hi[branch]:
            pending += self.hi_rows[branch]
        return self._propagate((child_lo, child_hi), pending)

    def _first_free(self, state, start: int) -> int:
        lo, hi = state
        return next((j for j in range(start, self.num_vars) if lo[j] < hi[j]), self.num_vars)

    def _domain(self, state, branch: int) -> tuple[int, int]:
        lo, hi = state
        return lo[branch], hi[branch]

    def _attained(self, state, branch: int) -> tuple | None:
        """The node's optimistic point when it satisfies every row, else None."""
        lo, hi = state
        gain = self.gain
        rows = self.rows
        seen: set[int] = set()
        # variables before ``branch`` are fixed, and a row whose free variables
        # all sit at their row-minimising end keeps the slack propagation left;
        # x_j at its optimistic end pushes toward violation only the rows that
        # raising its lo (gain > 0) or lowering its hi would wake
        for j in range(branch, self.num_vars):
            if lo[j] == hi[j]:
                continue
            for index in self.lo_rows[j] if gain[j] > 0 else self.hi_rows[j]:
                if index in seen:
                    continue
                seen.add(index)
                pairs, rhs = rows[index]
                for k, a in pairs:
                    rhs -= a * (hi[k] if gain[k] > 0 else lo[k])
                if rhs < 0:
                    return None
        return tuple(hi[j] if gain[j] > 0 else lo[j] for j in range(self.num_vars))

    def witness(self) -> Configuration:
        return tuple(x - l for x, (l, _) in zip(self.best_point, self.var_bounds))
