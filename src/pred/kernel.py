"""The exact branch-and-bound ILP backend: the search that ``solve_ilp`` runs.

``pred.solvers.solve_ilp`` is the entry point; this module loads on its
first call, so the commands that solve nothing at the ILP node (``create``,
``reduce``, ``show``, and every solve by brute force or at the QUBO node)
never compile it. The box kernel is ``pred.kernel_box``, loaded by the
first program that the 0-1 kernel does not take.

The ILP backend is an exact depth-first branch-and-bound that maximises; a
min program is searched on its negated objective. Each ``IlpData`` row is
its nonzero ``(index, coeff)`` terms, stored as they are as a ``<=`` row (a
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

The search holds its nodes in one of two states, chosen from the program
alone (``_kernel``). The 0-1 kernel (``_BitSearch``) runs a program whose
every box lies in [0, 1], pre-fixed boxes included, and whose every
coefficient is +1 or -1. It reads each stored row as a cap on true
literals, as pseudo-Boolean solvers do (Chai & Kuehlmann, 2005): a +1
term's literal is x_j = 1, a -1 term's is x_j = 0, and a row of rhs ``r``
with ``m`` -1 terms allows at most ``r + m`` true literals. Packing rows
(all +1: at most ``r`` ones, as in MIS edge rows) and covering rows (all
-1: at least ``k`` ones, as in VC edge and SetCover element rows) are its
one-sided cases. A node is two ints, ``ones`` and ``zeros``, with bit j set
where x_j is fixed at 1 or at 0; a row reads two popcounts, a full row
makes its free literals false, and a child sets one bit. The box kernel
(``_BoxSearch``, ``pred.kernel_box``) runs every other program on two
lists of bounds. Both run the same dive, search loop, sibling window, node
budget and incumbent rule (``_Search``), so on a 0-1 program of ±1 rows the
two kernels differ only in the 0-1 kernel's bounds.

A node of the 0-1 kernel that the optimistic bound leaves open while the
search holds a cutoff (the incumbent's value, or the dive's below) is then
bounded twice, and closes when either bound is no better than the cutoff.
The first adds up what the covering rows still need, one surrogate row
(Glover, 1968): each free variable of gain at least 0 covers its rows at no
cost, each covering row still needs its missing ones from its free
negative-gain members, and the node must pay for the total with the fewest
members that can cover it, those holding the most open rows first, each at the least
cost of any. The second is a relaxation in two passes. The rows with cap 1
and no -1 term form a conflict graph, one neighbour bitmask per variable:
of pairwise conflicting variables at most one is 1. Cliques of that graph
first cover the free positive-gain variables, each started from the lowest
uncovered variable and grown on bitmasks by the candidate with the most
conflicts among the other candidates, so that it stays large (a 3SAT->MIS
clause triangle is taken whole), and a clique keeps only its largest gain,
the clique-cover bound of max-clique branch-and-bound. Then each free variable
that no clique covers takes its first binding row among the rest whose free
uncovered variables no row taken so far holds. A taken row gives up the
cheapest of its free members whose optimistic end is a true literal, as
many as exceed its room. The gains a row may give up are sorted once, when
the search starts, and a node reads how many it gives up from popcounts,
summing a prefix of the free ones. The cliques and the taken rows share no free variable, so their
optima plus every other variable at its better end bound the node. The box
kernel has neither bound; QUBO's linearisation, the one program a forward
map sends it, has a coefficient of 2 in its ``2x_i - y <= 1`` rows. The
sibling window keeps the plain optimistic bound: only that bound falls by
exactly ``|c|`` per step of the branch value, which the window's arithmetic
needs.

Between the two passes, a node that the cliques leave open by no more than
the program's largest gain, the most that one inconsistent set of cliques
can take off, is bounded by unit propagation over the cover, as
MaxSAT-based max-clique branch-and-bound does (Li & Quan, 2010, "An
efficient branch-and-bound algorithm based on MaxSAT for the maximum clique
problem", AAAI). Every clique, and every singleton (a free positive-gain
variable that no clique of two or more covers), is taken to hold a 1. The
singletons are forced at once, as no two conflict: each had no uncovered
conflicting variable when its turn came. The forced variables' conflicts
are banned; a clique left with one member outside them forces it, and a
clique left with none is a conflict. The emptied clique, with the forced
cliques and singletons that its banned members trace back to, each member
to the earliest forced variable that banned it and so on recursively, is an
inconsistent set: no feasible point meets every clique of it. A point takes
at most a clique's top from each clique it meets and nothing from one it
misses, so the set's least top comes off the bound. The set's cliques and
singletons then leave the propagation and the row pass, which must not
count them again, and propagation repeats until the node closes or no
conflict is left. On unit gains a set is sought only at a node one above
the cutoff, where the first set closes it.

A node whose optimistic point (positive gains at ``hi``, the rest at
``lo``) satisfies every row closes with that point as its incumbent: every
optimum of the subtree agrees with it on the nonzero gains and it puts the
zero gains at their lowest, so it is the subtree's lexicographically
smallest optimum. A fully fixed node is the special case with no free
variable. Before the search, a dive from the propagated root fixes one
free variable at a time at its optimistic end, or at its other end if that
end fails, until a node's optimistic point is attained. The box kernel
dives on the first free variable. The 0-1 kernel dives on the free
positive-gain variable of largest gain per free positive-gain conflict plus
one (the GWMIN greedy for weighted independent sets), and on the first free
variable when none has a positive gain; the search itself still branches in
index order. If the dive reaches a point of value ``v``, the search starts
from the cutoff ``v - 1`` with no incumbent point, so it prunes only
subtrees that cannot reach ``v`` and never the dive's own path; a node
budget that runs out before the search meets a point reports ``v``. The
bounds close only subtrees that cannot strictly beat the cutoff, the
attained close keeps the point a full search of the subtree would keep, and
the search meets points in lexicographic order and replaces its incumbent
only on strict improvement, so the witness is the lexicographically
smallest optimal point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import BudgetExceededError

if TYPE_CHECKING:
    from .model import Configuration
    from .problems.ilp import IlpData


Row = tuple[tuple[tuple[int, int], ...], int]


class _Search:
    """One exact DFS over a bounded ILP, maximising ``sign * objective``.

    The dive, the search loop, a child's bound (``_descend``), the sibling
    window, the node budget and the incumbent rule are here, once. A subclass
    holds the node state and answers for it: ``_state`` builds a state from
    bound lists; ``_propagate`` tightens one from a set of pending rows
    (every row: ``_all_rows``) to the fixpoint, returning what it took from
    the optimistic bound, and ``_child`` fixes the branch variable and
    propagates; ``_first_free``, ``_domain``, ``_closes`` and ``_attained``
    bound an open node, ``_dive_branch`` names the dive's next variable, and
    ``witness`` reads the best point back.
    """

    def __init__(self, data: IlpData, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.nodes = 0
        self.num_vars = data.num_vars
        self.var_bounds = data.var_bounds
        self.sign = 1 if data.sense == "max" else -1
        self.gain = [self.sign * c for c in data.objective]
        self.best_value: int | None = None
        self.best_point = None
        # the value of the point the dive reached, if it reached one
        self.dive_value: int | None = None

    def _closes(self, state, branch: int, bound: int, best: int) -> bool:
        """Whether a bound beyond the optimistic one shows the node cannot beat
        ``best``; none here."""
        return False

    def _exhausted(self) -> BudgetExceededError:
        """The error for a search that has charged more than ``max_nodes`` nodes."""
        # before the search meets a point, ``best_value`` is the dive's
        # cutoff, which no point found attains
        found = self.best_value if self.best_point is not None else self.dive_value
        return BudgetExceededError(
            f"branch-and-bound exceeded {self.max_nodes} nodes",
            limit=self.max_nodes,
            incumbent=None if found is None else self.sign * found,
        )

    def _enter(self, state, start: int, bound: int) -> list | None:
        """Bound a propagated node of optimistic bound ``bound``: its open frame, or None."""
        best = self.best_value
        if best is not None and bound <= best:
            return None
        # variables before ``start`` were fixed by an ancestor's branching
        branch = self._first_free(state, start)
        if best is not None and self._closes(state, branch, bound, best):
            return None
        point = self._attained(state, branch)
        if point is not None:
            # a feasible optimistic point is the subtree's optimum, and the
            # lexicographically smallest one, since every optimum shares its
            # nonzero-gain values and its zero-gain values sit at ``lo``
            self.best_value = bound
            self.best_point = point
            return None
        low, high = self._domain(state, branch)
        return [state, branch, bound, low, low, high]

    def _descend(self, state, branch: int, bound: int, value: int, low: int, high: int):
        """The child of a node of optimistic bound ``bound`` that fixes its
        branch variable, of domain [``low``, ``high``], at ``value``: its
        propagated state and optimistic bound, or None if a row fails.

        Charged as a node. The child's bound is its parent's, moved by the
        branch variable's gain per step of ``value`` away from the end the parent's bound used, less
        what propagation took from it.
        """
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise self._exhausted()
        child = self._child(state, branch, value)
        if child is None:
            return None
        child_state, loss = child
        c = self.gain[branch]
        return child_state, bound + c * (value - (high if c > 0 else low)) - loss

    def _dive_branch(self, state, first: int) -> int:
        """The variable the dive fixes next at a node whose first free variable
        is ``first``: ``first`` itself here."""
        return first

    def _dive(self, state, bound: int) -> int | None:
        """The value of the point reached from a propagated node of optimistic
        bound ``bound`` by fixing the free variable ``_dive_branch`` names at
        its optimistic end, or at its other end if that end fails, until the
        node's optimistic point is attained; None if both ends fail. Each child
        tried is charged as a node."""
        gain = self.gain
        first = 0
        while True:
            # fixing never frees a variable, so the first free one only moves on
            first = self._first_free(state, first)
            if self._attained(state, first) is not None:
                return bound
            branch = self._dive_branch(state, first)
            low, high = self._domain(state, branch)
            end = high if gain[branch] > 0 else low
            for value in (end, low + high - end):
                child = self._descend(state, branch, bound, value, low, high)
                if child is not None:
                    break
            else:
                return None
            state, bound = child

    def run(self) -> None:
        # the root is the first node charged
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise self._exhausted()
        lo = [l for l, _ in self.var_bounds]
        hi = [h for _, h in self.var_bounds]
        # the root's optimistic bound, less what propagation takes; it reads the
        # boxes, as the box kernel tightens ``lo`` and ``hi`` in place
        bound = sum(c * (h if c > 0 else l) for c, (l, h) in zip(self.gain, self.var_bounds))
        root = self._propagate(self._state(lo, hi), self._all_rows())
        if root is None:
            return
        state, loss = root
        bound -= loss
        self.dive_value = self._dive(state, bound)
        if self.dive_value is not None:
            # the search keeps only points of at least the dive's value, and
            # still meets them in lexicographic order
            self.best_value = self.dive_value - 1
        # a frame is [state, branch, bound, next value, lo and hi of the branch variable]
        frame = self._enter(state, 0, bound)
        stack = [frame] if frame is not None else []
        gain = self.gain
        while stack:
            frame = stack[-1]
            state, branch, bound, value, low, high = frame
            last = high
            c = gain[branch]
            if self.best_value is not None:
                # Before propagation the child at ``v`` is bounded by ``bound``
                # less |c| per step of ``v`` away from the end ``bound`` used,
                # so the values it cannot prune form one window. The cutoff
                # only grows, so the window only shrinks as siblings finish.
                slack = bound - self.best_value
                if slack <= 0:
                    stack.pop()
                    continue
                if c > 0:
                    value = max(value, high - (slack - 1) // c)
                elif c < 0:
                    last = min(last, low + (slack - 1) // -c)
            if value > last:
                stack.pop()
                continue
            frame[3] = value + 1
            child = self._descend(state, branch, bound, value, low, high)
            if child is not None:
                child = self._enter(child[0], branch + 1, child[1])
                if child is not None:
                    stack.append(child)


class _BitSearch(_Search):
    """The 0-1 kernel: a node is ``(ones, zeros)``, two ints with bit j set
    where x_j is fixed at 1 and at 0.

    Each stored row is ``(pos, neg, cap)``: the masks of its +1 and -1 terms,
    and how many of its literals may be true, its rhs plus the size of ``neg``.
    """

    def __init__(self, data: IlpData, rows: list[Row], max_nodes: int) -> None:
        super().__init__(data, max_nodes)
        n = data.num_vars
        gain = self.gain
        self.full = (1 << n) - 1
        self.positive = sum(1 << j for j, g in enumerate(gain) if g > 0)
        # no clique or singleton keeps more than the largest gain
        self.largest = max(gain, default=0)
        # ``caps`` holds (pos, neg, cap) per row; literal j is x_j = 1 and
        # literal n + j is x_j = 0, and making literal i true wakes the rows
        # of bitmask ``wake[i]`` and takes ``drop[i]`` from the optimistic bound
        self.caps: list[tuple[int, int, int]] = []
        self.wake = [0] * (2 * n)
        self.drop = [max(-g, 0) for g in gain] + [max(g, 0) for g in gain]
        # ``against[j]`` lists the rows in which x_j at its optimistic end is
        # a true literal, the only rows the attained-point test must read
        self.against: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # ``cardinal[j]`` lists, in row order, the rows holding x_j as (mask,
        # pos, neg, cap, ranked, costs): ``ranked`` masks the members whose
        # optimistic end is a true literal, ``costs`` their (cost, bit)
        # cheapest first, what the one-row optimum may give up
        self.cardinal: list[list[tuple]] = [[] for _ in range(n)]
        # the mask of the variables some row of ``cardinal`` holds
        self.in_rows = 0
        # a cap-1 row with no -1 term goes to ``conflicts[j]`` instead, the
        # mask of the variables that share such a row with x_j: at most one
        # of a set of pairwise conflicting variables is 1
        self.conflicts = [0] * n
        # of the rows with no +1 term, ``needing`` masks those that need one
        # 1 and ``several`` holds (row bit, mask, ones needed) per row that
        # needs more
        self.needing = 0
        self.several: list[tuple[int, int, int]] = []
        for index, (pairs, rhs) in enumerate(rows):
            row_bit = 1 << index
            literals = 0
            costs = []
            for j, a in pairs:
                literal = j if a > 0 else n + j
                literals |= 1 << literal
                self.wake[literal] |= row_bit
                if (gain[j] > 0) == (a > 0):
                    costs.append((abs(gain[j]), 1 << j))
            pos, neg = literals & self.full, literals >> n
            cap = rhs + neg.bit_count()
            row = (pos, neg, cap)
            self.caps.append(row)
            if neg and not pos:
                if rhs == -1:
                    self.needing |= row_bit
                elif rhs < -1:
                    self.several.append((row_bit, neg, -rhs))
            for _, bit in costs:
                self.against[bit.bit_length() - 1].append(row)
            if cap == 1 and not neg:
                for j, _ in pairs:
                    self.conflicts[j] |= pos & ~(1 << j)
                continue
            costs.sort()
            ranked = sum(bit for _, bit in costs)
            row = (pos | neg, pos, neg, cap, ranked, tuple(costs))
            self.in_rows |= row[0]
            for j, _ in pairs:
                self.cardinal[j].append(row)
        # the variables a covering row may have to pay for, the least one of
        # them costs, and the most rows one of them holds as a -1 term
        self.costly = sum(1 << j for j, g in enumerate(gain) if g < 0)
        self.cheapest = min((-g for g in gain if g < 0), default=1)
        self.widest = max(
            (self.wake[n + j].bit_count() for j in range(n) if self.costly >> j & 1),
            default=0,
        )

    def _state(self, lo: list[int], hi: list[int]) -> tuple[int, int]:
        ones = sum(1 << j for j, l in enumerate(lo) if l)
        zeros = sum(1 << j for j, h in enumerate(hi) if not h)
        return ones, zeros

    def _all_rows(self) -> int:
        return (1 << len(self.caps)) - 1

    def _propagate(self, state, pending: int) -> tuple | None:
        """Tighten ``state`` from the rows of bitmask ``pending`` to a fixpoint.

        Returns the new state and what the fixings took from the optimistic
        bound, or None if a row holds more than its cap.
        """
        ones, zeros = state
        caps = self.caps
        wake = self.wake
        drop = self.drop
        n = self.num_vars
        loss = 0
        while pending:
            low = pending & -pending
            pending ^= low
            pos, neg, cap = caps[low.bit_length() - 1]
            # a row's +1 and -1 members are apart, so its true literals are too
            room = cap - (pos & ones | neg & zeros).bit_count()
            if room:
                if room < 0:
                    return None
                continue
            # every free literal goes false: +1 members to 0, -1 members to 1
            free = ~(ones | zeros)
            down = pos & free
            up = neg & free
            zeros |= down
            ones |= up
            moved = down << n | up
            while moved:
                bit = moved & -moved
                moved ^= bit
                i = bit.bit_length() - 1
                pending |= wake[i]
                loss += drop[i]
        return (ones, zeros), loss

    def _child(self, state, branch: int, value: int) -> tuple | None:
        ones, zeros = state
        bit = 1 << branch
        if value:
            return self._propagate((ones | bit, zeros), self.wake[branch])
        return self._propagate((ones, zeros | bit), self.wake[self.num_vars + branch])

    def _first_free(self, state, start: int) -> int:
        ones, zeros = state
        free = self.full & ~(ones | zeros)
        return (free & -free).bit_length() - 1 if free else self.num_vars

    def _domain(self, state, branch: int) -> tuple[int, int]:
        return 0, 1

    def _dive_branch(self, state, first: int) -> int:
        """The free positive-gain variable of largest ``gain / (d + 1)``, ``d``
        being its conflicts among the free positive-gain variables (the GWMIN
        greedy for weighted independent sets), the lowest-index one on ties;
        ``first`` when there is none."""
        ones, zeros = state
        candidates = self.full & ~(ones | zeros) & self.positive
        conflicts = self.conflicts
        gain = self.gain
        # the ratio 0 / 1, which every positive gain beats
        branch, top, share = first, 0, 1
        scan = candidates
        while scan:
            bit = scan & -scan
            scan ^= bit
            j = bit.bit_length() - 1
            degree = (conflicts[j] & candidates).bit_count() + 1
            if gain[j] * share > top * degree:
                branch, top, share = j, gain[j], degree
        return branch

    def _need_closes(self, state, bound: int, best: int) -> bool:
        """Whether paying for what the open covering rows still need costs at
        least ``bound - best``.

        Every free variable of gain at least 0 sits at 1 in the optimistic
        point, so it covers its rows at no cost. Each covering row then still
        needs its missing ones from its free negative-gain members. The sum of
        the open rows is one surrogate row: member x_j covers d_j of the total
        need, d_j being how many open rows hold it, so a completion takes at
        least as many members as the fewest of largest d_j that cover the
        need, each costing at least ``cheapest``. With equal costs, as in
        every covering program the shipped reductions emit, that is the
        cheapest way to pay for the surrogate row. A node whose members
        cannot cover the need has no feasible completion.
        """
        ones, zeros = state
        free = self.full & ~(ones | zeros)
        taken = ones | (free & ~self.costly)
        # ``wake[n + j]`` masks the rows holding x_j as a -1 term
        wake = self.wake
        last = self.num_vars - 1
        # a row that needs one 1 is open while it holds no taken member
        covered = 0
        rest = taken
        while rest:
            low = rest & -rest
            rest ^= low
            covered |= wake[last + low.bit_length()]
        open_rows = self.needing & ~covered
        need = open_rows.bit_count()
        for bit, mask, required in self.several:
            left = required - (mask & taken).bit_count()
            if left > 0:
                need += left
                open_rows |= bit
        if not need:
            return False
        # the node closes when the ``afford`` members that hold the most open
        # rows are short of the need; members counted by how many each holds
        afford = (bound - best - 1) // self.cheapest
        holding = [0] * (self.widest + 1)
        payers = free & self.costly
        while payers:
            low = payers & -payers
            payers ^= low
            holding[(wake[last + low.bit_length()] & open_rows).bit_count()] += 1
        for d in range(self.widest, 0, -1):
            if holding[d] >= afford:
                return d * afford < need
            need -= d * holding[d]
            afford -= holding[d]
        return need > 0

    def _refute(self, cliques: list[int], singles: int, bound: int, best: int) -> tuple[int, int]:
        """The clique bound ``bound`` less the least top of each inconsistent
        set that unit propagation finds, until it is no better than ``best``
        or no set is left; and the mask of the singletons the sets used.

        Each clique of ``cliques``, a mask, and each singleton of ``singles``
        is taken to hold a 1. No two singletons conflict, so they are forced
        at once and their conflicts banned; a clique left with one member
        outside the banned variables forces it, and a clique left with none
        is a conflict. The conflict's clique, with the forced cliques and
        singletons its banned members trace back to, each to the earliest
        forced variable that banned it, is an inconsistent set. Its cliques
        and singletons leave the propagation, and the caller drops the
        singletons from the row pass, as the cliques already are.
        """
        conflicts = self.conflicts
        gain = self.gain
        spent = 0
        while True:
            banned = 0
            rest = singles
            while rest:
                low = rest & -rest
                rest ^= low
                banned |= conflicts[low.bit_length() - 1]
            keep = ~banned
            # (clique, its forced member, the variables that member newly banned)
            trail = []
            waiting = cliques
            emptied = 0
            while not emptied:
                still = []
                for clique in waiting:
                    left = clique & keep
                    if left & (left - 1):
                        still.append(clique)
                    elif left:
                        newly = conflicts[left.bit_length() - 1] & keep
                        keep &= ~newly
                        trail.append((clique, left, newly))
                    else:
                        emptied = clique
                        break
                if len(still) == len(waiting):
                    break
                waiting = still
            if not emptied:
                return bound, spent
            # the cliques' masks are disjoint, so their union names them
            explain = used = emptied
            found = [emptied]
            # a forced member's other members were banned before it was forced
            for clique, bit, newly in reversed(trail):
                if newly & explain:
                    explain = explain & ~newly | clique ^ bit
                    used |= clique
                    found.append(clique)
            # a clique's top is its largest gain, and a singleton's its gain
            least = self.largest
            for clique in found:
                top = 0
                while clique:
                    low = clique & -clique
                    clique ^= low
                    g = gain[low.bit_length() - 1]
                    if g > top:
                        top = g
                if top < least:
                    least = top
            # what is left was banned by the singletons
            rest = singles
            while explain:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if conflicts[j] & explain:
                    explain &= ~conflicts[j]
                    spent |= low
                    if gain[j] < least:
                        least = gain[j]
            bound -= least
            if bound <= best:
                return bound, spent
            singles &= ~spent
            cliques = [clique for clique in cliques if not clique & used]

    def _closes(self, state, branch: int, bound: int, best: int) -> bool:
        """Whether what the open covering rows still need (``_need_closes``),
        or else the conflict-clique and row relaxation, shows that a node
        cannot beat ``best``.

        Cliques of the conflict graph first cover the free positive-gain
        variables: the lowest uncovered one starts a clique, which grows while
        the running common-neighbour mask holds a candidate. Of two or more it
        takes the one with the most conflicts inside the mask, then the one
        with the fewest uncovered conflicts, then the lowest index, and a
        clique gives up all but its largest gain. When the cliques leave the
        node open by no more than the program's largest gain, ``_refute``
        takes the least top of each inconsistent clique set off the bound,
        and the sets' singletons leave the row pass. Then each free variable
        that no clique of two or more covers, in index order, takes its first
        binding row whose free uncovered variables no row taken so far holds;
        a taken row gets its exact one-row optimum over those variables: it
        gives up the cheapest of them whose optimistic end is a true literal,
        as many as exceed its room. The rest keep their optimistic end.
        """
        if (self.needing or self.several) and self._need_closes(state, bound, best):
            return True
        ones, zeros = state
        free_all = self.full & ~(ones | zeros)
        gain = self.gain
        conflicts = self.conflicts
        uncovered = free_all & self.positive
        # the masks of the cliques of two or more
        cliques = []
        while uncovered:
            low = uncovered & -uncovered
            uncovered ^= low
            j = low.bit_length() - 1
            common = conflicts[j] & uncovered
            if not common:
                continue
            clique = low
            # the clique gives up every gain but its largest, ``top``
            top = gain[j]
            while common:
                bit = common & -common
                if common != bit:
                    # of two or more candidates, the one that keeps the most
                    # of them, then the one fewest other cliques could use
                    most, fewest = -1, 0
                    scan = common
                    while scan:
                        candidate = scan & -scan
                        scan ^= candidate
                        neighbours = conflicts[candidate.bit_length() - 1]
                        inside = (neighbours & common).bit_count()
                        if inside >= most:
                            outside = (neighbours & uncovered).bit_count()
                            if inside > most or outside < fewest:
                                bit, most, fewest = candidate, inside, outside
                clique |= bit
                j = bit.bit_length() - 1
                common &= conflicts[j]
                g = gain[j]
                if g > top:
                    bound -= top
                    top = g
                else:
                    bound -= g
            uncovered &= ~clique
            free_all &= ~clique
            if bound <= best:
                return True
            cliques.append(clique)
        if bound - best <= self.largest and cliques:
            # one inconsistent set could close the node; the positive-gain
            # variables no clique covers are the singletons
            singles = free_all & self.positive
            if singles:
                bound, spent = self._refute(cliques, singles, bound, best)
                if bound <= best:
                    return True
                free_all &= ~spent
        # a variable that no row of ``cardinal`` holds takes no row
        rest = free_all & self.in_rows
        taken = 0
        cardinal = self.cardinal
        while rest:
            low = rest & -rest
            rest ^= low
            for row in cardinal[low.bit_length() - 1]:
                free = row[0] & free_all
                # propagation leaves every row with room, so a row binds
                # only when it has at least two free variables
                if not free & (free - 1) or free & taken:
                    continue
                _, pos, neg, cap, ranked, costs = row
                room = cap - (pos & ones | neg & zeros).bit_count()
                over = (free & ranked).bit_count() - room
                if over <= 0:
                    continue
                for cost, bit in costs:
                    if free & bit:
                        bound -= cost
                        over -= 1
                        if not over:
                            break
                if bound <= best:
                    return True
                taken |= free
                rest &= ~free
                break
        return False

    def _attained(self, state, branch: int) -> int | None:
        """The node's optimistic point, as the mask of its ones, when it
        satisfies every row, else None."""
        ones, zeros = state
        free = self.full & ~(ones | zeros)
        point = ones | (free & self.positive)
        unset = self.full & ~point
        # only a row that a free variable's optimistic end fills can overflow
        while free:
            low = free & -free
            free ^= low
            for pos, neg, cap in self.against[low.bit_length() - 1]:
                if (pos & point | neg & unset).bit_count() > cap:
                    return None
        return point

    def witness(self) -> Configuration:
        point = self.best_point
        return tuple((point >> j & 1) - l for j, (l, _) in enumerate(self.var_bounds))


def _stored_rows(data: IlpData) -> list[Row]:
    """Every constraint as ``<=`` rows of its nonzero ``(index, coeff)`` pairs:
    a ``>=`` row negated, an ``=`` row split in two, in constraint order."""
    rows: list[Row] = []
    for terms, rel, rhs in data.constraints:
        if rel in ("<=", "="):
            rows.append((terms, rhs))
        if rel in (">=", "="):
            rows.append((tuple((j, -a) for j, a in terms), -rhs))
    return rows


def _kernel(data: IlpData, max_nodes: int) -> _Search:
    """The search ``solve_ilp`` runs on ``data``: the 0-1 kernel when every box
    lies in [0, 1] and every coefficient is +1 or -1, the box kernel otherwise."""
    rows = _stored_rows(data)
    zero_one = all(0 <= l and h <= 1 for l, h in data.var_bounds) and all(
        abs(a) == 1 for pairs, _ in rows for _, a in pairs
    )
    if zero_one:
        return _BitSearch(data, rows, max_nodes)
    from .kernel_box import _BoxSearch

    return _BoxSearch(data, rows, max_nodes)
