"""The decision wrapper: a Max or Min problem and a bound, asked as an Or.

Also the one forward map out of a decision problem, DecisionMIS to MIS,
which keeps the wrapped instance. Only the stages that build a decision
instance load this module.
"""

from __future__ import annotations

from ..errors import KindError, Record
from ..model import Configuration, Problem, ValueKind


class DecisionProblem(Record, Problem):
    """Threshold wrapper turning an optimization problem into a decision one.

    A configuration answers true iff it is feasible for the inner problem and
    its payload meets the bound (>= for Max, <= for Min). A record of
    ``inner`` and ``bound``, compared and hashed by both; its type name is
    ``Decision`` before the inner problem's.
    """

    inner: Problem
    bound: int

    kind = ValueKind.OR

    def __post_init__(self) -> None:
        if self.inner.kind not in (ValueKind.MAX, ValueKind.MIN):
            raise KindError(f"cannot decision-wrap a {self.inner.kind.value} problem")

    @property
    def type_name(self) -> str:
        return "Decision" + self.inner.type_name

    @property
    def variant_tags(self) -> dict[str, str]:
        return self.inner.variant_tags

    def config_dims(self) -> tuple[int, ...]:
        return self.inner.config_dims()

    def num_variables(self) -> int:
        return self.inner.num_variables()

    def size_measures(self) -> dict[str, int]:
        return self.inner.size_measures()

    def _meets(self, payload: int | float) -> bool:
        if self.inner.kind is ValueKind.MAX:
            return payload >= self.bound
        return payload <= self.bound

    def _measure(self, config: Configuration) -> tuple[bool, bool]:
        payload, feasible = self.inner._measure(config)
        return feasible and self._meets(payload), True

    def _optimistic_payload(self, prefix: Configuration) -> bool:
        best = self.inner._optimistic_payload(prefix)
        return best is not None and self._meets(best)

    def to_data(self) -> dict:
        data = self.inner.to_data()
        data["bound"] = self.bound
        return data


def decision_wrap(inner: Problem, bound: int) -> DecisionProblem:
    return DecisionProblem(inner, bound)


def forward_decision_mis(instance: DecisionProblem) -> tuple[Problem, dict]:
    return instance.inner, {"num_vertices": instance.inner.graph.num_vertices}
