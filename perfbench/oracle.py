"""Correctness checks against the independent reference algebra.

Every subscription the benchmark registers carries a *reference* builder
that evaluates the same query from scratch with
``repro.relational.algebra`` / ``repro.relational.aggregate`` over the
current table contents.  The live result and the reference are compared
after instantiation at several reference times — the paper's invariant
``‖Q(D)‖rt == Q(‖D‖rt)`` read as "the maintained result equals a fresh
evaluation at every rt".

The reference never calls the engine's planner, executor or delta code.
Joins run partition by partition on their equality key (an identity of
the algebra: pairs with different keys never satisfy the predicate), so
the nested-loop reference join stays affordable at benchmark scale.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Sequence

from repro.relational import algebra
from repro.relational.aggregate import group_by
from repro.relational.relation import OngoingRelation

Reference = Callable[[Dict[str, OngoingRelation]], OngoingRelation]


def snapshot_tables(database, names: Iterable[str] = ("A", "B", "S")):
    """The current contents of the named tables as immutable relations."""
    return {name: database.relation(name) for name in names}


def selection(table: str, predicate) -> Reference:
    return lambda tables: algebra.select(tables[table], predicate)


def grouped_count(table: str, predicate, column: str, output: str) -> Reference:
    def build(tables):
        selected = algebra.select(tables[table], predicate)
        return group_by(selected, [column], "count", output_name=output)

    return build


def newest(table: str, key: str, limit: int) -> Reference:
    """``ORDER BY key DESC LIMIT k`` over a table whose *key* is unique
    and whose rows all carry the trivial reference time."""

    def build(tables):
        relation = tables[table]
        position = relation.schema.index_of(key)
        ranked = sorted(relation, key=lambda item: item.values[position], reverse=True)
        return OngoingRelation(relation.schema, ranked[:limit])

    return build


def partitioned_join(
    left: str,
    right: str,
    key: str,
    predicate,
    *,
    right_filter=None,
    left_name: str,
    right_name: str,
) -> Reference:
    """``left ⋈ right`` on ``left.key = right.key ∧ predicate``, evaluated
    with :func:`algebra.join` once per key value."""

    def build(tables):
        left_rel = tables[left]
        right_rel = tables[right]
        if right_filter is not None:
            right_rel = algebra.select(right_rel, right_filter)
        left_pos = left_rel.schema.index_of(key)
        right_pos = right_rel.schema.index_of(key)
        right_parts: Dict[object, List] = defaultdict(list)
        for item in right_rel:
            right_parts[item.values[right_pos]].append(item)
        left_parts: Dict[object, List] = defaultdict(list)
        for item in left_rel:
            if item.values[left_pos] in right_parts:
                left_parts[item.values[left_pos]].append(item)

        def part(left_items, right_items) -> OngoingRelation:
            return algebra.join(
                OngoingRelation(left_rel.schema, left_items),
                OngoingRelation(right_rel.schema, right_items),
                predicate,
                left_name=left_name,
                right_name=right_name,
            )

        out = []
        for value, left_items in left_parts.items():
            out.extend(part(left_items, right_parts[value]).tuples)
        return OngoingRelation(part((), ()).schema, out)

    return build


def mismatches(
    label: str,
    actual: OngoingRelation,
    expected: OngoingRelation,
    reference_times: Sequence[int],
) -> List[str]:
    """One message per reference time at which the instantiations differ."""
    problems = []
    for rt in reference_times:
        got = actual.instantiate(rt)
        want = expected.instantiate(rt)
        if got != want:
            problems.append(
                f"{label}: rt={rt}: {len(got - want)} unexpected, "
                f"{len(want - got)} missing of {len(want)} rows"
            )
    return problems


class DeltaReplay:
    """Rebuilds a result from the notifications one subscriber received.

    Starting from the result at subscribe time, each result-level delta
    is applied in delivery order; a notification without a delta (a full
    refresh) resets the state to the delivered result.  If every change
    reached the subscriber, the replayed state equals the final result.
    """

    def __init__(self, initial: OngoingRelation):
        self.state = Counter(initial.tuples)

    def apply(self, notification) -> None:
        delta = notification.delta
        if delta is None:
            self.state = Counter(notification.result.tuples)
            return
        for item in delta.deleted:
            self.state[item] -= 1
        for item in delta.inserted:
            self.state[item] += 1

    def matches(self, final: OngoingRelation) -> bool:
        present = {item for item, count in self.state.items() if count > 0}
        negative = any(count < 0 for count in self.state.values())
        return not negative and present == set(final.tuples)
