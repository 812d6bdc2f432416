"""The slotted value types: ``ImpactVector`` and ``CostVector`` compute
their ``total`` once, when they are built, accept their common form in
one test and every other value only through the per-field checks, and
adaptation builds its vectors without re-validating them.  The
precondition nodes are slotted too."""
import dataclasses
import math
import random
import struct
import sys
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, example, given, strategies as st

from react_irs.engine import R_MAX, R_MIN, adapt_on_failure, adapt_on_success
from react_irs.model import (
    LEVELS, CostVector, DomainError, ImpactVector, check_level, check_weight,
)
from react_irs.preconditions import And, Fact, Lit, Not, Or
from _support import make_response

levels = st.sampled_from(LEVELS)
# Ints and floats up to the largest finite one; a float bound of 0.0 leaves
# out -0.0, which ``check_weight`` rejects.
weights = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


def _same(a, b) -> bool:
    """Equal in type and, for floats, bit for bit (so -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


class TestSlots:
    @pytest.mark.parametrize(
        "vector",
        [
            ImpactVector(100, 10, 1, 0, 0.5), CostVector(10, 1, 2.0),
            Lit(True), Fact("a"), Not(Fact("a")), And(Fact("a"), Lit(False)),
            Or(Fact("a"), Lit(False)),
        ],
        ids=["impact", "cost", "lit", "fact", "not", "and", "or"],
    )
    def test_vectors_have_no_instance_dict(self, vector):
        assert not hasattr(vector, "__dict__")
        for field in dataclasses.fields(vector):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vector, field.name, 0.0)

    @pytest.mark.parametrize(
        "make", [lambda: ImpactVector(100, 10, 1, 0, 0.5), lambda: CostVector(10, 1, 2.0)],
        ids=["impact", "cost"],
    )
    def test_total_is_left_out_of_eq_hash_and_repr(self, make):
        a, b = make(), make()
        object.__setattr__(b, "total", -1.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "total" not in repr(a)

    def test_replace_recomputes_the_total(self):
        vec = ImpactVector(100, 10, 1, 0)
        assert vec.total == 111.0
        assert dataclasses.replace(vec, w_s=2.0).total == 211.0
        cost = CostVector(10, 1)
        assert dataclasses.replace(cost, w_perf=3.0).total == 13.0

    def test_int_weights_give_an_int_total(self):
        total = ImpactVector(1, 0, 0, 0, 2, 1, 1, 1).total
        assert type(total) is int and total == 2
        assert type(CostVector(10, 1, 2, 3).total) is int

    def test_negative_zero_weights_are_rejected(self):
        for name in ("w_s", "w_f", "w_o", "w_p"):
            with pytest.raises(DomainError, match=f"{name} must be .*, got -0.0"):
                ImpactVector(100, 10, 1, 0, **{name: -0.0})
        for name in ("w_a", "w_perf"):
            with pytest.raises(DomainError, match=f"{name} must be .*, got -0.0"):
                CostVector(10, 1, **{name: -0.0})


ZEROS = (0.0, 0.0, 0.0, 0.0)


class TestTotals:
    @given(st.tuples(levels, levels, levels, levels), st.tuples(weights, weights, weights, weights))
    @example((100, 10, 1, 0), ZEROS)
    @example((100, 0, 0, 0), (1e307, 0.0, 0.0, 0.0))
    def test_impact_total_is_the_weighted_sum_from_int_zero(self, lv, ws):
        products = [w * v for w, v in zip(ws, lv)]
        # ``sum`` is this left fold on Python 3.10 and 3.11; from 3.12 on it
        # sums floats with compensation, which can round differently.
        expected = reduce(add, products, 0)
        if expected == math.inf:
            # Finite weights can still overflow the total, which is rejected.
            with pytest.raises(DomainError, match="weighted total must be finite, got inf"):
                ImpactVector(*lv, *ws)
            return
        total = ImpactVector(*lv, *ws).total
        assert _same(total, expected)
        if sys.version_info < (3, 12):
            assert _same(total, sum(w * v for w, v in zip(ws, lv)))

    @given(levels, levels, weights, weights)
    @example(100, 0, 1e307, 0.0)
    def test_cost_total_is_the_weighted_sum(self, a, perf, w_a, w_perf):
        expected = w_a * a + w_perf * perf
        if expected == math.inf:
            with pytest.raises(DomainError, match="weighted total must be finite, got inf"):
                CostVector(a, perf, w_a, w_perf)
            return
        assert _same(CostVector(a, perf, w_a, w_perf).total, expected)


class _Float(float):
    """A valid level or weight that is not the common form: not a ``float``."""


#: Every form that only the per-field checks decide on, valid or not.
FALLBACKS = (
    1, 0, 0.0, -0.0, 1.0, 10.0, True, False, math.nan, math.inf, -math.inf,
    2**1100, 2, -1.0, "1", None, _Float(1.0), _Float(0.5),
)
#: The common form: an ``int`` level in ``LEVELS`` and a positive finite
#: ``float`` weight, up to one that overflows a total.
common_weights = st.one_of(
    st.sampled_from((0.5, 1.0, 1.25, 1e308)),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def _fields(draw, n_levels: int) -> tuple:
    """Levels then weights in the common form, some swapped for a fallback."""
    values = [draw(levels) for _ in range(n_levels)] + [draw(common_weights) for _ in range(n_levels)]
    for i in draw(st.sets(st.integers(0, 2 * n_levels - 1))):
        values[i] = draw(st.sampled_from(FALLBACKS))
    return tuple(values)


def _first_failure(values: tuple, names: tuple[str, ...]) -> str | None:
    """The message of the first field, in field order, that its check rejects."""
    n = len(values) // 2
    for i, (value, name) in enumerate(zip(values, names)):
        try:
            (check_level if i < n else check_weight)(value, name)
        except DomainError as exc:
            return str(exc)
    return None


def _fold(values: tuple):
    """The weighted sum as a left fold: from int 0 for an ``ImpactVector``,
    from the first product for a ``CostVector``, as each is built."""
    n = len(values) // 2
    products = [w * level for level, w in zip(values[:n], values[n:])]
    return reduce(add, products, 0) if n == 4 else reduce(add, products)


#: Each vector with its field names as its checks spell them, and one
#: value in the common form.
VECTORS = [
    pytest.param(ImpactVector, ("S", "F", "O", "P", "w_s", "w_f", "w_o", "w_p"),
                 (1, 10, 0, 100, 0.5, 1.2, 1.0, 0.75), id="impact"),
    pytest.param(CostVector, ("A", "Perf", "w_a", "w_perf"), (10, 1, 0.5, 1.2), id="cost"),
]


class TestCommonForm:
    """A vector accepts its common form in one test and sends every other
    value through the per-field checks: it raises exactly when one of them
    does, with the first failing field's message, and otherwise keeps each
    field as given, with the total of the left fold."""

    @staticmethod
    def _agrees(make, names: tuple[str, ...], values: tuple) -> None:
        expected = _first_failure(values, names)
        if expected is None and not _fold(values) <= sys.float_info.max:
            expected = f"weighted total must be finite, got {_fold(values)!r}"
        if expected is not None:
            with pytest.raises(DomainError) as raised:
                make(*values)
            assert str(raised.value) == expected
            return
        vector = make(*values)
        assert all(getattr(vector, f.name) is value
                   for f, value in zip(dataclasses.fields(vector), values))
        assert _same(vector.total, _fold(values))

    @pytest.mark.parametrize("make,names,common", VECTORS)
    def test_each_fallback_in_each_field(self, make, names, common):
        self._agrees(make, names, common)
        for i in range(len(common)):
            for value in FALLBACKS:
                self._agrees(make, names, common[:i] + (value,) + common[i + 1:])

    @given(_fields(4))
    @example((1, 10, 0, 1.0, 0.5, 1.2, 0.0, _Float(0.75)))
    @example((100, 100, 100, 100, 1e308, 1.0, 1.0, 1.0))
    @example((1, 10, 0, 100, 0.5, 1.2, -0.0, 0.75))
    @example((True, 10, 0, 100, 0.5, 1.2, 1.0, 0.75))
    def test_impact_vector(self, values):
        self._agrees(ImpactVector, VECTORS[0].values[1], values)

    @given(_fields(2))
    @example((10, 1.0, 0, _Float(1.2)))
    @example((100, 100, 1e308, 1.0))
    @example((10, 1, -0.0, 1.2))
    @example((10, True, 0.5, 1.2))
    def test_cost_vector(self, values):
        self._agrees(CostVector, VECTORS[1].values[1], values)


def _validated(vector: ImpactVector) -> ImpactVector:
    return ImpactVector(*vector.levels(), *vector.weights())


class TestAdaptedVectors:
    """Adaptation skips the constructor's checks; what it builds must still
    be what the validating constructor builds from the same values."""

    @given(st.tuples(levels, levels, levels, levels), st.tuples(weights, weights, weights, weights))
    @example((100, 10, 1, 0), ZEROS)
    def test_failure_matches_the_validating_constructor(self, lv, ws):
        # A vector whose total overflows is rejected (TestTotals), so no
        # spec holds one to adapt.
        assume(reduce(add, [w * v for w, v in zip(ws, lv)], 0) < math.inf)
        spec = make_response(17, s=lv[0], f=lv[1], o=lv[2], p=lv[3], weights=ws)
        adapted = adapt_on_failure(spec).benefit
        rebuilt = _validated(adapted)
        assert adapted == rebuilt and _same(adapted.total, rebuilt.total)
        assert type(adapted) is ImpactVector

    @given(
        st.tuples(levels, levels, levels, levels),
        st.tuples(weights, weights, weights, weights),
        st.integers(min_value=0, max_value=2**32),
    )
    @example((100, 10, 1, 0), ZEROS, 7)
    @example((100, 10, 1, 0), (1.7e308,) * 4, 7)
    def test_success_matches_the_validating_constructor(self, lv, ws, seed):
        spec = make_response(17, weights=ws)
        spec = dataclasses.replace(spec, original_benefit=ImpactVector(*lv))
        draws = random.Random(seed)
        products = [w * draws.uniform(R_MIN, R_MAX) for w in ws]
        try:
            adapted = adapt_on_success(spec, random.Random(seed)).benefit
        except DomainError as exc:
            # Only an overflowing weight or total is rejected, and the
            # validating constructor rejects the same one.
            with pytest.raises(DomainError) as expected:
                ImpactVector(*lv, *products)
            assert str(exc) == str(expected.value)
            return
        rebuilt = ImpactVector(*lv, *products)
        assert adapted == rebuilt == _validated(adapted)
        assert _same(adapted.total, rebuilt.total)
