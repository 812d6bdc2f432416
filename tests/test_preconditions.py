import pytest
from hypothesis import given, strategies as st

from react_irs.preconditions import (
    And,
    Fact,
    Lit,
    Not,
    Or,
    Precondition,
    PreconditionError,
    evaluate,
    parse_expr,
    tokenize,
)


class TestParsing:
    def test_literals(self):
        assert parse_expr("true") == Lit(True)
        assert parse_expr("false") == Lit(False)

    def test_fact_name(self):
        assert parse_expr("driver_notified") == Fact("driver_notified")

    def test_not_binds_tighter_than_and(self):
        assert parse_expr("!a && b") == And(Not(Fact("a")), Fact("b"))

    def test_and_binds_tighter_than_or(self):
        assert parse_expr("a || b && c") == Or(Fact("a"), And(Fact("b"), Fact("c")))

    def test_parentheses_override_precedence(self):
        assert parse_expr("(a || b) && c") == And(Or(Fact("a"), Fact("b")), Fact("c"))

    def test_double_negation(self):
        assert parse_expr("!!a") == Not(Not(Fact("a")))

    def test_chained_operators_left_associative(self):
        assert parse_expr("a && b && c") == And(And(Fact("a"), Fact("b")), Fact("c"))

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "a &&", "&& a", "(a", "a)", "a b", "A", "a-b", "a || || b", "!"],
    )
    def test_malformed_input_rejected(self, bad):
        with pytest.raises(PreconditionError):
            parse_expr(bad)

    def test_error_reports_offset(self):
        with pytest.raises(PreconditionError, match="offset"):
            tokenize("ok & bad")


class TestEvaluation:
    def test_truth_table_and(self):
        expr = parse_expr("a && b")
        assert evaluate(expr, {"a": True, "b": True}) is True
        assert evaluate(expr, {"a": True, "b": False}) is False
        assert evaluate(expr, {"a": False, "b": True}) is False

    def test_truth_table_or(self):
        expr = parse_expr("a || b")
        assert evaluate(expr, {"a": False, "b": False}) is False
        assert evaluate(expr, {"a": False, "b": True}) is True

    def test_unknown_fact_is_false(self):
        assert evaluate(parse_expr("missing"), {}) is False
        assert evaluate(parse_expr("!missing"), {}) is True

    def test_mixed_expression(self):
        expr = parse_expr("vehicle_stationary || driver_notified")
        assert evaluate(expr, {"driver_notified": True}) is True
        assert evaluate(expr, {}) is False

    def test_guard_with_negation(self):
        expr = parse_expr("update_available && !driving")
        assert evaluate(expr, {"update_available": True, "driving": True}) is False
        assert evaluate(expr, {"update_available": True}) is True


class TestPreconditionWrapper:
    def test_keeps_source_text(self):
        pc = Precondition.parse("a  &&  !b")
        assert pc.tree == And(Fact("a"), Not(Fact("b")))
        assert pc.evaluate({"a": True}) is True
        assert pc.evaluate({"a": True, "b": True}) is False

    def test_always_true_constant(self):
        pc = Precondition.parse("true")
        assert pc.tree == Lit(True)
        assert pc.evaluate({}) is True
        assert pc.evaluate({"a": False}) is True


names = st.sampled_from(["a", "b", "c", "engine_on", "x1"])


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(names)
        return draw(st.sampled_from(["true", "false"]))
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    op = draw(st.sampled_from(["&&", "||", "!"]))
    if op == "!":
        return f"!({left})"
    return f"({left}) {op} ({right})"


@given(expressions(), st.dictionaries(names, st.booleans()))
def test_matches_python_boolean_semantics(source, facts):
    expr = parse_expr(source)
    py = (
        source.replace("&&", " and ")
        .replace("||", " or ")
        .replace("!", " not ")
        .replace("true", " True ")
        .replace("false", " False ")
    )
    expected = eval(py, {"__builtins__": {}}, {n: facts.get(n, False) for n in ["a", "b", "c", "engine_on", "x1"]})
    assert evaluate(expr, facts) == bool(expected)


@given(expressions(), st.dictionaries(names, st.booleans()))
def test_negation_flips_result(source, facts):
    assert evaluate(parse_expr(f"!({source})"), facts) is not evaluate(
        parse_expr(source), facts
    )
