import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hopfwave import exprlang
from hopfwave.errors import EvalDomainError, ParseError, UnknownIdentifier

CORPUS = [
    "sin(pi*x/2)",
    "u1^3/6",
    "2/pi",
    "x^2*exp(lambda) - u2*tanh(x)",
    "sqrt(1 + u3^2)",
    "cos(pi*x)*u4 + u1*u1",
    "1/(2 + sin(x))",
    "exp(-lambda*x)*(u1 + u2)^3",
    "x^-2 + 0.5e-1*u3",
]


def _env(rng):
    return {"x": rng.uniform(0.1, 0.9), "lambda": rng.uniform(-0.5, 0.5),
            "u1": rng.uniform(-1, 1), "u2": rng.uniform(-1, 1),
            "u3": rng.uniform(-1, 1), "u4": rng.uniform(-1, 1)}


# the printed form of each CORPUS tree and of its x and u1 derivatives, as
# EvalDomainError messages carry it: fixes precedence, spacing and folding
PRINTED = {
    "sin(pi*x/2)": ("sin(pi*x/2.0)", "cos(pi*x/2.0)*(pi/2.0)", "0.0"),
    "u1^3/6": ("u1^3/6.0", "0.0", "3.0*u1^2/6.0"),
    "2/pi": ("2.0/pi", "0.0", "0.0"),
    "x^2*exp(lambda) - u2*tanh(x)": (
        "x^2*exp(lambda) - u2*tanh(x)",
        "2.0*x*exp(lambda) - u2*(1.0 - tanh(x)*tanh(x))", "0.0"),
    "sqrt(1 + u3^2)": ("sqrt(1.0 + u3^2)", "0.0", "0.0"),
    "cos(pi*x)*u4 + u1*u1": ("cos(pi*x)*u4 + u1*u1", "-sin(pi*x)*pi*u4", "u1 + u1"),
    "1/(2 + sin(x))": ("1.0/(2.0 + sin(x))",
                       "-(cos(x)/((2.0 + sin(x))*(2.0 + sin(x))))", "0.0"),
    "exp(-lambda*x)*(u1 + u2)^3": (
        "exp(-lambda*x)*(u1 + u2)^3", "exp(-lambda*x)*(-lambda)*(u1 + u2)^3",
        "exp(-lambda*x)*(3.0*(u1 + u2)^2)"),
    "x^-2 + 0.5e-1*u3": ("x^-2 + 0.05*u3", "-2.0*x^-3", "0.0"),
}


def test_printed_forms():
    assert list(PRINTED) == CORPUS
    for text, want in PRINTED.items():
        e = exprlang.parse(text)
        assert (str(e), str(e.diff("x")), str(e.diff("u1"))) == want


def test_parse_eval_examples():
    assert exprlang.parse("sin(pi*x/2)").eval({"x": 1.0}) == pytest.approx(1.0, abs=1e-15)
    assert exprlang.parse("u1^3/6").eval({"u1": 2.0}) == pytest.approx(8.0 / 6.0, rel=1e-15)
    # constant folding against high-precision 2/pi
    assert exprlang.parse("2/pi").eval({}) == pytest.approx(0.6366197723675814, abs=1e-16)


def test_roundtrip_print_parse():
    rng = np.random.default_rng(7)
    for text in CORPUS:
        e = exprlang.parse(text)
        e2 = exprlang.parse(str(e))
        for _ in range(20):
            env = _env(rng)
            assert e.eval(env) == pytest.approx(e2.eval(env), rel=1e-14, abs=1e-14)


def test_diff_examples():
    e = exprlang.parse("u1^3/6").diff("u1", 3)
    assert e.eval({"u1": 17.3}) == pytest.approx(1.0, rel=1e-15)
    d = exprlang.parse("sin(pi*x/2)").diff("x")
    assert d.eval({"x": 0.0}) == pytest.approx(np.pi / 2, rel=1e-15)
    d = exprlang.parse("u2*exp(lambda)").diff("u2")
    assert d.eval({"lambda": 0.0, "u2": 3.0}) == pytest.approx(1.0, rel=1e-15)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    for text in CORPUS:
        e = exprlang.parse(text)
        for var in ("x", "lambda", "u1", "u2", "u3", "u4"):
            d = e.diff(var)
            for _ in range(10):
                env = _env(rng)
                h = 1e-6 * (1.0 + abs(env[var]))
                lo, hi = dict(env), dict(env)
                lo[var] -= h
                hi[var] += h
                fd = (e.eval(hi) - e.eval(lo)) / (2 * h)
                ad = d.eval(env)
                assert abs(ad - fd) <= 1e-6 * (1.0 + abs(ad))


def test_mixed_partial_symmetry():
    rng = np.random.default_rng(13)
    for text in CORPUS:
        e = exprlang.parse(text)
        for v1, v2 in (("x", "u1"), ("u1", "u2"), ("lambda", "u3")):
            d12 = e.diff(v1).diff(v2)
            d21 = e.diff(v2).diff(v1)
            for _ in range(10):
                env = _env(rng)
                assert d12.eval(env) == pytest.approx(d21.eval(env),
                                                      rel=1e-12, abs=1e-12)


def test_diff_linearity():
    rng = np.random.default_rng(17)
    e1 = exprlang.parse("sin(pi*x/2)*u1")
    e2 = exprlang.parse("exp(lambda)*u1^2")
    combo = exprlang.parse("3*sin(pi*x/2)*u1 - 2*(exp(lambda)*u1^2)")
    d_combo = combo.diff("u1")
    d1, d2 = e1.diff("u1"), e2.diff("u1")
    for _ in range(20):
        env = _env(rng)
        expect = 3 * d1.eval(env) - 2 * d2.eval(env)
        assert d_combo.eval(env) == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_vectorized_eval_broadcasts():
    e = exprlang.parse("sin(pi*x/2) + u1")
    x = np.linspace(0, 1, 33)
    out = e.eval({"x": x, "u1": 0.25})
    assert out.shape == x.shape
    assert out[-1] == pytest.approx(1.25)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        exprlang.parse("sin(x")
    assert err.value.position == 5
    with pytest.raises(UnknownIdentifier):
        exprlang.parse("foo(x)")
    with pytest.raises(UnknownIdentifier):
        exprlang.parse("x + y")
    with pytest.raises(ParseError):
        exprlang.parse("x ^ u1")      # exponent must be an integer literal
    with pytest.raises(ParseError):
        exprlang.parse("x + 1 )")
    with pytest.raises(ParseError):
        exprlang.parse("x^1.5")


def test_integer_exponents_including_negative():
    e = exprlang.parse("x^-2")
    assert e.eval({"x": 2.0}) == pytest.approx(0.25)
    with pytest.raises(EvalDomainError):
        e.eval({"x": 0.0})


def test_domain_errors_raise():
    with pytest.raises(EvalDomainError):
        exprlang.parse("1/x").eval({"x": 0.0})
    with pytest.raises(EvalDomainError):
        exprlang.parse("sqrt(x)").eval({"x": -1.0})
    with pytest.raises(EvalDomainError):
        exprlang.parse("sin(x)").eval({})   # unbound variable
    # constant powers that cannot be folded stay in the tree for eval to
    # report, instead of a bare ZeroDivisionError/OverflowError from parse
    with pytest.raises(EvalDomainError):
        exprlang.parse("u1 + 0^-1").eval({"u1": 1.0})
    with pytest.raises(EvalDomainError):
        exprlang.parse("1e200^2").eval({})
    with pytest.raises(EvalDomainError):
        exprlang.parse("u1*0^-1").diff("u1").eval({"u1": 1.0})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_result_raises_in_any_element(bad):
    # the finiteness test must catch one non-finite value wherever it
    # sits in a 257-node array, and a non-finite scalar result
    e = exprlang.parse("2*u1 + x")
    x = np.linspace(0.0, 1.0, 257)
    for i in range(257):
        u1 = np.zeros(257)
        u1[i] = bad
        with pytest.raises(EvalDomainError):
            e.eval({"x": x, "u1": u1})
    with pytest.raises(EvalDomainError):
        e.eval({"x": 0.5, "u1": bad})
    # a non-finite value made inside the evaluation raises the same way,
    # not as a numpy floating-point warning
    u1 = np.ones(257)
    u1[100] = 0.0
    with pytest.raises(EvalDomainError):
        exprlang.parse("x/u1").eval({"x": x, "u1": u1})


def test_eval_gives_back_the_callers_error_state():
    # eval turns numpy's warnings off for itself only: after a result and
    # after a domain error the caller's state is back, here one that would
    # raise on the division by zero that eval silences
    e = exprlang.parse("x/u1")
    with np.errstate(all="raise"):
        before = np.geterr()
        assert e.eval({"x": 2.0, "u1": np.ones(3)}) == pytest.approx(2.0)
        assert np.geterr() == before
        with pytest.raises(EvalDomainError):
            e.eval({"x": 2.0, "u1": np.zeros(3)})
        assert np.geterr() == before


def test_unguarded_eval_keeps_the_contract():
    # the evaluation the time stepper runs inside its own error state: the
    # values, exceptions and messages of eval, for a constant too
    with np.errstate(all="ignore"):
        for text, env in (("0*u1", {}), ("2*u1 + x", {"x": 0.5, "u1": np.arange(3.0)})):
            e = exprlang.parse(text)
            assert np.array_equal(e.eval_unguarded(env), e.eval(env))
        e = exprlang.parse("x/u1")
        for env in ({"x": 1.0, "u1": np.zeros(2)}, {"x": 1.0, "u1": 0.0}, {"x": 1.0}):
            with pytest.raises(EvalDomainError) as want:
                e.eval(env)
            with pytest.raises(EvalDomainError) as got:
                e.eval_unguarded(env)
            assert str(got.value) == str(want.value)


def test_nodes_are_immutable():
    e = exprlang.parse("x + 1")
    with pytest.raises(Exception):
        e.a = exprlang.Num(2.0)


# ---------------------------------------------------------------------------
# limits of the compiled evaluator: source depth, exponent size, constants

def test_long_sum_evaluates_on_arrays():
    # a flat 600-term sum parses into a tree 600 deep; its compiled source
    # must not nest that deep
    e = exprlang.parse(" + ".join(f"{k}*u1*x" for k in range(1, 601)))
    x = np.linspace(0.0, 1.0, 9)
    u1 = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(e.eval({"x": x, "u1": u1}), 180300.0 * u1 * x,
                       rtol=1e-13, atol=1e-10)


def test_huge_integer_exponent():
    e = exprlang.parse("x^100000")
    assert e.eval({"x": 1.0}) == 1.0
    with pytest.raises(EvalDomainError):
        e.eval({"x": 2.0})


def test_infinite_literal_raises_domain_error():
    with pytest.raises(EvalDomainError):
        exprlang.parse("1e400").eval({})
    with pytest.raises(EvalDomainError):
        exprlang.parse("u1 + 1e400").eval({"u1": np.zeros(3)})


def test_third_derivatives_of_product_chain():
    # d^3/du1^3 of prod_k (1 + k u1) at u1 = 0 is 6 e3(1..12), e3 the third
    # elementary symmetric polynomial; the mixed third partial of a chain
    # in all four u variables has a closed form too
    chain = exprlang.parse("*".join(f"(1 + {k}*u1)" for k in range(1, 13)))
    want = 6.0 * sum(i * j * k for i, j, k in itertools.combinations(range(1, 13), 3))
    assert chain.diff("u1", 3).eval({"u1": 0.0}) == pytest.approx(want, rel=1e-13)
    assert np.allclose(chain.diff("u1", 3).eval({"u1": np.zeros(4)}), want, rtol=1e-13)
    mixed = exprlang.parse("u1*u2*u3*u4*sin(x)*exp(u1)").diff("u1").diff("u2").diff("u3")
    env = {"x": 0.3, "u1": 0.2, "u2": -0.4, "u3": 0.7, "u4": 1.1}
    assert mixed.eval(env) == pytest.approx((1 + 0.2) * np.exp(0.2) * 1.1 * np.sin(0.3),
                                            rel=1e-14)


# ---------------------------------------------------------------------------
# property tests: random trees against a tree-walk reference evaluator

E = exprlang
# product-versus-pow rounding: each power may differ from pow by a few
# ulps; the bound leaves room for the rest of a depth-4 tree to amplify it
RTOL, ATOL = 1e-9, 1e-12


def _walk(e, env):
    if isinstance(e, E.Num):
        return e.value
    if isinstance(e, E.Pi):
        return math.pi
    if isinstance(e, E.Var):
        return env[e.name]
    if isinstance(e, E.Neg):
        return -_walk(e.a, env)
    if isinstance(e, E.Fun):
        return getattr(np, e.name)(_walk(e.arg, env))
    if isinstance(e, E.Pow):
        # IEEE powers, as the compiled products give them: an overflow is
        # inf, where a Python float's ** raises OverflowError; a scalar
        # power goes back to a Python float, so 1/0 still raises
        p = np.float64(_walk(e.base, env)) ** abs(e.n)
        p = float(p) if np.ndim(p) == 0 else p
        return p if e.n >= 0 else 1.0 / p
    a, b = _walk(e.a, env), _walk(e.b, env)
    return {"+": operator.add, "-": operator.sub,
            "*": operator.mul, "/": operator.truediv}[e.op](a, b)


def reference_eval(e, env):
    """Tree-walk evaluation with Expr.eval's domain contract."""
    try:
        with np.errstate(all="ignore"):
            val = _walk(e, env)
    except (KeyError, ZeroDivisionError, OverflowError):
        raise EvalDomainError("reference") from None
    if not np.all(np.isfinite(val)):
        raise EvalDomainError("reference")
    return val


def _trees(depth):
    leaf = st.one_of(st.builds(E.Num, st.floats(-3.0, 3.0)),
                     st.builds(E.Var, st.sampled_from(exprlang.VARIABLES)),
                     st.just(E.Pi()))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        *(st.builds(E.BinOp, st.just(op), sub, sub) for op in "+-*/"),
        st.builds(E.Pow, sub, st.integers(-4, 7)),
        st.builds(E.Neg, sub),
        st.builds(E.Fun, st.sampled_from(exprlang.FUNCTIONS), sub))


TREES = _trees(4)
VALUE = st.floats(-2.0, 2.0)
ENVS = st.one_of(
    st.fixed_dictionaries({v: VALUE for v in exprlang.VARIABLES}),
    st.fixed_dictionaries({v: st.lists(VALUE, min_size=3, max_size=3).map(np.array)
                           for v in exprlang.VARIABLES}))
PROPERTY = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def _outcome(fn, e, env):
    try:
        return fn(e, env)
    except EvalDomainError:
        return None


# a power that overflows: the compiled products give inf and 1/inf = 0, on
# a constant base and on a base in u1 with a scalar and an array env
_HUGE = E.BinOp("/", E.Num(1.0), E.Num(4.98e-262))
_HUGE_U1 = E.BinOp("/", E.Var("u1"), E.Num(4.98e-262))


@PROPERTY
@given(TREES, ENVS)
@example(E.Pow(_HUGE, -2), {v: 0.0 for v in exprlang.VARIABLES})
@example(E.Pow(_HUGE_U1, -2), {v: 1.0 for v in exprlang.VARIABLES})
@example(E.Pow(_HUGE_U1, -2), {v: np.ones(3) for v in exprlang.VARIABLES})
def test_compiled_eval_matches_tree_walk(e, env):
    want = _outcome(reference_eval, e, env)
    got = _outcome(lambda e, env: e.eval(env), e, env)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.allclose(got, want, rtol=RTOL, atol=ATOL)


@PROPERTY
@given(TREES, st.sampled_from(exprlang.VARIABLES),
       st.fixed_dictionaries({v: st.integers(-96, 96).map(lambda k: k / 64.0)
                              for v in exprlang.VARIABLES}))
def test_diff_matches_central_differences(e, var, env):
    # points where the difference quotient cannot converge are skipped: its
    # rounding noise eps |f| / h must be small, and the quotients at h and
    # 2h must agree (no pole or kink nearby) before the derivative is
    # judged against them
    def quotient(h):
        lo, hi = dict(env), dict(env)
        lo[var] -= h
        hi[var] += h
        return (e.eval(hi) - e.eval(lo)) / (2 * h)

    h = 1e-5
    try:
        f = e.eval(env)
        ad = e.diff(var).eval(env)
        fd, fd2 = quotient(h), quotient(2 * h)
    except EvalDomainError:
        assume(False)
    scale = 1.0 + abs(fd)
    assume(1e-16 * abs(f) / h <= 1e-8 * scale and abs(fd - fd2) <= 1e-6 * scale)
    assert abs(ad - fd) <= 1e-5 * scale
