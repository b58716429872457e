"""Every integer argument of the library, tried with the three usual mistakes.

Each boundary gets a ``bool``, a ``float`` and, where it has a range, a value
just below it.  The exception type is asserted exactly, and the message must
name the argument at fault.  All but the ``EpsSeries`` coefficients and the
exponent of ``**`` go through ``exactnum.check_ints``, the one integer rule.
The residue engine's doors take term, factor and form coefficients, which
may be any exact number: each also gets a ``complex`` and a ``str``.
"""

import pytest

from qmres.exactnum import EpsSeries, check_ints
from qmres.givode import XEPoly, apply_operator, build_solution
from qmres.quasimap import Query, hypergeom_ladder, hypergeom_series
from qmres.resengine import PrescriptionError, RatExpr, make_term, residue_at_form_root, residue_at_zero

SERIES = EpsSeries([1, 2, 3])
# 1 / (z0 z1 (z0 - z1)): z0 is a pole at zero and a root of the form
EXPR = RatExpr.of([0, 1], [make_term(1, {0: -1, 1: -1}, [({0: 1, 1: -1}, -1)])])
LADDER = hypergeom_ladder(3, 1, 2, 1)


def _positional(label: str, fn, args: tuple, names: tuple, leasts: tuple) -> list:
    """The cases of the first ``len(names)`` positional arguments of ``fn(*args)``."""
    cases = []
    for index, (name, least) in enumerate(zip(names, leasts)):

        def call(value, index=index):
            return fn(*args[:index], value, *args[index + 1:])

        text = f"{name} must be non-negative" if least == 0 else f"{name} must be at least {least}"
        cases += _cases(f"{label}-{name}", call, name, (least - 1, ValueError, text))
    return cases


def _cases(label: str, call, name: str, below=None) -> list:
    """``True`` and ``1.0`` raise ``TypeError("<name> must be an int")``; ``below`` is its own case."""
    cases = [
        pytest.param(call, True, TypeError, f"{name} must be an int", id=f"{label}-bool"),
        pytest.param(call, 1.0, TypeError, f"{name} must be an int", id=f"{label}-float"),
    ]
    if below is not None:
        value, error, text = below
        cases.append(pytest.param(call, value, error, text, id=f"{label}-below"))
    return cases


def _inexact(label: str, call, name: str) -> list:
    """A ``bool``, ``float``, ``complex`` and ``str`` coefficient raise a TypeError naming it."""
    values = [("bool", True), ("float", 1.5), ("complex", 1j), ("str", "3")]
    return [
        pytest.param(call, v, TypeError, f"{name} must be exact, got the {kind} {v!r}",
                     id=f"{label}-{kind}")
        for kind, v in values
    ]


BOUNDARIES = [
    *_cases("EpsSeries-order", lambda v: EpsSeries([1, 2], v), "order",
            (-1, ValueError, "order must be non-negative")),
    *_cases("EpsSeries-coefficient", SERIES.coefficient, "j",
            (-1, IndexError, "j must lie in 0..2, got -1")),
    # a float exponent is a foreign operand, so Python's own TypeError names the types
    pytest.param(lambda v: SERIES ** v, True, TypeError, "exponent must be an int",
                 id="EpsSeries-pow-bool"),
    pytest.param(lambda v: SERIES ** v, 1.0, TypeError, "'EpsSeries' and 'float'",
                 id="EpsSeries-pow-float"),
    # a coefficient may be any exact rational, so it has no range
    pytest.param(lambda v: EpsSeries([v, 2], 2), True, TypeError,
                 "EpsSeries coefficients must not be bool, got True", id="EpsSeries-coeffs-bool"),
    pytest.param(lambda v: EpsSeries([v, 2], 2), 1.0, TypeError,
                 "EpsSeries coefficients must be exact, got the float 1.0",
                 id="EpsSeries-coeffs-float"),
    *_positional("Query", Query, (3, 2, 1, 0, 2), ("N", "k", "d", "j", "j_max"), (2, 1, 1, 0, 0)),
    *_positional("hypergeom_series", hypergeom_series, (3, 2, 1, 2), ("N", "k", "d", "j_max"),
                 (2, 1, 0, 0)),
    *_positional("hypergeom_ladder", hypergeom_ladder, (3, 2, 1, 2), ("N", "k", "e_max", "j_max"),
                 (2, 1, 0, 0)),
    *_cases("build_solution-j", lambda v: build_solution(LADDER, v), "j",
            (-1, ValueError, "0 <= j <= N-2")),
    *_positional("apply_operator", apply_operator, (3, 1, XEPoly(((1,), (1,)))), ("N", "k"), (2, 1)),
    *_cases("XEPoly-den", lambda v: XEPoly(((1,),), v), "den",
            (0, ValueError, "den must be at least 1")),
    *_cases("residue_at_zero-var", lambda v: residue_at_zero(EXPR, v), "var",
            (-1, PrescriptionError, "z-1 is not a live variable")),
    *_cases("residue_at_form_root-var", lambda v: residue_at_form_root(EXPR, v, {0: 1, 1: -1}),
            "var", (-1, PrescriptionError, "z-1 is not a live variable")),
    # the engine's doors: make_term, RatExpr.mul_terms and mapping forms
    *_cases("make_term-variable", lambda v: make_term(2, {v: -1}), "monomial variable"),
    *_cases("make_term-exponent", lambda v: make_term(2, {0: v}), "exponent"),
    *_cases("make_term-form-variable", lambda v: make_term(2, None, [({v: 1, 1: -1}, -1)]),
            "form variable"),
    *_cases("make_term-form-power", lambda v: make_term(2, None, [({0: 1, 1: -1}, v)]),
            "form power"),
    *_cases("mul_terms-exponent", lambda v: EXPR.mul_terms([(1, {0: v}, ())]), "exponent"),
    *_cases("residue_at_form_root-form-variable",
            lambda v: residue_at_form_root(EXPR, 0, {0: 1, v: -1}), "form variable"),
    *_inexact("make_term-coefficient", lambda v: make_term(v, {0: -1}), "coefficient"),
    *_inexact("mul_terms-coefficient", lambda v: EXPR.mul_terms([(v, None, ())]), "coefficient"),
    *_inexact("make_term-form-coefficient", lambda v: make_term(2, None, [({0: v, 1: -1}, -1)]),
              "form coefficient"),
    *_inexact("mul_terms-form-coefficient", lambda v: EXPR.mul_terms([(1, None, [({0: v}, 1)])]),
              "form coefficient"),
    *_inexact("residue_at_form_root-form-coefficient",
              lambda v: residue_at_form_root(EXPR, 0, {0: v, 1: -1}), "form coefficient"),
]


@pytest.mark.parametrize("call, value, error, text", BOUNDARIES)
def test_integer_boundary_names_its_argument(call, value, error, text):
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert text in str(exc.value)


def test_every_type_before_any_range():
    with pytest.raises(TypeError, match="^b must be an int$"):
        check_ints(("a", -5, 0), ("b", True, 0))
    with pytest.raises(TypeError, match="^k must be an int$"):
        Query(1, 2.0, 0)
    with pytest.raises(ValueError, match="^a must be non-negative$"):
        check_ints(("a", -5, 0), ("b", -5, 3))
    check_ints(("a", -5, None), ("b", 3, 3))
