"""One owner per argument rule.

The approximant's rules for (kind, n, p, z) are raised by ``approximation``
alone: every other entry point that takes those arguments raises exactly
what ``ApproxRequest`` raises for them.  The exact series coefficients of
``fixtures``, the references the error's closed form is checked against,
call the same rules for n and p, but not n < 4p, for they exist at every
order.  The oracle keeps its own rules and imports nothing from the
package.  The structure checks read the source, so a copy of a rule that
drifts back in fails here before its wording does.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import besselhyp
from besselhyp.analysis import first_mismatch_order, fit_error_slope, hp_approx, hp_error, hp_ref
from besselhyp.approximation import ApproxRequest, DomainError, make_nodes
from besselhyp.cli import EXIT_DOMAIN, EXIT_USAGE, main
from fixtures import approximant_series_coeff, bessel_i_series_coeff, node_power_sum

NAN, INF = float("nan"), float("inf")
#: Exact numbers whose float overflows: no binary64 argument.
HUGE, HUGE_FRACTION = 10**400, Fraction(10**400, 3)
MATCHED = "; no series terms are matched beyond that"
BEYOND = "argument must be finite, got a value beyond binary64 range"

#: Bad requests, the first rule they break (an argument's own rule, or n<4p,
#: which reads n and p together), and what ApproxRequest raises for them.
#: "z64" is the finite rule for a z that has no float at all; the wide twins
#: take such a z as an mpf, so only ApproxRequest meets it.
BAD = [
    (("K", 0, 2, 1.0), "kind", ValueError, "kind must be 'I' or 'J', got 'K'"),
    (("i", 9, 2, NAN), "kind", ValueError, "kind must be 'I' or 'J', got 'i'"),
    (("I", 2.0, 2, 1.0), "n", TypeError, "order n must be an int, got 2.0"),
    (("I", True, 2, 1.0), "n", TypeError, "order n must be an int, got True"),
    (("J", 2, 2.0, 1.0), "p", TypeError, "accuracy parameter p must be an int, got 2.0"),
    (("I", 0, True, 1.0), "p", TypeError, "accuracy parameter p must be an int, got True"),
    (("I", -1, True, 1.0), "p", TypeError, "accuracy parameter p must be an int, got True"),
    (("I", -1, 2, 1.0), "n", ValueError, "order n must be >= 0, got -1"),
    (("J", -3, 0, NAN), "n", ValueError, "order n must be >= 0, got -3"),
    (("I", 0, 0, 1.0), "p", ValueError, "accuracy parameter p must be >= 1, got 0"),
    (("J", 0, -1, 1.0), "p", ValueError, "accuracy parameter p must be >= 1, got -1"),
    (("I", 1, 2, NAN), "z", ValueError, "argument must be finite, got nan"),
    (("I", 9, 2, NAN), "z", ValueError, "argument must be finite, got nan"),
    (("J", 3, 2, INF), "z", ValueError, "argument must be finite, got inf"),
    (("I", 3, 2, -INF), "z", ValueError, "argument must be finite, got -inf"),
    (("I", 2, 2, HUGE), "z64", ValueError, BEYOND),
    (("J", 3, 2, -HUGE), "z64", ValueError, BEYOND),
    (("I", 2, 2, HUGE_FRACTION), "z64", ValueError, BEYOND),
    (("I", 9, 2, HUGE), "z64", ValueError, BEYOND),
    (("I", 8, 2, 1.0), "n<4p", DomainError, "order n=8 needs n < 4p = 8" + MATCHED),
    (("J", 9, 2, 0.0), "n<4p", DomainError, "order n=9 needs n < 4p = 8" + MATCHED),
    (("I", 4, 1, -2.5), "n<4p", DomainError, "order n=4 needs n < 4p = 4" + MATCHED),
]

#: Every entry point outside ApproxRequest that takes these arguments, and
#: the fixtures' exact series references: the rules it takes, and a call of it.
ENTRY_POINTS = {
    "hp_approx": ("kind n p z n<4p", lambda kind, n, p, z: hp_approx(kind, n, p, z, dps=20)),
    "hp_error": ("kind n p z n<4p", lambda kind, n, p, z: hp_error(kind, n, p, z, dps=20)),
    "hp_ref": ("kind n z", lambda kind, n, p, z: hp_ref(kind, n, z, dps=20)),
    "fit_error_slope": ("kind n p n<4p", lambda kind, n, p, z: fit_error_slope(kind, n, p)),
    "first_mismatch_order": ("n p n<4p", lambda kind, n, p, z: first_mismatch_order(n, p)),
    "make_nodes": ("p", lambda kind, n, p, z: make_nodes(p)),
    "node_power_sum": ("p", lambda kind, n, p, z: node_power_sum(p, 2)),
    "approximant_series_coeff": ("n p", lambda kind, n, p, z: approximant_series_coeff(n, p, 1)),
    "bessel_i_series_coeff": ("n", lambda kind, n, p, z: bessel_i_series_coeff(n, 1)),
}


def _applies(takes, reads):
    return set(reads.split()) <= set(takes.split())


def _raised(call):
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc)
    return "returned", value


def _id(args):
    names = {HUGE: "10**400", -HUGE: "-10**400", HUGE_FRACTION: "10**400/3"}
    return ",".join(names.get(arg, str(arg)) for arg in args)


@pytest.mark.parametrize("args,reads,exc_type,message", BAD, ids=[_id(row[0]) for row in BAD])
def test_request_raises_its_rule(args, reads, exc_type, message):
    assert _raised(lambda: ApproxRequest(*args)) == (exc_type, message)


@pytest.mark.parametrize("name,args,exc_type,message", [
    pytest.param(name, args, exc_type, message, id=f"{name}-{_id(args)}")
    for args, reads, exc_type, message in BAD
    for name, (takes, _) in ENTRY_POINTS.items() if _applies(takes, reads)
])
def test_entry_point_raises_what_the_request_raises(name, args, exc_type, message):
    assert _raised(lambda: ENTRY_POINTS[name][1](*args)) == (exc_type, message)


def test_every_entry_point_meets_every_rule_it_takes():
    # Each entry point meets at least one bad row of each argument it takes.
    for name, (takes, _) in ENTRY_POINTS.items():
        met = {arg for _, reads, _, _ in BAD if _applies(takes, reads) for arg in reads.split()}
        assert met == set(takes.split()), name


@pytest.mark.parametrize("args,code,prefix", [
    pytest.param(args, EXIT_DOMAIN if exc_type is DomainError else EXIT_USAGE,
                 "domain error: " if exc_type is DomainError else "argument error: ",
                 id=_id(args))
    for args, reads, exc_type, _ in BAD
    if _applies("n p n<4p", reads) and type(args[1]) is int and type(args[2]) is int
])
def test_scaling_reports_the_request_message(capsys, args, code, prefix):
    kind, n, p, _ = args
    _, message = _raised(lambda: ApproxRequest(*args))
    assert main(["scaling", "--kind", kind, "-n", str(n), "-p", str(p)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", prefix + message + "\n")


@pytest.mark.parametrize("t,exc_type,message", [
    (2.0, TypeError, "power t must be an int, got 2.0"),
    (True, TypeError, "power t must be an int, got True"),
    (-1, ValueError, "power t must be >= 0, got -1"),
])
def test_series_coefficients_meet_the_power_rule(t, exc_type, message):
    # The power t meets the int rule that n and p meet, after theirs.
    assert _raised(lambda: bessel_i_series_coeff(1, t)) == (exc_type, message)
    assert _raised(lambda: approximant_series_coeff(1, 2, t)) == (exc_type, message)
    assert _raised(lambda: approximant_series_coeff(1.0, 2, t)) == (
        TypeError, "order n must be an int, got 1.0")


def test_series_coefficients_exist_past_the_domain():
    # No n < 4p rule: the coefficients of the approximant exist at every order.
    assert approximant_series_coeff(9, 2, 9) > 0


SRC = Path(besselhyp.__file__).parent

#: The start of each of the approximant's argument rule messages.
RULE_MESSAGES = ("kind must be", "order n", "accuracy parameter p", "must be an int",
                 "n < 4p", "argument must be finite")


def _raise_texts(module):
    # The string constants in each raise statement of the module, joined.
    tree = ast.parse((SRC / module).read_text())
    return ["".join(node.value for node in ast.walk(stmt.exc)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str))
            for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise) and stmt.exc]


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse((SRC / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "besselhyp", node.module
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "besselhyp" for alias in node.names)


def test_analysis_raises_no_argument_rule_of_its_own():
    for text in _raise_texts("analysis.py"):
        assert not any(rule in text for rule in RULE_MESSAGES), text


def test_approximation_raises_every_argument_rule():
    # The rule messages above are the owner's, so the check before stays
    # in step with them.
    texts = _raise_texts("approximation.py")
    for rule in RULE_MESSAGES:
        assert any(rule in text for text in texts), rule
