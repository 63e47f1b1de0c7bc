"""The package's public names, and the settings it does not have."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import besselhyp
from besselhyp import cli
from besselhyp.analysis import first_mismatch_order, hp_approx, hp_error, hp_ref

EXPECTED = {
    "ApproxRequest",
    "Binary64OverflowError",
    "DomainError",
    "IDENTITY_TAGS",
    "closed_form_coefficient",
    "derive_expansion",
    "double_factorial",
    "evaluate",
    "identity_residual",
    "make_nodes",
    "recurrence_table",
    "ref_I",
    "ref_J",
    "tail_I0",
    "__version__",
}


def test_exports_are_exactly_the_expected_names():
    assert len(besselhyp.__all__) == len(EXPECTED)
    assert set(besselhyp.__all__) == EXPECTED


def test_every_export_resolves():
    for name in besselhyp.__all__:
        assert hasattr(besselhyp, name), name


def test_removed_names_are_gone():
    # One evaluate serves both kinds; the closed forms and the per-term
    # kernel sums are test fixtures; the recurrence table is a plain dict of
    # rows, an expansion a plain tuple of its coefficients and a node set a
    # plain tuple of its nodes; the oracle's stopping rule and the
    # forced-series threshold are constants.
    for name in ("approx_I", "approx_J", "closed_form_p2", "CoefficientTable",
                 "kernel_sinh", "kernel_cosh", "kernel_sin", "kernel_cos",
                 "KernelKind", "NodeSet", "Term", "TermExpansion",
                 "expansion_coefficient", "DEFAULT_N_MAX",
                 "SeriesPolicy", "default_small_z_threshold"):
        assert not hasattr(besselhyp, name), name
    assert importlib.util.find_spec("besselhyp.kernels") is None


SIGNATURES = [
    (besselhyp.ApproxRequest, ["kind", "n", "p", "z"]),
    (besselhyp.ref_I, ["n", "z"]),
    (besselhyp.ref_J, ["n", "z"]),
    (besselhyp.tail_I0, ["p", "z"]),
    (besselhyp.identity_residual, ["which", "z", "p"]),
    (first_mismatch_order, ["n", "p"]),
    (hp_approx, ["kind", "n", "p", "z", "dps"]),
    (hp_ref, ["kind", "n", "z", "dps"]),
    (hp_error, ["kind", "n", "p", "z", "dps"]),
]


@pytest.mark.parametrize("fn,params", SIGNATURES, ids=[fn.__name__ for fn, _ in SIGNATURES])
def test_no_settings_beyond_the_inputs(fn, params):
    # The approximant is fixed by (kind, n, p, z), the oracle by its order
    # and argument and the wide twins by those and their digits: no
    # tolerance, term limit, eps or search limit.
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("command", [["eval", "-n", "0", "-p", "2", "-z", "1"],
                                     ["table"], ["bench", "-n", "0", "-p", "2"]],
                         ids=lambda argv: argv[0])
def test_no_eps_flag(capsys, command):
    assert cli.main([*command, "--eps", "1"]) == cli.EXIT_USAGE
    assert "--eps" in capsys.readouterr().err


def test_no_module_reads_the_environment():
    package = Path(besselhyp.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text()
        assert "os.environ" not in text and "getenv" not in text, path.name


def _src_env():
    # The environment of a fresh interpreter that imports this package.
    env = dict(os.environ)
    src_dir = str(Path(besselhyp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _import_loads(module, imported="besselhyp.cli"):
    # Whether a fresh interpreter that imports only `imported` has `module`.
    code = f"import sys, {imported}; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode != 0


def test_cli_import_loads_no_numpy():
    # The package computes in floats, integers and mpmath only; numpy costs
    # most of a cold start.
    assert not _import_loads("numpy")


def test_cli_import_loads_no_mpmath():
    # Only scaling needs analysis and its mpmath, which the CLI imports on
    # the first scaling call.
    assert not _import_loads("mpmath")


def test_cli_import_loads_no_statistics_or_json():
    # Only bench takes a median and only --format json prints JSON; each
    # imports its module where it is used.
    assert not _import_loads("statistics")
    assert not _import_loads("json")


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_import_loads_no_dataclasses_or_inspect(module):
    # ApproxRequest writes its value methods out; the dataclasses module and
    # the inspect, ast and dis it pulls in cost about a third of a cold start.
    assert not _import_loads(module)


@pytest.mark.parametrize("module", ["numpy", "mpmath", "statistics", "json", "argparse",
                                    "besselhyp.reference", "dataclasses", "inspect"])
def test_library_import_loads_none_of_the_tools(module):
    # A plain `import besselhyp`, as a library caller starts, loads none of
    # what only the analysis twins, the oracle or the CLI use: each would add
    # to every cold start.
    assert not _import_loads(module, imported="besselhyp")


def test_analysis_import_loads_no_fractions():
    # The error's first term is read from integers: the twins and the slope
    # fit need no exact rationals.
    assert not _import_loads("fractions", imported="besselhyp.analysis")


def test_no_module_imports_fractions():
    package = Path(besselhyp.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "fractions" for name in names), path.name


def test_library_import_loads_only_the_evaluator():
    code = ("import sys, besselhyp\n"
            "print(sorted(name for name in sys.modules if name.startswith('besselhyp')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "['besselhyp', 'besselhyp.approximation', 'besselhyp.coefficients']\n"


ORACLE_NAMES = ["ref_I", "ref_J", "tail_I0", "identity_residual", "IDENTITY_TAGS"]


def test_oracle_names_are_the_oracles_own():
    from besselhyp import IDENTITY_TAGS, identity_residual, ref_I, ref_J, tail_I0
    from besselhyp import reference
    imported = [ref_I, ref_J, tail_I0, identity_residual, IDENTITY_TAGS]
    for name, value in zip(ORACLE_NAMES, imported):
        assert value is getattr(reference, name), name
        assert getattr(besselhyp, name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from besselhyp import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPECTED


def test_dir_lists_the_oracle_names_and_leaves_the_oracle_unloaded():
    # The oracle's names are served by __getattr__, unbound until read; dir()
    # lists them still, for tab completion and inspect.getmembers.
    code = ("import sys, besselhyp\n"
            "sys.exit(not set(besselhyp.__all__) <= set(dir(besselhyp))\n"
            "         or 'besselhyp.reference' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


def test_missing_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        besselhyp.no_such_name


def test_fromlist_import_leaves_the_oracle_unloaded():
    # As a caller imports the package by name with a placeholder fromlist:
    # looking the placeholder up must raise AttributeError, which
    # __import__ skips, and load nothing.
    code = ("import sys; module = __import__('besselhyp', fromlist=['_'])\n"
            "sys.exit(not hasattr(module, 'evaluate') or 'besselhyp.reference' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0
