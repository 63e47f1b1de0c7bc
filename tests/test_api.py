"""The package's public names."""

import importlib.util

import besselhyp

EXPECTED = {
    "ApproxRequest",
    "Binary64OverflowError",
    "DomainError",
    "IDENTITY_TAGS",
    "SeriesPolicy",
    "closed_form_coefficient",
    "default_small_z_threshold",
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
    # plain tuple of its nodes.
    for name in ("approx_I", "approx_J", "closed_form_p2", "CoefficientTable",
                 "kernel_sinh", "kernel_cosh", "kernel_sin", "kernel_cos",
                 "KernelKind", "NodeSet", "Term", "TermExpansion",
                 "expansion_coefficient", "DEFAULT_N_MAX"):
        assert not hasattr(besselhyp, name), name
    assert importlib.util.find_spec("besselhyp.kernels") is None
