"""The package's public names."""

import besselhyp

EXPECTED = {
    "ApproxRequest",
    "Binary64OverflowError",
    "DEFAULT_N_MAX",
    "DomainError",
    "IDENTITY_TAGS",
    "KernelKind",
    "NodeSet",
    "SeriesPolicy",
    "Term",
    "TermExpansion",
    "closed_form_coefficient",
    "default_small_z_threshold",
    "derive_expansion",
    "double_factorial",
    "evaluate",
    "expansion_coefficient",
    "identity_residual",
    "kernel_cos",
    "kernel_cosh",
    "kernel_sin",
    "kernel_sinh",
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
    # One evaluate serves both kinds; the closed forms are a test fixture and
    # the recurrence table is a plain dict of rows.
    for name in ("approx_I", "approx_J", "closed_form_p2", "CoefficientTable"):
        assert not hasattr(besselhyp, name), name
