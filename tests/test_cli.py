"""CLI contract tests: subcommands, formats, exit codes."""

import json

import pytest

from besselhyp import cli
from besselhyp.cli import (
    CSV_HEADER,
    EXIT_CONSISTENCY,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = [line for line in out.strip().splitlines() if line]
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestEval:
    def test_order0_row(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "I", "-n", "0", "-p", "2", "-z", "1")
        assert code == EXIT_OK
        (row,) = csv_rows(out)
        assert row[0] == "I" and row[1] == "0" and row[2] == "2"
        rel = float(row[7])
        assert 1.4e-7 < rel < 1.8e-7
        assert row[9] == ""

    def test_zero_argument_flags_absolute(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "I", "-n", "1", "-p", "2", "-z", "0")
        assert code == EXIT_OK
        (row,) = csv_rows(out)
        assert float(row[4]) == 0.0  # approx
        assert float(row[5]) == 0.0  # oracle
        assert float(row[6]) == 0.0  # abs err
        assert row[9] == "abs"

    def test_circular_kind(self, capsys):
        code, out, _ = run(capsys, "eval", "--kind", "J", "-n", "0", "-p", "3", "-z", "1")
        assert code == EXIT_OK
        (row,) = csv_rows(out)
        assert float(row[7]) < 1e-9

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "-n", "0", "-p", "2", "-z", "1",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 1
        assert set(payload[0]) == {"kind", "n", "p", "z", "approx", "oracle",
                                   "abs_err", "rel_err", "ns", "flag"}

    def test_domain_violation_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "-n", "8", "-p", "1", "-z", "1")
        assert code == EXIT_DOMAIN
        assert "domain" in err.lower()

    def test_oracle_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "-n", "0", "-p", "2", "-z", "100")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("z", ["710", "711", "720"])
    def test_overflow_is_domain_error(self, capsys, z):
        code, out, err = run(capsys, "eval", "-n", "3", "-p", "2", "-z", z)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "overflow" in err and "Traceback" not in err

    def test_bad_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--kind", "Q", "-n", "0", "-p", "2", "-z", "1")
        assert code == EXIT_USAGE

    def test_full_precision_flag(self, capsys):
        _, brief, _ = run(capsys, "eval", "-n", "0", "-p", "2", "-z", "1")
        _, full, _ = run(capsys, "eval", "-n", "0", "-p", "2", "-z", "1", "--full")
        assert len(csv_rows(full)[0][7]) > len(csv_rows(brief)[0][7])


class TestTable:
    def test_default_grid_shape_and_order(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert len(rows) == 16
        keys = [(int(r[1]), float(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_default_grid_known_cells(self, capsys):
        _, out, _ = run(capsys, "table")
        cells = {(int(r[1]), float(r[3])): float(r[7]) for r in csv_rows(out)}
        assert cells[(3, 4.0)] == pytest.approx(3.0e-2, rel=0.25)
        assert cells[(2, 2.0)] == pytest.approx(1.0e-3, rel=0.25)

    def test_p1_error_exceeds_p2(self, capsys):
        _, out1, _ = run(capsys, "table", "-p", "1", "-n", "0", "-z", "1")
        _, out2, _ = run(capsys, "table", "-p", "2", "-n", "0", "-z", "1")
        assert float(csv_rows(out1)[0][7]) > float(csv_rows(out2)[0][7])

    def test_range_argument(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "0", "-z", "1:2:3")
        assert code == EXIT_OK
        zs = [float(r[3]) for r in csv_rows(out)]
        assert zs == pytest.approx([1.0, 1.5, 2.0])

    def test_range_ends_exactly_at_its_end(self, capsys):
        # 0.05 + 29.95 * 9 / 9 rounds to 30.000000000000004, past the
        # oracle's |z| <= 30.
        code, out, _ = run(capsys, "table", "-z", "0.05:30:10")
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert len(rows) == 40
        assert float(rows[-1][3]) == 30.0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "0,1", "-z", "1,2", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)) == 4


class TestCoeffs:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n-max", "4")
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "-1 1", "3 -3 1", "-15 15 -6 1"]


class TestScaling:
    def test_order0_p1(self, capsys):
        code, out, _ = run(capsys, "scaling", "-n", "0", "-p", "1",
                           "--samples", "8", "--dps", "40")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["slope"]) == pytest.approx(4.0, abs=0.2)
        assert fields["expected"] == "4"

    @pytest.mark.parametrize("kind", ["I", "J"])
    def test_order_past_2p_expects_its_leading_term(self, capsys, kind):
        # For n > 2p the approximant first departs from I_n at z**n, not at
        # z**(4p - n) = z**3.
        code, out, _ = run(capsys, "scaling", "--kind", kind, "-n", "5", "-p", "2",
                           "--samples", "8", "--dps", "60")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["expected"] == "5"
        assert float(fields["slope"]) == pytest.approx(5.0, abs=0.2)

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "scaling", "-n", "0", "-p", "1", "--z-max", "2")
        assert code == EXIT_USAGE

    def test_too_few_samples(self, capsys):
        code, _, _ = run(capsys, "scaling", "-n", "0", "-p", "1", "--samples", "4")
        assert code == EXIT_USAGE

    def test_too_few_digits_is_usage_error(self, capsys):
        # At 5 digits the measured error is exactly zero.
        code, out, err = run(capsys, "scaling", "-n", "0", "-p", "1", "--dps", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--dps" in err and "Traceback" not in err

    @pytest.mark.parametrize("dps", ["0", "-3"])
    def test_nonpositive_dps_is_usage_error(self, capsys, dps):
        code, out, err = run(capsys, "scaling", "-n", "0", "-p", "1", "--dps", dps)
        assert code == EXIT_USAGE
        assert out == ""
        assert "dps" in err


class TestBench:
    def test_summary_row(self, capsys):
        code, out, _ = run(capsys, "bench", "-n", "0", "-p", "2",
                           "-z", "0.5,1,2", "--repetitions", "5")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["approx_ns_median"]) > 0
        assert float(fields["oracle_ns_median"]) > 0
        assert fields["points"] == "3"

    def test_circular_grid(self, capsys):
        code, out, _ = run(capsys, "bench", "--kind", "J", "-n", "2", "-p", "3",
                           "--repetitions", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["kind"] == "J" and payload["repetitions"] == 3

    def test_zero_repetitions_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bench", "-n", "0", "-p", "2", "--repetitions", "0")
        assert code == EXIT_USAGE


class TestIdentities:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "identity,p,max_abs_residual"
        tags = {line.split(",")[0] for line in lines[1:]}
        assert tags == {"N2", "N4", "N8", "N4P", "J4P"}
        assert all(float(line.split(",")[2]) < 1e-12 for line in lines[1:])

    def test_unreachable_tolerance_fails_consistency(self, capsys):
        code, _, err = run(capsys, "identities", "--tol", "1e-30")
        assert code == EXIT_CONSISTENCY
        assert "tolerance" in err

    def test_tail_past_the_oracle_is_usage_error(self, capsys):
        code, out, err = run(capsys, "identities", "-p", "17")
        assert code == EXIT_USAGE
        assert out == ""
        assert "4p <= 64" in err


class TestParsing:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == EXIT_OK

    def test_empty_value_list(self, capsys):
        code, _, _ = run(capsys, "table", "-z", ",")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:4"])
    def test_range_needs_three_fields(self, capsys, text):
        code, _, err = run(capsys, "table", "-z", text)
        assert code == EXIT_USAGE
        assert "a:b:steps" in err and "unpack" not in err

    def test_shared_parser_keeps_no_state(self, capsys):
        # Subcommands and flags of one call must not leak into the next: a
        # run of calls on the shared parser prints what fresh parsers print.
        calls = [
            ("scaling", "--kind", "J", "-n", "1", "-p", "1", "--samples", "8",
             "--dps", "30", "--format", "json"),
            ("scaling", "-n", "0", "-p", "1", "--samples", "8"),
            ("identities", "-p", "2", "--format", "json"),
            ("coeffs", "--n-max", "3"),
        ]
        shared = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._shared_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert all(code == EXIT_OK for code, _, _ in shared)
