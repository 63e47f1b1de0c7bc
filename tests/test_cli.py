"""CLI contract tests: subcommands, formats, exit codes."""

import json
import math
import re
import shlex
import sys
import time
import types
from pathlib import Path

import pytest

from besselhyp import approximation, cli
from besselhyp.cli import (
    CSV_HEADER,
    EXIT_CONSISTENCY,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from besselhyp.reference import ref_I, ref_J


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def timed_events(capsys, monkeypatch, argv, keys):
    """The clock readings and evaluate calls of one run, in order, each call
    with whether its route was already built; the routes of keys are
    dropped first."""
    for key in keys:
        approximation._ROUTES.pop(key, None)
    events = []

    def traced(req):
        events.append(("evaluate", (req.n, req.p, req.kind) in approximation._ROUTES))
        return approximation.evaluate(req)

    def clock():
        events.append(("clock",))
        return time.perf_counter_ns()

    monkeypatch.setattr(cli, "evaluate", traced)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter_ns=clock))
    assert run(capsys, *argv)[0] == EXIT_OK
    return events


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
        # Below the edge of cosh the approximant fits; the oracle's does not.
        code, _, err = run(capsys, "eval", "-n", "3", "-p", "2", "-z", "710")
        assert code == EXIT_USAGE and "|z| <= 30" in err

    @pytest.mark.parametrize("z", ["711", "720"])
    def test_overflow_is_domain_error(self, capsys, z):
        code, out, err = run(capsys, "eval", "-n", "3", "-p", "2", "-z", z)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "overflow" in err and "Traceback" not in err

    def test_coefficients_beyond_binary64_are_domain_errors(self, capsys):
        code, out, err = run(capsys, "eval", "-n", "150", "-p", "40", "-z", "3")
        assert code == EXIT_DOMAIN and out == ""
        assert "beyond binary64" in err and "Traceback" not in err

    def test_bad_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--kind", "Q", "-n", "0", "-p", "2", "-z", "1")
        assert code == EXIT_USAGE

    def test_timed_calls_find_their_route_built(self, capsys, monkeypatch):
        # The route is built before the row's clock starts, and the point is
        # evaluated once: ns times a warm evaluation.
        events = timed_events(capsys, monkeypatch,
                              ("eval", "--kind", "J", "-n", "5", "-p", "3", "-z", "2"),
                              [(5, 3, "J")])
        assert events == [("clock",), ("evaluate", True), ("clock",)]

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

    def test_single_step_range_is_its_start(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "0,1", "-z", "1:2:1")
        assert code == EXIT_OK
        assert [(r[1], float(r[3])) for r in csv_rows(out)] == [("0", 1.0), ("1", 1.0)]

    @pytest.mark.parametrize("grid", [("-z", "1:2:0"), ("-n", ",")])
    def test_empty_grid_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "table", *grid)
        assert code == EXIT_USAGE and out == "" and "argument error" in err

    def test_timed_calls_find_their_route_built(self, capsys, monkeypatch):
        # Each order's route is built before its first row's clock starts,
        # and each point is evaluated once.
        events = timed_events(capsys, monkeypatch,
                              ("table", "-n", "2,5", "-p", "3", "-z", "1,2"),
                              [(2, 3, "I"), (5, 3, "I")])
        assert events == [("clock",), ("evaluate", True), ("clock",)] * 4

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "-n", "0,1", "-z", "1,2", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)) == 4

    @pytest.mark.parametrize("kind,oracle", [("I", ref_I), ("J", ref_J)])
    def test_oracle_column_is_the_oracle(self, capsys, kind, oracle):
        # The table takes every order of one argument from one oracle call;
        # each value is still the one-order oracle's, for series and Miller
        # orders alike and at both signs.
        code, out, _ = run(capsys, "table", "--kind", kind, "-p", "8", "-n", "0,1,7,18,31",
                           "-z", "-30,-12.5,-2,0,0.3,3.8317059702075125,9,17.3,22.6,30")
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert len(rows) == 50
        for row in rows:
            n, z = int(row[1]), float(row[3])
            assert row[5] == "%.16e" % oracle(n, z), (n, z)

    # Each row runs the request check, the approximant, then the oracle's
    # check, orders outermost, and every row is checked before any oracle
    # call: the first error is the one a row-at-a-time loop would raise.
    @pytest.mark.parametrize("argv,code,err", [
        (("--kind", "J", "-n", "5,70", "-p", "20", "-z", "20"), EXIT_USAGE,
         "argument error: oracle order must satisfy 0 <= n <= 64, got 70\n"),
        (("--kind", "J", "-n", "40", "-p", "8", "-z", "31"), EXIT_DOMAIN,
         "domain error: order n=40 needs n < 4p = 32; no series terms are matched beyond that\n"),
        (("--kind", "J", "-n", "3", "-p", "2", "-z", "31,nan"), EXIT_USAGE,
         "argument error: argument must be finite, got nan\n"),
        (("--kind", "I", "-n", "70", "-p", "20", "-z", "1"), EXIT_USAGE,
         "argument error: oracle order must satisfy 0 <= n <= 64, got 70\n"),
        # The request of a later row fails after an earlier row's oracle
        # check, and an earlier row's approximant before a later oracle check.
        (("--kind", "J", "-n", "3,40", "-p", "8", "-z", "31"), EXIT_USAGE,
         "argument error: oracle argument must satisfy |z| <= 30.0, got 31.0\n"),
        (("--kind", "I", "-n", "3,65", "-p", "20", "-z", "720"), EXIT_DOMAIN,
         "domain error: approximant of order n=3 at p=20 overflows binary64 at z=720.0\n"),
    ])
    def test_first_error_is_the_row_loops(self, capsys, argv, code, err):
        assert run(capsys, "table", *argv) == (code, "", err)


def mask_ns(out):
    """The output with each row's timing replaced by "NS"."""
    if out.startswith("["):
        return re.sub(r'"ns": \d+', '"ns": NS', out)
    lines = [line.split(",") for line in out.split("\n")]
    for fields in lines[1:-1]:
        fields[8] = "NS"
    return "\n".join(",".join(fields) for fields in lines)


class TestPinnedBytes:
    """Exact output of eval and table, timings masked, with a zero oracle
    (an "abs" row) and a negative argument."""

    TABLE = ("table", "--kind", "J", "-p", "2", "-n", "0,3", "-z", "0,1.5,2.5")
    TABLE_CSV = (
        "kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag\n"
        "J,0,2,0.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+00,"
        "0.0e+00,0.0e+00,NS,\n"
        "J,0,2,1.5000000000000000e+00,5.1183233586651311e-01,5.1182767173591814e-01,"
        "4.7e-06,9.1e-06,NS,\n"
        "J,0,2,2.5000000000000000e+00,-4.8135621732241229e-02,-4.8383776468197998e-02,"
        "2.5e-04,5.1e-03,NS,\n"
        "J,3,2,0.0000000000000000e+00,0.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0e+00,0.0e+00,NS,abs\n"
        "J,3,2,1.5000000000000000e+00,6.0723176792455924e-02,6.0963951141139630e-02,"
        "2.4e-04,3.9e-03,NS,\n"
        "J,3,2,2.5000000000000000e+00,2.1431719553409490e-01,2.1660039103911355e-01,"
        "2.3e-03,1.1e-02,NS,\n"
    )
    TABLE_FULL = (
        "kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag\n"
        "J,0,2,0.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+00,"
        "0.0000000000000000e+00,0.0000000000000000e+00,NS,\n"
        "J,0,2,1.5000000000000000e+00,5.1183233586651311e-01,5.1182767173591814e-01,"
        "4.6641305949668421e-06,9.1126972075346088e-06,NS,\n"
        "J,0,2,2.5000000000000000e+00,-4.8135621732241229e-02,-4.8383776468197998e-02,"
        "2.4815473595676818e-04,5.1288831519771287e-03,NS,\n"
        "J,3,2,0.0000000000000000e+00,0.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,0.0000000000000000e+00,NS,abs\n"
        "J,3,2,1.5000000000000000e+00,6.0723176792455924e-02,6.0963951141139630e-02,"
        "2.4077434868370606e-04,3.9494544591816482e-03,NS,\n"
        "J,3,2,2.5000000000000000e+00,2.1431719553409490e-01,2.1660039103911355e-01,"
        "2.2831955050186536e-03,1.0541049783268192e-02,NS,\n"
    )
    # (approx, oracle, abs_err, rel_err, flag) of each row of TABLE.
    TABLE_JSON_VALUES = (
        (1.0, 1.0, 0.0, 0.0, ""),
        (0.5118323358665131, 0.5118276717359181, 4.664130594966842e-06,
         9.112697207534609e-06, ""),
        (-0.04813562173224123, -0.048383776468198, 0.0002481547359567682,
         0.005128883151977129, ""),
        (0.0, 0.0, 0.0, 0.0, "abs"),
        (0.060723176792455924, 0.06096395114113963, 0.00024077434868370606,
         0.003949454459181648, ""),
        (0.2143171955340949, 0.21660039103911355, 0.0022831955050186536,
         0.010541049783268192, ""),
    )
    EVAL_CSV = (
        "kind,n,p,z,approx,oracle,abs_err,rel_err,ns,flag\n"
        "I,3,2,-1.5000000000000000e+00,-8.1103318525858059e-02,-8.0774113016092303e-02,"
        "3.3e-04,4.1e-03,NS,\n"
    )

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, *self.TABLE)
        assert code == EXIT_OK and mask_ns(out) == self.TABLE_CSV

    def test_table_full(self, capsys):
        code, out, _ = run(capsys, *self.TABLE, "--full")
        assert code == EXIT_OK and mask_ns(out) == self.TABLE_FULL

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, *self.TABLE, "--format", "json")
        assert code == EXIT_OK
        entries = [
            {"kind": "J", "n": n, "p": 2, "z": z, "approx": approx, "oracle": oracle,
             "abs_err": abs_err, "rel_err": rel_err, "ns": "NS", "flag": flag}
            for (n, z), (approx, oracle, abs_err, rel_err, flag) in zip(
                [(n, z) for n in (0, 3) for z in (0.0, 1.5, 2.5)], self.TABLE_JSON_VALUES)
        ]
        want = json.dumps(entries, indent=2).replace('"ns": "NS"', '"ns": NS')
        assert mask_ns(out) == want + "\n"
        assert [list(entry) for entry in json.loads(out)] == [CSV_HEADER.split(",")] * 6

    def test_eval_negative_argument(self, capsys):
        code, out, _ = run(capsys, "eval", "-n", "3", "-p", "2", "-z", "-1.5")
        assert code == EXIT_OK and mask_ns(out) == self.EVAL_CSV


class TestCoeffs:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n-max", "4")
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "-1 1", "3 -3 1", "-15 15 -6 1"]

    def test_rows_past_the_int_string_limit(self, capsys, monkeypatch):
        # From n = 1425 a(n, 1) has more than the 4300 digits Python converts
        # by default; the command prints it and restores the limit.
        big = 10 ** 4999 + 1
        monkeypatch.setattr(cli, "closed_form_row", lambda n: (big, 1))
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "coeffs", "--n-max", "1")
        assert code == EXIT_OK
        assert out == "1" + "0" * 4998 + "1 1\n"
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, capsys, n_max):
        # As recurrence_table(0) refuses: no row would be printed.
        code, out, err = run(capsys, "coeffs", "--n-max", n_max)
        assert code == EXIT_USAGE and out == ""
        assert err == f"argument error: n-max must be >= 1, got {n_max}\n"


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

    def test_json_holds_the_csv_row(self, capsys):
        # One report in two formats: the JSON keys are the CSV columns, in
        # order, and the values are the row's, the slope before rounding.
        argv = ("scaling", "--kind", "J", "-n", "3", "-p", "2", "--samples", "8", "--dps", "40")
        _, out, _ = run(capsys, *argv)
        header, row = out.splitlines()
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert list(payload) == header.split(",")
        cells = [f"{v:.4f}" if k == "slope" else str(v) for k, v in payload.items()]
        assert ",".join(cells) == row

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "scaling", "-n", "0", "-p", "1", "--z-max", "2")
        assert code == EXIT_USAGE

    def test_full_is_no_scaling_option(self, capsys):
        # --full sets the precision of error columns, which scaling has not.
        code, out, err = run(capsys, "scaling", "-n", "3", "-p", "2", "--full")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --full" in err

    def test_too_few_samples(self, capsys):
        code, _, _ = run(capsys, "scaling", "-n", "0", "-p", "1", "--samples", "4")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_parameter_below_one_is_usage_error(self, capsys, p):
        # As eval, table and bench report it, not as a domain error.
        code, out, err = run(capsys, "scaling", "-n", "0", "-p", p)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"argument error: accuracy parameter p must be >= 1, got {p}\n"

    def test_order_at_4p_is_domain_error(self, capsys):
        code, out, err = run(capsys, "scaling", "-n", "8", "-p", "2")
        assert code == EXIT_DOMAIN
        assert out == "" and err == ("domain error: order n=8 needs n < 4p = 8; "
                                     "no series terms are matched beyond that\n")

    def test_too_few_digits_is_usage_error(self, capsys):
        # The (0, 8) error, below 1e-70, calls for more digits than 16 times
        # 2; at the cap of 32 it is exactly zero.
        code, out, err = run(capsys, "scaling", "-n", "0", "-p", "8", "--dps", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--dps 32" in err and "Traceback" not in err

    def test_error_under_the_rounding_floor_is_usage_error(self, capsys):
        # The (15, 4) assembly cancels about 60 digits; at the cap of 16
        # times 1 digit, what is left is rounding noise, not the error.
        code, out, err = run(capsys, "scaling", "-n", "15", "-p", "4", "--dps", "1")
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert "rounding floor" in err and "--dps 16" in err

    @pytest.mark.parametrize("n,p,dps,resolved", [(15, 4, "50", "66"), (0, 1, "5", "40")])
    def test_digits_below_the_floor_are_raised(self, capsys, n, p, dps, resolved):
        # --dps is no floor: each sample is measured at the digits sized
        # from its first term, above dps where dps digits would leave it
        # rounding noise, so the fit equals the one at digits that resolve
        # every sample.
        def slope(digits):
            code, out, _ = run(capsys, "scaling", "-n", str(n), "-p", str(p),
                               "--dps", digits)
            assert code == EXIT_OK
            header, row = out.strip().splitlines()
            return dict(zip(header.split(","), row.split(",")))["slope"]

        assert slope(dps) == slope(resolved)
        assert float(slope(dps)) == pytest.approx(max(4 * p - n, n), abs=0.2)

    def test_digits_far_past_the_fit_need_no_longer_series(self, capsys):
        # --dps 10000 only caps the digits, so the reference series is not
        # asked for 10000 digits and the row is the one at --dps 50.
        rows = [run(capsys, "scaling", "-n", "3", "-p", "2", "--samples", "8", "--dps", dps)
                for dps in ("10000", "50")]
        assert rows[0] == rows[1] == (
            EXIT_OK, "kind,n,p,z_min,z_max,samples,slope,expected\nI,3,2,0.1,0.5,8,5.0095,5\n", "")

    @pytest.mark.parametrize("kind", ["I", "J"])
    @pytest.mark.parametrize("dps", [80, 100])
    @pytest.mark.parametrize("n,p", [(0, 1), (5, 2), (3, 4), (14, 4)])
    def test_each_sample_is_measured_once_at_its_sized_digits(self, capsys, monkeypatch,
                                                              kind, n, p, dps):
        # Shaped as the benchmark's scaling calls: every sample's first term
        # calls for fewer digits than --dps, and is measured at those alone.
        from besselhyp import analysis

        calls = []
        log_error = analysis._log_error

        def counted(*args):
            calls.append(args)
            return log_error(*args)

        monkeypatch.setattr(analysis, "_log_error", counted)
        code, _, err = run(capsys, "scaling", "--kind", kind, "-n", str(n), "-p", str(p),
                           "--z-min", "0.0953", "--z-max", "0.5712", "--samples", "8",
                           "--dps", str(dps))
        assert (code, err) == (EXIT_OK, "")
        assert len(calls) == 8
        t, log_c = analysis._leading_error(n, p)
        for *_, z, digits in calls:
            top = analysis._largest_term_digits(kind, n, p, z)
            sized = math.ceil(top + 2 * analysis._FLOOR_MARGIN_DIGITS - log_c - t * math.log10(z))
            assert digits == max(1, sized) < dps

    @pytest.mark.parametrize("dps", ["0", "-3"])
    def test_nonpositive_dps_is_usage_error(self, capsys, dps):
        code, out, err = run(capsys, "scaling", "-n", "0", "-p", "1", "--dps", dps)
        assert code == EXIT_USAGE
        assert out == ""
        assert "dps" in err


class TestPinnedSlopes:
    """Exact scaling output: the README's slope, its J twin at 120 digits,
    and one 8-sample call per kind at 100 digits; then each again at another
    --dps, which only caps the digits and so moves no byte."""

    @pytest.mark.parametrize("argv,row", [
        (("-n", "15", "-p", "4"), "I,15,4,0.1,0.5,16,15.0028,15"),
        (("--kind", "J", "-n", "15", "-p", "4", "--dps", "120"),
         "J,15,4,0.1,0.5,16,14.9972,15"),
        (("--kind", "I", "-n", "13", "-p", "4", "--z-min", "0.08866947284711672",
          "--z-max", "0.5204641395542736", "--samples", "8", "--dps", "100"),
         "I,13,4,0.08866947284711672,0.5204641395542736,8,13.0036,13"),
        (("--kind", "J", "-n", "15", "-p", "4", "--z-min", "0.08856073356854736",
          "--z-max", "0.5497377609163321", "--samples", "8", "--dps", "100"),
         "J,15,4,0.08856073356854736,0.5497377609163321,8,14.9970,15"),
        (("-n", "15", "-p", "4", "--dps", "200"), "I,15,4,0.1,0.5,16,15.0028,15"),
        (("--kind", "J", "-n", "15", "-p", "4", "--dps", "40"),
         "J,15,4,0.1,0.5,16,14.9972,15"),
        (("--kind", "I", "-n", "13", "-p", "4", "--z-min", "0.08866947284711672",
          "--z-max", "0.5204641395542736", "--samples", "8", "--dps", "80"),
         "I,13,4,0.08866947284711672,0.5204641395542736,8,13.0036,13"),
        (("--kind", "J", "-n", "15", "-p", "4", "--z-min", "0.08856073356854736",
          "--z-max", "0.5497377609163321", "--samples", "8", "--dps", "1000"),
         "J,15,4,0.08856073356854736,0.5497377609163321,8,14.9970,15"),
    ])
    def test_csv(self, capsys, argv, row):
        code, out, err = run(capsys, "scaling", *argv)
        assert code == EXIT_OK and err == ""
        assert out == f"kind,n,p,z_min,z_max,samples,slope,expected\n{row}\n"


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

    def test_json_keys_are_the_csv_columns(self, capsys):
        argv = ("bench", "--kind", "J", "-n", "2", "-p", "3", "-z", "1,2", "--repetitions", "3")
        _, out, _ = run(capsys, *argv)
        header, row = out.splitlines()
        _, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert list(payload) == header.split(",")
        assert [str(v) for v in payload.values()][:5] == row.split(",")[:5] == [
            "J", "2", "3", "2", "3"]

    def test_zero_repetitions_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bench", "-n", "0", "-p", "2", "--repetitions", "0")
        assert code == EXIT_USAGE

    def test_timed_calls_find_their_route_built(self, capsys, monkeypatch):
        # One untimed pass builds the route, so that even a single repetition
        # times warm calls: every evaluate after the first clock reading
        # finds its route already cached.
        events = timed_events(capsys, monkeypatch,
                              ("bench", "--kind", "J", "-n", "5", "-p", "3",
                               "-z", "1,2", "--repetitions", "1"),
                              [(5, 3, "J")])
        first_clock = events.index(("clock",))
        assert events[:first_clock] == [("evaluate", False), ("evaluate", True)]
        assert [event for event in events[first_clock:] if event[0] == "evaluate"] == [
            ("evaluate", True), ("evaluate", True)]


class TestIdentities:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "identity,p,max_abs_residual"
        tags = {line.split(",")[0] for line in lines[1:]}
        assert tags == {"N2", "N4", "N8", "N4P", "J4P"}
        assert all(float(line.split(",")[2]) < 1e-12 for line in lines[1:])

    def test_json_p_is_an_int(self, capsys):
        # As eval, table, scaling and bench print it; null where the identity
        # takes no p.  The CSV column is the same digits, or empty.
        code, out, _ = run(capsys, "identities", "-p", "3,1", "--format", "json")
        assert code == EXIT_OK
        assert [(row["identity"], row["p"]) for row in json.loads(out)] == [
            ("N2", None), ("N4", None), ("N8", None),
            ("N4P", 1), ("J4P", 1), ("N4P", 3), ("J4P", 3)]
        code, out, _ = run(capsys, "identities", "-p", "3,1")
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
            ["N2", ""], ["N4", ""], ["N8", ""],
            ["N4P", "1"], ["J4P", "1"], ["N4P", "3"], ["J4P", "3"]]

    def test_unreachable_tolerance_fails_consistency(self, capsys):
        code, _, err = run(capsys, "identities", "--tol", "1e-30")
        assert code == EXIT_CONSISTENCY
        assert "tolerance" in err

    @pytest.mark.parametrize("argv", [
        *[pytest.param((f"--tol={tol}",), id=tol) for tol in ("nan", "-1", "-inf", "-0.0001")],
        pytest.param(("--tol", "-inf"), id="--tol -inf"),
    ])
    def test_tolerance_below_zero_or_nan_is_usage_error(self, capsys, argv):
        # nan would switch the check off (no residual exceeds it), and a
        # negative tolerance would fail every residual as inconsistent.
        code, out, err = run(capsys, "identities", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "tolerance must be a number >= 0" in err

    def test_infinite_tolerance_is_accepted(self, capsys):
        code, out, _ = run(capsys, "identities", "--tol", "inf")
        assert code == EXIT_OK
        assert out.startswith("identity,p,max_abs_residual")

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

    @pytest.mark.parametrize("argv,text,rule", [
        *[pytest.param(("table", "-n", "1", "-z"), text, None, id=text)
          for text in ("-3,0", "-3:3:3", "-.5,1")],
        *[pytest.param(("table", "-n", "1", "-z"), text, "argument must be finite", id=text)
          for text in ("-inf", "-INF,1", "-nan", "-Infinity,2", "-NaN:1:3")],
        *[pytest.param(("eval", "-n", "0", "-p", "2", "-z"), text, "argument must be finite",
                       id=f"eval {text}") for text in ("-inf", "-nan", "-infinity")],
        *[pytest.param(("identities", "--tol"), text, "tolerance must be a number >= 0",
                       id=f"identities {text}") for text in ("-inf", "-NAN")],
        pytest.param(("eval", "-p", "2", "-z", "1", "-n"), "-nan", "invalid int value",
                     id="eval -n -nan"),
    ])
    def test_negative_list_after_a_space(self, capsys, argv, text, rule):
        # "-z -3,0" or "-z -inf" is not read as an option: the spaced form
        # exits, prints and reports as "-z=-3,0" or "-z=-inf" does, a value
        # that breaks a rule by that argument's own rule.
        spaced = run(capsys, *argv, text)
        joined = run(capsys, *argv[:-1], f"{argv[-1]}={text}")
        assert spaced[0] == joined[0]
        assert mask_ns(spaced[1]) == mask_ns(joined[1])
        assert spaced[2] == joined[2]
        if rule is None:
            assert spaced[0] == EXIT_OK
            zs = [float(row[3]) for row in csv_rows(spaced[1])]
            assert zs == sorted(set(cli._parse_floats(text)))
        else:
            assert spaced[0] == EXIT_USAGE and spaced[1] == ""
            assert rule in spaced[2] and "expected one argument" not in spaced[2]

    def test_bench_negative_list(self, capsys):
        code, out, _ = run(capsys, "bench", "-n", "1", "-p", "2", "-z", "-2,-1",
                           "--repetitions", "2")
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("I,1,2,2,2,")

    def test_unknown_argument_is_reported_by_the_subcommand(self, capsys):
        code, out, err = run(capsys, "table", "-z", "1", "--bogus")
        assert code == EXIT_USAGE and out == ""
        assert "besselhyp table: error: unrecognized arguments: --bogus" in err

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


def test_readme_cli_block_runs(capsys):
    # Each line of the README's CLI code block, comment dropped, runs through
    # main in-process, exits 0 and prints something.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert lines
    for argv in lines:
        assert argv[0] == "besselhyp", argv
        code, out, err = run(capsys, *argv[1:])
        assert code == EXIT_OK and out.strip(), (argv, code, err)
