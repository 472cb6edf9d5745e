"""CLI surface: spec files, flags, output determinism, exit codes."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from combstruct import cli
from combstruct import moments as mom
from combstruct import structures as st
from combstruct import oracle as orc
from combstruct import sumdist as sd
from combstruct.indep_process import TiltedParams, z_law


@pytest.fixture
def spec_files(tmp_path):
    paths = {}
    for name, doc in {
        "permutations": {"kind": "assembly", "builtin": "permutations"},
        "setpartitions": {"kind": "assembly", "builtin": "set_partitions"},
        "intpart": {"kind": "multiset", "builtin": "integer_partitions"},
        "esf2": {"kind": "assembly", "builtin": "esf", "params": {"kappa": 2}},
        "esf_float": {"kind": "assembly", "builtin": "esf",
                      "params": {"kappa": 0.3}},
        "squarefree2": {"kind": "selection", "builtin": "squarefree_polynomials",
                        "params": {"q": 2}},
        "bad_kind": {"kind": "assembli", "m": [1, 2]},
        "distinct": {"kind": "selection", "builtin": "distinct_partitions"},
        "distinct_odd": {"kind": "selection",
                         "builtin": "distinct_odd_partitions"},
        # P(T_25 = 25) = 2.1e-315 at x = 3: the whole pmf of T_25 is below
        # the smallest normal double
        "subnormal_sel": {"kind": "selection",
                          "m": [0] * 12 + [1] * 8 + [4] + [5] * 4},
        "even_only": {"kind": "multiset", "m": [0, 1]},
        "poly2": {"kind": "multiset", "builtin": "polynomials",
                  "params": {"q": 2}},
        "mappings": {"kind": "assembly", "builtin": "mappings"},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(args, capsys):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_tv_matches_oracle(self, spec_files, capsys):
        code, out, _ = run_cli(["tv", "--spec", spec_files["permutations"],
                                "--n", "10", "--B", "1", "--x", "1"], capsys)
        assert code == 0
        value = float(out.splitlines()[-1].split("\t")[0])
        perm = st.permutations()
        law = orc.exact_joint_law(perm, 10, 1)
        marg = orc.restrict_law(law, (1,))
        d = orc.tv_against_product(marg, (1,),
                                   {1: z_law(perm, 1, TiltedParams(1, 1)).pmf},
                                   10)
        assert abs(value - d) < 1e-10

    def test_tv_empty_B(self, spec_files, capsys):
        code, out, _ = run_cli(["tv", "--spec", spec_files["intpart"],
                                "--n", "8", "--B", "", "--x", "0.5"], capsys)
        assert code == 0
        assert float(out.splitlines()[-1].split("\t")[0]) == 0.0

    def test_pofn_bell(self, spec_files, capsys):
        code, out, _ = run_cli(["pofn", "--spec", spec_files["setpartitions"],
                                "--n", "5"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "5\t52"

    def test_pofn_bell_past_the_rescales(self, spec_files, capsys,
                                         monkeypatch):
        # at n = 16000 the recursion is rescaled by 2^-512 five times; the
        # entries a rescale would take below the smallest normal double
        # keep their exponent, so no row reads 0, and no weight needs the
        # support test of the underflow guard
        from combstruct import sumdist
        monkeypatch.setattr(sumdist, "_reach", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["pofn", "--spec", spec_files["setpartitions"],
                                    "--n", "16000", "--precision", "17"], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[4:]]
        assert len(rows) == 16001

        def log_value(text):
            mantissa, _, exponent = text.partition("e+")
            return math.log(float(mantissa)) + int(exponent or 0) * math.log(10)

        logs = [log_value(v) for _k, v in rows]
        assert all(math.isfinite(v) for v in logs)
        # entries a rescale kept at their exponent are read by ldexp where
        # that is a normal double: B_1 = 1 and B_2 = 2 to the last digits
        assert float(rows[1][1]) == 1.0
        assert abs(float(rows[2][1]) - 2.0) <= 4 * math.ulp(2.0)
        with mpmath.workdps(30):
            for k in (*range(1, 20), 97, 287, 1000, 2000, 2614, 2776, 16000):
                want = float(mpmath.log(mpmath.bell(k)))
                assert abs(logs[k] - want) <= 1e-14 * max(1.0, abs(want)), k

    @pytest.mark.parametrize("prec", [12, 17])
    def test_pofn_rows_beyond_double_range_are_rounded(self, spec_files,
                                                       capsys, prec):
        # n = 600 takes the float route; a row above e^700 prints e^l of
        # its log-table entry l, correctly rounded to --precision digits
        code, out, _ = run_cli(["pofn", "--spec", spec_files["setpartitions"],
                                "--n", "600", "--precision", str(prec)], capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[4:]]
        logs = st.log_ptheta_table(st.set_partitions(), 600, 1)
        big = [k for k in range(601) if logs[k] >= 700]
        assert len(rows) == 601 and len(big) > 300
        with mpmath.workdps(prec + 20):
            for k in big:
                want = mpmath.nstr(mpmath.exp(mpmath.mpf(float(logs[k]))), prec)
                assert rows[k][0] == str(k)
                assert Decimal(rows[k][1]) == Decimal(want), k

    def test_prob_t_gap(self, spec_files, capsys):
        code, out, _ = run_cli(["prob-t", "--spec", spec_files["permutations"],
                                "--n", "60", "--x", "1"], capsys)
        assert code == 0
        rec, clo, gap = (float(v) for v in out.splitlines()[-1].split("\t"))
        assert gap < 1e-9 and abs(rec - clo) <= gap * max(rec, clo) * 1.01

    def test_choose_x(self, spec_files, capsys):
        code, out, _ = run_cli(["choose-x", "--spec", spec_files["intpart"],
                                "--n", "100", "--choose-x",
                                "integer_partition"], capsys)
        assert code == 0
        x = float(out.splitlines()[-1].split("\t")[0])
        assert x == pytest.approx(math.exp(-math.pi / math.sqrt(600)), rel=1e-11)

    def test_moments_table(self, spec_files, capsys):
        code, out, _ = run_cli(["moments", "--spec", spec_files["permutations"],
                                "--n", "6", "--j", "1..3"], capsys)
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines()[-3:]]
        assert [float(r[2]) for r in rows] == pytest.approx([1, 0.5, 1 / 3])

    def test_moments_solves_x_once(self, spec_files, capsys, monkeypatch):
        # above the exact cutoff every j reads the float p_theta table at the
        # one exact-mean x
        from combstruct import indep_process as ip
        n, calls, orig = 600, [], ip.choose_x

        def spy(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)
        monkeypatch.setattr(ip, "choose_x", spy)
        monkeypatch.setattr(cli, "choose_x", spy)
        code, out, _ = run_cli(["moments", "--spec", spec_files["intpart"],
                                "--n", str(n), "--precision", "17"], capsys)
        assert code == 0 and calls == [n]
        monkeypatch.undo()
        rows = [l.split("\t") for l in out.splitlines()[-n:]]
        spec = st.integer_partitions()
        assert [float(r[2]) for r in rows] == [
            mom.factorial_moment_single(spec, n, j, 1, theta=1)
            for j in range(1, n + 1)]

    def test_esf_command(self, capsys):
        code, out, _ = run_cli(["esf", "--n", "3", "--kappa", "1",
                                "--a", "0,0,1"], capsys)
        assert code == 0
        assert "1/3" in out

    def test_limit_command(self, spec_files, capsys):
        code, out, _ = run_cli(["limit", "--spec", spec_files["permutations"],
                                "--n", "300", "--x", "1"], capsys)
        assert code == 0
        assert "rel_gap" in out

    def test_heuristic_trend(self, spec_files, capsys):
        code, out, _ = run_cli(["heuristic", "--spec", spec_files["esf2"],
                                "--n", "100", "--B", "1", "--x", "1",
                                "--doublings", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2].startswith("100\t") and lines[-1].startswith("200\t")

    def test_heuristic_params_by_the_shared_helper(self, spec_files, capsys,
                                                   monkeypatch):
        seen = []
        real = cli._params_for

        def spy(args, spec, n):
            seen.append(n)
            return real(args, spec, n)

        monkeypatch.setattr(cli, "_params_for", spy)
        code, _, _ = run_cli(["heuristic", "--spec", spec_files["esf2"],
                              "--n", "100", "--B", "1", "--doublings", "1"],
                             capsys)
        assert code == 0 and seen == [100, 200]

    def test_sample_deterministic(self, spec_files, capsys):
        args = ["sample", "--spec", spec_files["permutations"], "--n", "6",
                "--samples", "40", "--seed", "9", "--x", "1"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "# trials\t40 accepted=40 " in out1
        assert "method=table" in out1
        sample_lines = [l for l in out1.splitlines()
                        if l and not l.startswith("#") and ":" in l]
        assert len(sample_lines) == 40
        # sparse pairs decode to complete vectors
        for line in sample_lines:
            total = sum(int(p.split(":")[0]) * int(p.split(":")[1])
                        for p in line.split())
            assert total == 6

    def test_sample_esf_float_kappa_above_171(self, spec_files, capsys):
        # exact m_i = Fraction(kappa) (i-1)! never converts a factorial to float
        code, out, err = run_cli(["sample", "--spec", spec_files["esf_float"],
                                  "--n", "300", "--x", "1", "--samples", "3"],
                                 capsys)
        assert code == 0, err
        assert "# trials" in out

    def test_cs_threads_sets_streams(self, spec_files, capsys, monkeypatch):
        monkeypatch.setenv("CS_THREADS", "3")
        args = ["sample", "--spec", spec_files["permutations"], "--n", "5",
                "--samples", "30", "--seed", "4", "--x", "1"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert "streams=3" in out1
        assert out1 == out2

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_cs_threads_must_be_a_positive_integer(self, value, spec_files,
                                                   capsys, monkeypatch):
        monkeypatch.setenv("CS_THREADS", value)
        code, out, err = run_cli(["sample", "--spec", spec_files["permutations"],
                                  "--n", "5", "--samples", "3", "--x", "1"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: CS_THREADS") and repr(value) in err

    def test_json_format(self, spec_files, capsys):
        code, out, _ = run_cli(["prob-t", "--spec", spec_files["permutations"],
                                "--n", "10", "--x", "1", "--format", "json"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert "recursion" in doc["table"][0]
        # 17 significant digits are present
        text = out.split('"recursion":')[1].split(",")[0]
        assert len(text.replace("0.", "").rstrip("0")) >= 15

    def test_scalar_row_in_both_formats(self):
        # a JSON scalar is fmt's text, bare for bools, ints and finite
        # floats and quoted for Fractions, non-finite floats and text
        cols = ["bool", "int", "frac", "float", "pinf", "ninf", "nan",
                "none", "text"]
        row = [True, np.int64(7), Fraction(1, 2), 0.1, math.inf, -math.inf,
               math.nan, None, "text"]

        def render(fmt):
            out = cli.Output(argparse.Namespace(format=fmt, precision=None),
                             None)
            out.table(cols, [row])
            return out.render()

        assert render("tsv").splitlines()[-1].split("\t") == \
            [cli.fmt(v, 12) for v in row]
        want = ['true', '7', '"1/2"', cli.fmt(0.1, 17), '"inf"', '"-inf"',
                '"nan"', 'null', '"text"']
        assert want[3] == "0.10000000000000001"
        assert render("json").endswith('"table":[{' + ",".join(
            f'"{c}":{w}' for c, w in zip(cols, want)) + '}]}\n')

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestExitCodes:
    def test_flag_error_is_2(self, spec_files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["tv", "--spec", spec_files["permutations"], "--B", "1"])
        assert exc.value.code == 2

    def test_choose_x_refuses_x(self, spec_files, capsys):
        # choose-x solves for x, so a given --x is a flag error
        with pytest.raises(SystemExit) as exc:
            cli.run(["choose-x", "--spec", spec_files["permutations"],
                     "--n", "100", "--x", "0.3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["tv", "--B", "1"], ["prob-t"], ["pofn"], ["moments", "--j", "1"],
        ["sample", "--samples", "1"], ["choose-x"], ["limit"],
        ["heuristic", "--B", "1"], ["esf", "--kappa", "2"],
    ], ids=lambda a: a[0])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_n_below_1_is_3(self, spec_files, capsys, argv, n):
        spec = [] if argv[0] == "esf" else ["--spec", spec_files["permutations"]]
        code, out, err = run_cli([argv[0], *spec, "--n", n, *argv[1:]], capsys)
        assert (code, out) == (3, "") and "n must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["pofn"], ["choose-x"], ["moments", "--j", "1"], ["tv", "--B", "1"],
    ], ids=lambda a: a[0])
    @pytest.mark.parametrize("spec", ["intpart", "setpartitions", "distinct"])
    @pytest.mark.parametrize("theta", ["0", "0.0"])
    def test_theta_0_above_the_cutoff_is_3(self, spec_files, capsys, argv,
                                           spec, theta):
        # the exact-mean solve of a multiset divided by theta for its pole;
        # every kind now exits 3 with TiltedParams' message
        code, out, err = run_cli([argv[0], "--spec", spec_files[spec], "--n",
                                  "600", "--theta", theta, *argv[1:]], capsys)
        assert (code, out) == (3, "")
        assert "x and theta must be positive" in err

    def test_negative_ecdf_is_3(self, spec_files, capsys):
        code, out, err = run_cli(["limit", "--spec", spec_files["permutations"],
                                  "--n", "20", "--x", "1", "--ecdf", "-3"],
                                 capsys)
        assert (code, out) == (3, "") and "ecdf" in err

    def test_parameter_domain_is_3(self, spec_files, capsys):
        code, _, err = run_cli(["tv", "--spec", spec_files["intpart"],
                                "--n", "8", "--B", "1..3", "--x", "1.5"],
                               capsys)
        assert code == 3
        assert "multiset" in err

    def test_missing_file_is_3(self, capsys):
        code, _, _ = run_cli(["tv", "--spec", "/nonexistent.json", "--n", "4",
                              "--B", "1", "--x", "1"], capsys)
        assert code == 3

    def test_bad_kind_is_3(self, spec_files, capsys):
        code, _, err = run_cli(["pofn", "--spec", spec_files["bad_kind"],
                                "--n", "5"], capsys)
        assert code == 3
        assert "valid kinds" in err

    @pytest.mark.parametrize("cmd", [["prob-t"], ["tv", "--B", "1..5", "--heuristic"],
                                     ["limit"]], ids=lambda c: c[0])
    def test_selection_logistic_raises_no_runtime_warning(self, spec_files,
                                                          capsys, cmd):
        # the logistic of theta x^i must not overflow exp on either branch,
        # and the m_i softplus takes log sp = lw where log1p(e^lw) underflows
        argv = [cmd[0], "--spec", spec_files["squarefree2"], "--n", "2000",
                "--choose-x", "exact_mean"] + cmd[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(argv, capsys)
        assert code == 0, err

    @pytest.mark.parametrize("flags", [["--x", "abc"], ["--x", "1/0"],
                                       ["--theta", "two"], ["--B", "1..x"],
                                       ["--B", "0..3"]],
                             ids=["x", "x_zero_denominator", "theta", "B",
                                  "B_index_0"])
    def test_bad_flag_value_is_2(self, spec_files, capsys, flags):
        argv = ["tv", "--spec", spec_files["permutations"], "--n", "10",
                "--x", "1", "--B", "1..3"] + flags
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["pofn", "--precision", "-1"], ["pofn", "--precision", "0"],
        ["pofn", "--precision", "x"], ["heuristic", "--B", "1",
                                       "--doublings", "-1"],
    ], ids=["precision_negative", "precision_0", "precision_not_int",
            "doublings_negative"])
    def test_bad_int_flag_is_2(self, spec_files, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run([argv[0], "--spec", spec_files["permutations"], "--n", "5",
                     *argv[1:]])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["verify", "--precision", "-1"],
                                      ["esf", "--n", "3", "--kappa", "1",
                                       "--precision", "0"]],
                             ids=["verify", "esf"])
    def test_bad_precision_without_spec_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["pofn", "--theta", "0"], ["pofn", "--theta", "-1"],
        ["pofn", "--theta=-1/2"], ["moments", "--theta", "-1", "--j", "1"],
        ["moments", "--theta", "-1", "--j", "6"],
        ["moments", "--theta", "0", "--j", "6"],
    ], ids=["pofn_0", "pofn_negative", "pofn_negative_fraction", "moments",
            "moments_j_past_n_negative", "moments_j_past_n_0"])
    def test_non_positive_exact_theta_is_3(self, spec_files, capsys, argv):
        code, out, err = run_cli([argv[0], "--spec", spec_files["intpart"],
                                  "--n", "5", *argv[1:]], capsys)
        assert (code, out) == (3, "") and "theta must be positive" in err

    @pytest.mark.parametrize("argv", [["esf", "--n", "3", "--kappa", "k"],
                                      ["esf", "--n", "3", "--kappa", "1",
                                       "--a", "0,x,1"]],
                             ids=["kappa", "a"])
    def test_bad_esf_flag_value_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ['{"kind": "multiset", "m": [1, 2',
                                      '[1, 2]',
                                      '{"builtin": "polynomials", "params": {"qq": 2}}',
                                      '{"kind": "multiset", "m": ["a"]}'],
                             ids=["truncated", "not_an_object",
                                  "unknown_param", "bad_m_entry"])
    def test_malformed_spec_json_is_3(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["pofn", "--spec", str(path), "--n", "5"],
                                 capsys)
        assert code == 3 and out == ""
        assert "malformed spec" in err

    def test_internal_value_error_surfaces(self, spec_files, capsys,
                                           monkeypatch):
        # an internal ValueError is a bug, not a flag error: it is not
        # reported as exit 2
        def broken(*_a, **_k):
            raise ValueError("internal failure")
        monkeypatch.setattr(cli.sumdist, "prob_T_eq_n", broken)
        with pytest.raises(ValueError, match="internal failure"):
            cli.run(["prob-t", "--spec", spec_files["permutations"], "--n",
                     "10", "--x", "1"])

    @pytest.mark.parametrize("flags", [["--x", "inf"], ["--x", "1", "--theta", "inf"]],
                             ids=["x", "theta"])
    def test_non_finite_parameter_is_3(self, spec_files, capsys, flags):
        argv = ["prob-t", "--spec", spec_files["permutations"], "--n", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(argv + flags, capsys)
        assert code == 3
        assert "finite" in err

    def test_overflowing_tilt_is_4(self, spec_files, capsys):
        # Poisson means theta m_i x^i / i! beyond double range at x = 1e6
        code, _, err = run_cli(["sample", "--spec", spec_files["permutations"],
                                "--n", "60", "--x", "1e6", "--samples", "1"],
                               capsys)
        assert code == 4
        assert err.startswith("numeric guard:")

    def test_limit_overflowing_tilt_is_4(self, spec_files, capsys):
        # e^{-c z} of the limit density with c = -n log x beyond double range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(["limit", "--spec", spec_files["permutations"],
                                    "--n", "60", "--x", "1e6"], capsys)
        assert code == 4
        assert err.startswith("numeric guard:")

    @pytest.mark.parametrize("cmd", [["prob-t"], ["tv", "--B", "1..5"]],
                             ids=lambda c: c[0])
    def test_underflowed_conditioning_is_4(self, spec_files, capsys, cmd):
        # at x = 1e6 P(T_60 = 60) underflows; distinct partitions of 60 exist
        argv = [cmd[0], "--spec", spec_files["distinct"], "--n", "60",
                "--x", "1e6"] + cmd[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert "underflowed" in err and out == ""

    @pytest.mark.parametrize("n", ["7", "1001"])
    def test_true_zero_conditioning_is_3(self, spec_files, capsys, n):
        # components of size 2 only: no structure of odd weight
        code, _, err = run_cli(["tv", "--spec", spec_files["even_only"],
                                "--n", n, "--x", "0.5", "--B", "1..3"], capsys)
        assert code == 3
        assert f"no structures of weight {n}" in err

    def test_cancelling_selection_moment_is_4(self, spec_files, capsys):
        # E C_1 of distinct partitions at n = 1000, theta = 2: the float
        # alternating sum cancels far past 2^10
        code, out, err = run_cli(["moments", "--spec", spec_files["distinct"],
                                  "--n", "1000", "--theta", "2", "--j", "1"],
                                 capsys)
        assert code == 4 and out == ""
        assert err.startswith("numeric guard:") and "cancels" in err

    @pytest.mark.parametrize("spec", ["distinct", "distinct_odd"])
    def test_overflowing_selection_moment_is_4(self, spec_files, capsys, spec):
        # E C_1 at n = 2000, theta = 2: a term of the float sum,
        # theta^m p_theta(n - m) / p_theta(n), is beyond double range
        code, out, err = run_cli(["moments", "--spec", spec_files[spec],
                                  "--n", "2000", "--theta", "2", "--j", "1"],
                                 capsys)
        assert code == 4 and out == ""
        assert err.startswith("numeric guard:") and "double range" in err

    def test_subnormal_conditioning_is_4(self, spec_files, capsys):
        # a subnormal P(T_n = n) is not reported as a probability
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["prob-t", "--spec",
                                      spec_files["subnormal_sel"], "--n", "25",
                                      "--x", "3"], capsys)
        assert code == 4 and out == ""
        assert "underflowed" in err

    def test_numeric_guard_is_4(self, spec_files, capsys):
        code, _, err = run_cli(["sample", "--spec", spec_files["permutations"],
                                "--n", "60", "--samples", "1", "--x", "0.3"],
                               capsys)
        assert code == 4
        assert "acceptance" in err


class TestImportFootprint:
    # one request of every command in a fresh interpreter, which must load
    # no scipy module at import or after any command: the block solve binds
    # dtbtrs in the LAPACK that numpy already loaded, and scipy would cost
    # start-up time, memory and a second OpenBLAS thread pool.  Nor may a
    # request import numpy.ma (np.median does, on its first call).  On Linux
    # the process then holds at most one thread per core.
    SCRIPT = textwrap.dedent("""
        import contextlib, io, sys
        import combstruct, combstruct.cli, combstruct.verify
        from combstruct import cli

        def unwanted_modules():
            # scipy, and numpy.ma: scipy.linalg used to import it at set-up,
            # and np.median's first call imports it, about 15 ms of a request
            return sorted(m for m in sys.modules if m == "numpy.ma"
                          or m.startswith(("scipy", "numpy.ma.")))

        print("import", *unwanted_modules())
        perm, distinct, intpart = sys.argv[1:4]
        requests = [
            ["tv", "--spec", perm, "--n", "600", "--choose-x", "exact_mean",
             "--B", "1..3", "--heuristic"],
            ["prob-t", "--spec", distinct, "--n", "600",
             "--choose-x", "exact_mean"],
            ["prob-t", "--spec", intpart, "--n", "4000",
             "--choose-x", "exact_mean"],
            ["pofn", "--spec", intpart, "--n", "20"],
            ["moments", "--spec", perm, "--n", "30", "--j", "1..3"],
            ["sample", "--spec", perm, "--n", "30", "--x", "1",
             "--samples", "5"],
            ["choose-x", "--spec", intpart, "--n", "600",
             "--choose-x", "exact_mean"],
            ["limit", "--spec", perm, "--n", "600", "--x", "1",
             "--ecdf", "50"],
            ["esf", "--n", "10", "--kappa", "2"],
            ["heuristic", "--spec", perm, "--n", "200", "--x", "1",
             "--B", "1..3"],
            ["verify"],
        ]
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
            if code:
                raise SystemExit(f"{argv[0]} exited {code}")
            print(argv[0], *unwanted_modules())
        try:
            with open("/proc/self/status") as f:
                threads = next(line.split()[1] for line in f
                               if line.startswith("Threads:"))
        except OSError:
            threads = "unknown"
        print("threads", threads)
    """)

    def test_commands_load_no_scipy_or_numpy_ma(self, spec_files):
        if sd._DTBTRS is None:
            pytest.skip("numpy's LAPACK exports no ILP64 dtbtrs here, so the "
                        "block solve imports scipy's")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", self.SCRIPT,
             spec_files["permutations"], spec_files["distinct"],
             spec_files["intpart"]],
            capture_output=True, text=True, env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        *lines, threads = res.stdout.splitlines()
        assert [line.split()[1:] for line in lines] == [[]] * 12, lines
        if sys.platform.startswith("linux"):
            assert int(threads.split()[1]) <= os.cpu_count(), threads


class TestOneLogFactorial:
    def test_no_integral_lgamma_on_the_float_routes(self, tmp_path,
                                                     monkeypatch, capsys):
        # every log k! of the float routes is an entry of
        # structures.log_factorials; math.lgamma is left only for the rising
        # log of a non-integral m
        from combstruct import indep_process as ip

        def lgamma(a):
            if float(a).is_integer():
                raise AssertionError(f"math.lgamma({a!r})")
            return math.lgamma(a)

        fake = type(math)("math")
        fake.__dict__.update(vars(math), lgamma=lgamma)
        for mod in (ip, st, sd, mom):
            monkeypatch.setattr(mod, "math", fake)
        n = str(st.EXACT_CUTOFF + 88)
        for doc in ({"kind": "assembly", "builtin": "permutations"},
                    {"kind": "assembly", "builtin": "set_partitions"},
                    {"kind": "multiset", "m": [1, 2, 3, 4, 5, 6, 7] * 100},
                    {"kind": "selection", "builtin": "distinct_partitions"}):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(doc))
            for cmd in (["prob-t"], ["tv", "--B", "1,2,3"], ["pofn"],
                        ["moments"]):
                code, _, err = run_cli(cmd + ["--spec", str(path), "--n", n,
                                              "--theta", "0.5"], capsys)
                assert code == 0, (doc, cmd, err)
        a = [0] * int(n)
        a[0], a[2], a[int(n) - 6] = 2, 1, 1  # 2 * 1 + 3 + (n - 5) = n
        code, out, err = run_cli(["esf", "--n", n, "--kappa", "0.5", "--a",
                                  ",".join(map(str, a))], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert float(lines[lines.index("pmf") + 1]) > 0


class TestBlasThreadCount:
    # OpenBLAS splits a long np.dot across its threads, so a sum taken by
    # it rounds by the thread count (choose-x's mean_residual on
    # polynomials(2) at n = 16000 did, tv's 17-digit JSON rows on set
    # partitions, and on mappings the full-band recursion's correlation
    # windows past 10^4 entries); a request must print the same bytes under
    # one and two threads, also where R_B takes the periodic tail, and on
    # polynomials(2), where it refuses that tail, keeps the rows before the
    # refusal and stops once q is 0 over the full band
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    @pytest.mark.parametrize("spec,argv", [
        ("poly2", ["choose-x"]),
        ("intpart", ["prob-t"]),
        ("setpartitions", ["tv", "--B", "1,3,5,7,9"]),
        ("setpartitions", ["tv", "--B", "1,5,6,9,10", "--heuristic",
                           "--format", "json"]),
        ("mappings", ["tv", "--B", "1,2,3,4,5", "--format", "json"]),
        ("intpart", ["tv", "--B", "1,2,3,4,9", "--format", "json"]),
        ("poly2", ["tv", "--B", "1,2,6,7,10", "--format", "json"]),
    ], ids=["choose-x", "prob-t", "tv", "tv-json", "tv-mappings-json",
            "tv-periodic-json", "tv-refused-periodic-json"])
    def test_same_bytes_under_one_and_two_threads(self, spec_files, spec,
                                                  argv):
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            res = subprocess.run(
                [sys.executable, "-m", "combstruct.cli", argv[0], "--spec",
                 spec_files[spec], "--n", "16000", "--choose-x", "exact_mean",
                 *argv[1:]],
                capture_output=True, text=True, env=env, timeout=300)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1]


class TestParserCache:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_runs_match_fresh_parsers(self, spec_files, capsys,
                                                   monkeypatch):
        argvs = [["prob-t", "--spec", spec_files["permutations"], "--n", "20",
                  "--x", "1", "--theta", "1/2"],
                 ["tv", "--spec", spec_files["intpart"], "--n", "12",
                  "--B", "1..3", "--x", "0.5", "--format", "json"],
                 ["esf", "--n", "4", "--kappa", "2", "--a", "0,2,0,0"],
                 ["prob-t", "--spec", spec_files["permutations"], "--n", "20",
                  "--x", "1"]]
        cached = [run_cli(argv, capsys) for argv in argvs]
        fresh_parser = cli.build_parser.__wrapped__
        monkeypatch.setattr(cli, "build_parser", fresh_parser)
        fresh = [run_cli(argv, capsys) for argv in argvs]
        assert cached == fresh
        assert all(code == 0 for code, _, _ in cached)
        assert cached[0][1] != cached[3][1]  # theta did not stick


class TestIndexSetSyntax:
    def test_parse(self):
        assert cli.parse_index_set("1..5,7") == (1, 2, 3, 4, 5, 7)
        assert cli.parse_index_set("") == ()
        assert cli.parse_index_set("3,1,1") == (1, 3)
