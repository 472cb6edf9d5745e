"""CLI surface: spec files, flags, output determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import textwrap
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from combstruct import cli
from combstruct import moments as mom
from combstruct import structures as st
from combstruct import oracle as orc
from combstruct import sumdist as sd
from combstruct import sampler as smp
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import TiltedParams, z_law
from cli_helpers import run_script, write_specs


@pytest.fixture
def spec_files(tmp_path):
    return write_specs(tmp_path)


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
        # entries k <= 2776 that a rescale would take below the smallest
        # normal double keep their exponent, so no row reads 0, and no
        # weight needs the support test of the underflow guard.  Every row
        # k <= 2776 is held to the exact Bell number B_k, and the last to
        # mpmath's B_16000
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

        assert [k for k, v in rows if float(v.partition("e+")[0]) == 0.0] == []
        logs = [log_value(v) for _k, v in rows]
        assert all(math.isfinite(v) for v in logs)
        # entries a rescale kept at their exponent are read by ldexp where
        # that is a normal double: B_1 = 1 and B_2 = 2 to the last digits
        assert float(rows[1][1]) == 1.0
        assert abs(float(rows[2][1]) - 2.0) <= 4 * math.ulp(2.0)
        for k, b in enumerate(_bell(2776)[1:], 1):
            want = math.log(b)
            assert abs(logs[k] - want) <= 1e-14 * max(1.0, abs(want)), k
        with mpmath.workdps(30):
            want = float(mpmath.log(mpmath.bell(16000)))
        assert abs(logs[16000] - want) <= 1e-14 * abs(want)

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


def _bell(n):
    """Bell numbers B_0..B_n by the Bell triangle."""
    bell, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bell.append(row[0])
    return bell


def _pentagonal_partitions(n):
    """p(0..n) by Euler's pentagonal recurrence, term by term."""
    partitions = [1]
    for k in range(1, n + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= k:
                    total += sign * partitions[k - g]
            j += 1
        partitions.append(total)
    return partitions


def _distinct_subset_sums(n):
    """[z^k] prod_{i<=n} (1 + z^i), k <= n, one part at a time."""
    distinct = [1] + [0] * n
    for i in range(1, n + 1):
        for s in range(n, i - 1, -1):
            distinct[s] += distinct[s - i]
    return distinct


def _rising(t, n):
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * (t + k))
    return out


class TestPofnReferences:
    """The n = 512 rows of pofn (exact route, JSON), read in process, each
    against a reference that shares no code with the package's tables."""

    N = 512
    CASES = {
        "esf_half": ({"kind": "assembly", "builtin": "esf",
                      "params": {"kappa": "1/2"}}, "2",
                     lambda n: [math.factorial(k) for k in range(n + 1)]),
        "perm": ({"kind": "assembly", "builtin": "permutations"}, "3/5",
                 lambda n: _rising(Fraction(3, 5), n)),
        "mappings": ({"kind": "assembly", "builtin": "mappings"}, "1",
                     lambda n: [k ** k for k in range(n + 1)]),
        "set_partitions": ({"kind": "assembly", "builtin": "set_partitions"},
                           "1", _bell),
        "integer_partitions": ({"kind": "multiset",
                                "builtin": "integer_partitions"}, "1",
                               _pentagonal_partitions),
        "polynomials": ({"kind": "multiset", "builtin": "polynomials",
                         "params": {"q": 2}}, "1",
                        lambda n: [2 ** k for k in range(n + 1)]),
        "squarefree": ({"kind": "selection",
                        "builtin": "squarefree_polynomials",
                        "params": {"q": 2}}, "1",
                       lambda n: [1, 2] + [2 ** k - 2 ** (k - 1)
                                           for k in range(2, n + 1)]),
        "distinct_partitions": ({"kind": "selection",
                                 "builtin": "distinct_partitions"}, "1",
                                _distinct_subset_sums),
        # m = (1/2): p_theta(k) = theta^k C(2k, k) / 4^k
        "half_m": ({"kind": "multiset", "m": ["1/2"]}, "1/2",
                   lambda n: [Fraction(1, 2) ** k
                              * Fraction(math.comb(2 * k, k), 4 ** k)
                              for k in range(n + 1)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rows_match_reference(self, name, tmp_path, capsys):
        doc, theta, ref = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["pofn", "--spec", str(path), "--n",
                                  str(self.N), "--theta", theta, "--format",
                                  "json"], capsys)
        assert code == 0 and err == ""
        rows = json.loads(out)["table"]
        assert len(rows) == self.N + 1
        assert [r["n"] for r in rows] == list(range(self.N + 1))
        want = ref(self.N)
        bad = [r["n"] for r, v in zip(rows, want)
               if Fraction(r["p_theta"]) != v]
        assert bad == []


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

    @pytest.mark.parametrize("kind", ["assembly", "multiset", "selection"])
    @pytest.mark.parametrize("n,j", [
        *(pytest.param(n, "1..4", id=n) for n in ("511", "513", "1001")),
        *(pytest.param(n, j, id=f"{n}-j{j}")
          for n in ("7", "511", "1001") for j in ("1", "600")),
    ])
    def test_moment_at_a_weight_no_structure_has_is_3(self, tmp_path, capsys,
                                                      kind, n, j):
        # components of size 2 only: p_theta(n) = 0 at odd n.  Above the
        # cutoff the float route divided 0 by 0 and printed nan, exit 0;
        # it now refuses the table as the exact route (n = 511) does.  A
        # row that is 0 wherever weight n is reached (m_1 = 0, or j r > n)
        # is refused too, since it reads the table first
        path = tmp_path / "even.json"
        path.write_text(json.dumps({"kind": kind, "m": [0, 3]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["moments", "--spec", str(path), "--n", n,
                                      "--j", j], capsys)
        assert code == 3 and out == ""
        assert err == f"error: no structures of weight {n}\n"

    @pytest.mark.parametrize("cmd", [["pofn"], ["prob-t", "--choose-x",
                                                "exact_mean"]],
                             ids=lambda c: c[0])
    def test_selection_short_of_weight_n_is_3(self, tmp_path, capsys, cmd):
        # three components of size 2 weigh 6 at most: the exact-mean bracket
        # doubled x up to inf and the error read "x and theta must be finite"
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"kind": "selection", "m": [0, 3]}))
        code, out, err = run_cli([cmd[0], "--spec", str(path), "--n", "1001",
                                  *cmd[1:]], capsys)
        assert code == 3 and out == ""
        assert err == "error: no structures of weight 1001\n"

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

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("spec", ["poly2", "squarefree2"])
    def test_moments_with_a_lead_past_double_range(self, spec_files, capsys,
                                                   spec, r):
        # m_j of the polynomial families is about 2^j / j, so (m_j)^(r)
        # and (m_j)_[r] leave double range near j = 1030 / r, while
        # E (C_j)_[r] stays near 1 / j.  With p(k) = 2^k (polynomials) and
        # 2^(k-1) for k >= 2 (squarefree), E (C_j)_[r] at theta = 1 is
        # lead sum_{m >= r} (+-1)^(m-r) C(m-1, r-1) p(n - jm) / p(n),
        # exactly.  Each row is within 1e-12 relative of it, times the
        # cancellation sum |terms| / |sum| of the selection's alternating
        # sum (1 for a multiset; 9 at j = 1, r = 2, the one row off
        # by more than 1e-12 alone, as at the parent)
        n = 3000
        code, out, _ = run_cli(["moments", "--spec", spec_files[spec],
                                "--n", str(n), "--r", str(r),
                                "--precision", "17"], capsys)
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines()[-n:]]
        assert [int(row[0]) for row in rows] == list(range(1, n + 1))
        sel = spec == "squarefree2"
        obj = st.squarefree_polynomials(2) if sel else st.polynomials(2)

        def p(k):
            return 2 ** k if not sel or k < 2 else 2 ** (k - 1)
        for j, row in enumerate(rows, start=1):
            mj = obj.m(j)
            lead = st.falling(mj, r) if sel else st.rising(mj, r)
            terms = [(-1 if sel and (m - r) % 2 else 1)
                     * math.comb(m - 1, r - 1) * p(n - j * m)
                     for m in range(r, n // j + 1)]
            want = float(Fraction(lead * sum(terms), p(n)))
            ratio = sum(map(abs, terms)) / abs(sum(terms)) if terms else 1
            assert float(row[2]) == pytest.approx(want, rel=1e-12 * ratio,
                                                  abs=0)

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

    def test_underflowed_acceptance_is_4(self, spec_files, capsys):
        # P(T_20 = 20) underflows at x = 1e6 where structures of weight 20
        # exist: a better x helps
        code, out, err = run_cli(["sample", "--spec",
                                  spec_files["permutations"], "--n", "20",
                                  "--samples", "2", "--x", "1e6"], capsys)
        assert code == 4 and out == ""

    @pytest.mark.parametrize("kind", ["multiset", "selection"])
    @pytest.mark.parametrize("x", [["--x", "0.5"], []], ids=["x", "exact_mean"])
    def test_sample_at_a_weight_no_structure_has_is_3(self, tmp_path, capsys,
                                                      kind, x):
        # components of size 2 only: no x reaches weight 7
        path = tmp_path / "even.json"
        path.write_text(json.dumps({"kind": kind, "m": [0, 3]}))
        code, out, err = run_cli(["sample", "--spec", str(path), "--n", "7",
                                  "--samples", "3", *x], capsys)
        assert code == 3 and out == ""
        assert err == "error: no structures of weight 7\n"

    @pytest.mark.parametrize("x", [[], ["--x", "1.5"]], ids=["exact_mean", "x"])
    def test_multiset_tilt_past_one_where_inactive(self, tmp_path, capsys, x):
        # m = [1]: only Z_1 ~ NegBin(1, theta x) is drawn, so theta x < 1 is
        # the whole domain and x = 5/3 solves E T_5 = 5 at theta = 1/2
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"kind": "multiset", "m": [1]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["sample", "--spec", str(path), "--n", "5",
                                      "--theta", "1/2", "--samples", "3", *x],
                                     capsys)
        assert code == 0, err
        lines = out.splitlines()
        start = lines.index("sample") + 1
        assert lines[start:start + 4] == ["1:5"] * 3 + ["stat\tmean\tvar\tse"]


class TestMultisetPoleAtN:
    """The multiset tilt domain is set by the active indices i <= n only:
    theta x^i < 1 there, the last active index binding at theta < 1."""

    FAR = {"kind": "multiset", "m": [1] + [0] * 58 + [1]}

    @staticmethod
    def run_quiet(args, capsys):
        # run_cli under RuntimeWarning-as-error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_cli(args, capsys)

    @staticmethod
    def table(out):
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        return lines[0].split("\t"), [float(v) for v in lines[1].split("\t")]

    def test_integer_partitions_solve_past_one(self, spec_files, capsys):
        # the pole 1000^(1/100) of index 100 at theta = 1/1000
        code, out, err = self.run_quiet(
            ["choose-x", "--spec", spec_files["intpart"], "--n", "100",
             "--theta", "1/1000"], capsys)
        assert code == 0, err
        cols, (x, res) = self.table(out)
        assert cols == ["x", "mean_residual"]
        assert 1.0 < x < 1000.0 ** (1 / 100) and res <= 1e-9 * 100

    def test_integer_partitions_prob_t_at_one(self, spec_files, capsys):
        code, out, err = self.run_quiet(
            ["prob-t", "--spec", spec_files["intpart"], "--n", "50",
             "--theta", "1/2", "--x", "1"], capsys)
        assert code == 0, err
        cols, (rec, clo, gap) = self.table(out)
        assert cols[-1] == "rel_gap" and rec > 0 and gap <= 1e-9

    def test_index_past_n_is_not_read(self, tmp_path, capsys):
        # index 60 > n = 50: Z_1 alone, theta x < 1, E Z_1 = 50 at x = 100/51
        path = tmp_path / "far.json"
        path.write_text(json.dumps(self.FAR))
        code, out, err = self.run_quiet(
            ["choose-x", "--spec", str(path), "--n", "50", "--theta", "1/2"],
            capsys)
        assert code == 0, err
        _cols, (x, res) = self.table(out)
        assert x == pytest.approx(100 / 51, rel=1e-9) and res <= 1e-9 * 50
        code, out, err = self.run_quiet(
            ["prob-t", "--spec", str(path), "--n", "50", "--theta", "1/2",
             "--x", "1.5"], capsys)
        assert code == 0, err
        _cols, (rec, clo, gap) = self.table(out)
        # P(Z_1 = 50) of the geometric law with theta x = 3/4
        assert rec == pytest.approx(0.25 * 0.75 ** 50, rel=1e-12)
        assert gap <= 1e-9

    @pytest.mark.parametrize("which,n,x,pole", [
        ("intpart", 50, "1.014", 2 ** (1 / 50)), ("far", 60, "1.02",
                                                 2 ** (1 / 60))])
    def test_x_past_the_pole_at_n_is_3(self, spec_files, tmp_path, capsys,
                                       which, n, x, pole):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(self.FAR))
        spec = spec_files["intpart"] if which == "intpart" else str(path)
        assert pole < float(x)
        code, out, err = self.run_quiet(
            ["prob-t", "--spec", spec, "--n", str(n), "--theta", "1/2",
             "--x", x], capsys)
        assert code == 3 and out == ""
        assert f"at every i <= {n} with m_i > 0" in err

    BUILTINS = {"integer_partitions": {"builtin": "integer_partitions"},
                "polynomials2": {"builtin": "polynomials",
                                 "params": {"q": 2}},
                "necklaces2": {"builtin": "necklaces", "params": {"q": 2}}}

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(doc=hs.one_of(
               hs.sampled_from(sorted(BUILTINS)),
               hs.integers(1, 60).flatmap(lambda k: hs.lists(
                   hs.integers(0, 3), min_size=k, max_size=k))),
           n=hs.integers(1, 40),
           theta=hs.sampled_from(["1/1000", "1/2", "1", "2", "3"]),
           where=hs.sampled_from(["above", "below", "half"]))
    def test_domain_is_the_active_indices_up_to_n(self, doc, n, theta, where,
                                                  tmp_path_factory):
        # the pole p = min theta^(-1/i) over the active i <= n, from the
        # exact m_i; validate accepts x exactly where theta x^i < 1 at each
        # of them, checked in Fractions at x = p (1 +- 1e-6) and p / 2
        if isinstance(doc, str):
            doc = dict(self.BUILTINS[doc], kind="multiset")
        else:
            doc = {"kind": "multiset", "m": doc}
        path = tmp_path_factory.mktemp("spec") / "m.json"
        path.write_text(json.dumps(doc))
        spec = st.load_spec(str(path))
        th = Fraction(theta)
        active = [i for i in range(1, n + 1) if spec.m(i) != 0]
        p = min((float(th) ** (-1 / i) for i in active), default=math.inf)
        if p == math.inf:
            x = Fraction(2)
        else:
            x = Fraction(p) * {"above": 1 + Fraction(1, 10 ** 6),
                               "below": 1 - Fraction(1, 10 ** 6),
                               "half": Fraction(1, 2)}[where]
        inside = all(th * x ** i < 1 for i in active)
        try:
            TiltedParams(x, th).validate(spec, n)
            accepted = True
        except ParameterDomainError:
            accepted = False
        assert accepted == inside
        common = ["--spec", str(path), "--n", str(n), "--theta", theta]
        xa = ["--x", f"{x.numerator}/{x.denominator}"]
        runs = [("prob-t", [*common, *xa]),
                ("tv", [*common, *xa, "--B", f"1..{min(3, n)}"]),
                ("sample", [*common, *xa, "--samples", "3"]),
                ("choose-x", common)]
        exists = st.ptheta_table(spec, n, 1)[n] > 0
        for cmd, args in runs:
            buf_out, buf_err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(buf_out), \
                    contextlib.redirect_stderr(buf_err):
                warnings.simplefilter("always")
                code = cli.run([cmd, *args])
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)], cmd
            if cmd == "choose-x" and exists:
                assert code == 0, buf_err.getvalue()
                _cols, (_x, res) = self.table(buf_out.getvalue())
                assert res <= 1e-9 * n
            elif cmd == "choose-x":  # e.g. no active index <= n
                assert code in (0, 3), buf_err.getvalue()
            elif accepted:
                assert code in (0, 3, 4), (cmd, buf_err.getvalue())
            else:
                assert code == 3 and "multiset tilt" in buf_err.getvalue()

class TestImportFootprint:
    # one request of every command in a fresh interpreter, which must load
    # no scipy module at import or after any command: the block solve binds
    # dtbtrs in the LAPACK that numpy already loaded, and scipy would cost
    # start-up time, memory and a second OpenBLAS thread pool.  Nor may a
    # request import numpy.ma (np.median and np.unique do, on their first
    # call), nor OpenSSL's _hashlib (hashlib does, about 3.3 MB resident),
    # except that sample and limit --ecdf load _hashlib through
    # numpy.random; they run last, so every other command is checked
    # without it.  The second prob-t takes the split route of a selection.
    # The three requests at n = 16000 run the block solve on numpy's
    # dtbtrs: prob-t on integer_partitions, tv there whose R_B takes the
    # periodic tail of band lcm(B) = 36, and tv on polynomials(2) whose R_B
    # refuses that tail.  On Linux the process then holds at most one
    # thread per core.
    SCRIPT = textwrap.dedent("""
        import contextlib, io, sys
        import combstruct, combstruct.cli, combstruct.verify
        from combstruct import cli

        def unwanted_modules(hashlib_ok=False):
            # scipy; numpy.ma, which scipy.linalg used to import at set-up,
            # about 15 ms of a request; and _hashlib, where hashlib_ok is off
            return sorted(m for m in sys.modules if m == "numpy.ma"
                          or m.startswith(("scipy", "numpy.ma."))
                          or (m == "_hashlib" and not hashlib_ok))

        print("import", *unwanted_modules())
        perm, distinct, distinct_odd, intpart, poly2 = sys.argv[1:6]
        requests = [
            ["tv", "--spec", perm, "--n", "600", "--choose-x", "exact_mean",
             "--B", "1..3", "--heuristic"],
            ["prob-t", "--spec", distinct, "--n", "600",
             "--choose-x", "exact_mean"],
            ["prob-t", "--spec", distinct_odd, "--n", "2000",
             "--choose-x", "exact_mean"],
            ["prob-t", "--spec", intpart, "--n", "4000",
             "--choose-x", "exact_mean"],
            ["pofn", "--spec", intpart, "--n", "20"],
            ["moments", "--spec", perm, "--n", "30", "--j", "1..3"],
            ["choose-x", "--spec", intpart, "--n", "600",
             "--choose-x", "exact_mean"],
            ["esf", "--n", "10", "--kappa", "2"],
            ["heuristic", "--spec", perm, "--n", "200", "--x", "1",
             "--B", "1..3"],
            ["verify"],
            ["prob-t", "--spec", intpart, "--n", "16000",
             "--choose-x", "exact_mean", "--format", "json"],
            ["tv", "--spec", intpart, "--n", "16000", "--choose-x",
             "exact_mean", "--B", "1,2,3,4,9", "--format", "json"],
            ["tv", "--spec", poly2, "--n", "16000", "--choose-x",
             "exact_mean", "--B", "1,2,6,7,10", "--format", "json"],
            ["sample", "--spec", perm, "--n", "30", "--x", "1",
             "--samples", "5"],
            ["limit", "--spec", perm, "--n", "600", "--x", "1",
             "--ecdf", "50"],
        ]
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
            if code:
                raise SystemExit(f"{argv[0]} exited {code}")
            print(argv[0], *unwanted_modules(argv[0] in ("sample", "limit")))
        try:
            with open("/proc/self/status") as f:
                threads = next(line.split()[1] for line in f
                               if line.startswith("Threads:"))
        except OSError:
            threads = "unknown"
        print("threads", threads)
    """)

    def test_commands_load_no_scipy_numpy_ma_or_openssl(self, spec_files):
        if sd._DTBTRS is None:
            pytest.skip("numpy's LAPACK exports no ILP64 dtbtrs here, so the "
                        "block solve imports scipy's")
        out = run_script(self.SCRIPT, spec_files["permutations"],
                         spec_files["distinct"], spec_files["distinct_odd"],
                         spec_files["intpart"], spec_files["poly2"])
        *lines, threads = out.splitlines()
        assert [line.split()[1:] for line in lines] == [[]] * 16, lines
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
    # partitions, on mappings the full-band recursion's correlation
    # windows past 10^4 entries, and the mean of R_B in tv --heuristic and
    # heuristic on esf(1/2)); a request must print the same bytes under
    # one and two threads, also where R_B takes the periodic tail, and on
    # polynomials(2), where it refuses that tail, keeps the rows before the
    # refusal and stops once q is 0 over the full band; and on selections
    # whose R_B splits (the signed recursion above an index, the
    # convolution below) or takes the convolution alone.  The requests run
    # in process through cli.run, each on a freshly loaded spec, in one
    # fresh interpreter per thread count.
    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        from combstruct import cli

        outs = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            outs.append([code, buf.getvalue()])
        print(json.dumps(outs))
    """)
    HEURISTIC = ["tv", "--B", "1,3,5,7,9", "--heuristic"]
    REQUESTS = {
        "choose-x": ("poly2", 16000, ["choose-x"]),
        "choose-x-intpart": ("intpart", 16000, ["choose-x"]),
        "choose-x-setpart": ("setpartitions", 16000, ["choose-x"]),
        "prob-t": ("intpart", 16000, ["prob-t"]),
        "prob-t-poly2": ("poly2", 16000, ["prob-t"]),
        "prob-t-setpart": ("setpartitions", 16000, ["prob-t"]),
        "tv": ("setpartitions", 16000, ["tv", "--B", "1,3,5,7,9"]),
        "tv-heuristic-poly2": ("poly2", 16000, HEURISTIC),
        "tv-heuristic-intpart": ("intpart", 16000, HEURISTIC),
        "tv-heuristic-setpart": ("setpartitions", 16000, HEURISTIC),
        "tv-json": ("setpartitions", 16000,
                    ["tv", "--B", "1,5,6,9,10", "--heuristic", "--format",
                     "json"]),
        "tv-mappings-json": ("mappings", 16000,
                             ["tv", "--B", "1,2,3,4,5", "--format", "json"]),
        "tv-periodic-json": ("intpart", 16000,
                             ["tv", "--B", "1,2,3,4,9", "--format", "json"]),
        "tv-refused-periodic-json": ("poly2", 16000,
                                     ["tv", "--B", "1,2,6,7,10", "--format",
                                      "json"]),
        "tv-split-selection-json": ("distinct_odd", 2000,
                                    ["tv", "--B", "1,3,5,7,9", "--format",
                                     "json"]),
        "prob-t-custom-selection-json": ("custom_sel", 1000,
                                         ["prob-t", "--format", "json"]),
        "tv-heuristic-esf-half-json": ("esf_half", 16000,
                                       ["tv", "--B", "2..16000", "--heuristic",
                                        "--format", "json"]),
        "heuristic-esf-half-json": ("esf_half", 4000,
                                    ["heuristic", "--B", "500..16000",
                                     "--doublings", "2", "--format", "json"]),
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        """{name: ((exit code, stdout) at one thread, at two threads)}."""
        specs = write_specs(tmp_path_factory.mktemp("specs"))
        argvs = [[argv[0], "--spec", specs[spec], "--n", str(n),
                  "--choose-x", "exact_mean", *argv[1:]]
                 for spec, n, argv in self.REQUESTS.values()]
        runs = [json.loads(run_script(self.SCRIPT, json.dumps(argvs),
                                      env={"OPENBLAS_NUM_THREADS": threads},
                                      timeout=600))
                for threads in ("1", "2")]
        return dict(zip(self.REQUESTS, zip(*runs)))

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    @pytest.mark.parametrize("name", list(REQUESTS))
    def test_same_bytes_under_one_and_two_threads(self, outputs, name):
        (code, one), (_, two) = outputs[name]
        assert code == 0, name
        assert one == two, f"bytes differ under 1 and 2 threads: {name}"


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

    def test_parse_makes_an_index_set(self):
        B = cli.parse_index_set("9,2..4, ,1..3")
        assert isinstance(B, sd.IndexSet) and B == (1, 2, 3, 4, 9)
        assert cli.parse_index_set("5..3") == ()
        for text in ("0,2", "-1", str(2 ** 63)):
            with pytest.raises(ParameterDomainError):
                cli.parse_index_set(text)


class TestRequestMemory:
    # the tracemalloc peak of one float-route request at n = 16000, after a
    # warm-up request (imports, the parser): an index set is one int64
    # array of 8 bytes an index, where a tuple of Python ints took 40, and
    # no n-length Python list is held.  With tuples, prob-t's two full sets
    # and tv's complement read 3.77 and 2.61 MB here
    @pytest.mark.parametrize("argv,bound_mb", [
        (["prob-t", "setpartitions"], 3.0),
        (["tv", "intpart", "--B", "1,3,5,7,9"], 2.3),
    ], ids=["prob-t", "tv"])
    def test_peak_of_one_request(self, spec_files, argv, bound_mb):
        cmd, spec, *rest = argv
        full = [cmd, "--spec", spec_files[spec], "--n", "16000",
                "--choose-x", "exact_mean", *rest]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(full) == 0
            tracemalloc.start()
            try:
                assert cli.run(full) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound_mb * 1e6, peak


def _cli_stdout(argv, threads="1"):
    """(exit code, stdout) of cli.run(argv) under CS_THREADS = threads."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CS_THREADS", threads)
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    return code, buf.getvalue()


def _sample_stdout_from_batch(argv, streams):
    """`sample`'s stdout built as it was before it streamed its blocks: the
    SampleBatch of sample_components, each vector's nonzero parts, and
    statistics on the whole batch."""
    args = cli.build_parser().parse_args(argv)
    spec = st.load_spec(args.spec)
    params = cli._params_for(args, spec, args.n)
    batch = smp.sample_components(spec, args.n, params, args.samples,
                                  smp.RngState(args.seed), streams=streams)
    stats = smp.statistics(batch.samples).summary()
    out = cli.Output(args, spec)
    out.add_header("params", f"n={args.n} x={params.fx!r} "
                             f"theta={params.ftheta!r}")
    out.add_header("seed", f"{args.seed} streams={streams}")
    out.add_header("trials", f"{batch.trials} accepted={batch.accepted} "
                             f"exact_acceptance={batch.acceptance_exact!r} "
                             "method=table")
    out.table(["sample"],
              [[" ".join(f"{i}:{ai}" for i, ai in enumerate(v.a, start=1)
                         if ai)] for v in batch.samples])
    out.table(["stat", "mean", "var", "se"],
              [[k, s["mean"], s["var"], s["se"]] for k, s in stats.items()])
    return out.render()


class TestSampleStdout:
    # sha256 of `sample --n 300 --samples 300` stdout at seeds 1 and 2 under
    # CS_THREADS 1 and 2, in that order, with the exact-mean x: pinned
    # before `sample` streamed its blocks, so that every printed byte stays
    PINNED = {
        ("permutations", "json"): (
            "27125e2dcc4d2fe07027e6ecdf0b5a0bac730ab78dc04181260024955b5afb19",
            "29788d6c2786655c1eab5084fbd2232549116618b19c4ece889d447082ef1416",
            "6b1df7c287f93327f60c7dc95cf5467fca6b46835aeb424d68860664c1647a8f",
            "dd0853acb1b8b7e2ada155dc6ef41d651cf739c56c55bf2f08f4f536685aa93b"),
        ("mappings", "json"): (
            "2ff9cbc793c9c745f949eccbd2a2e027f8dce1b6e7a3b759194a1cf46646bc55",
            "42ccc1134e4aab867588682630a88956139cedb13ae9cca544e1af2adfa453e7",
            "5d6b4dbfaa80aecd1f492f65e184f098960c1578450d10344946cb61cfee51d6",
            "e3faebf7ea222bec2759eb861cb0315cb3f685895e6649c8d9f183adff385935"),
        ("setpartitions", "json"): (
            "7464b59a550110bf7f7413752ffd79451d0e24caadb0e9966a99fee5346d3c2a",
            "3429a90dadc33326b9119fc46e27ed0b57084236b7a2bf1a0b7e3a02ff6c59f2",
            "1e13ed40079e125c1c3fbbde5b287e15aba4b7296718f8a3d9a4173728e6581e",
            "806427ab1e608db655f072822105b40876fe68b39bffc592fb2a11e9998f5c05"),
        ("intpart", "json"): (
            "0946ac6fd79108c49597c89e8bcf4dd45d2858b068395ac88ed0fe2cb466b2d2",
            "f29ffe0101b0b693264d07a3ef5f33f49f9558432932f9f9648f1555bacfa8fa",
            "6f369f53edd5487c2526d023f7779b89a8f4d3ca19690020f6338f0ed66e1753",
            "0eb2c84f545a098f349f9dbd083c2a92bcb12c0e865a61108bf1da43dc72f98b"),
        ("distinct", "json"): (
            "2eb301563e22c13e82db350ffaa51a1e5c6d37c53fee6918ffa14561efbeeff9",
            "6801e404af59bb474dde28034ff1cab5ea2997577a578611f5fcc818762f3d58",
            "f2b2fb8972f88c58c4beb9d137832b5197452862509a66fee4cae8fa6d56e74e",
            "f356d8e08fec8a80c7ea7415fdf555672769d11d7d8ea81f5a263664020d6aac"),
        ("poly2", "json"): (
            "f6f6af578aa846eb608810be255303fd32664b1baef6eda2ba627ad66086368d",
            "038052765f3f9bb326091096863f2bad4b14ef9f1f9834b10c7b0e72cfa37eca",
            "f3b4c790f8c15fcce2e192c3f17c7c6d2d0725aea8d486722d38cf59d2ae25cd",
            "6bc0a412cad96037e2f4c768d542bab25ba04062b90e78356774f4d63969c309"),
        ("squarefree2", "json"): (
            "a39add132d12bc763945ad23bc404623c3994df3becc47e876bde0cdce958bae",
            "fa6dc9c96ee314b210c376ffb3e48639984a28baf385c167b7bc3f7be6381539",
            "5e1d5ceb68db3efe860eea7fa12fb4a67da7987ed9401975f3a0883b513896a8",
            "90dfb6e52b05bc75a2f1c191b62306a12fe8eea21bd1b093f2e3489f1733fd3a"),
        ("permutations", "tsv"): (
            "2b8190a776a5ca7a341128998188ffec38853e7230993e8b43c81ca1ffe329c6",
            "926ac0ce28c99e0b843c22bd6cf7f0a32fd63b527ac09456af4adc6a6306fa18",
            "0e98a7547149b8b128243235c1cb2e57f6cdac4a6b86c64a150774ca9b6cd02c",
            "9345d5c360824b5bb1039399540cebd5d08e9be14edcdf6f4e42ce8242507833"),
        ("mappings", "tsv"): (
            "35c8d39ade244f6e1b56cccbf3171fc5d8f083193638c5c5add2e05828ff03c3",
            "5f2ffb7b18bc1cd307c60679a5075815188b14b11ce5f2981323e1f809598d06",
            "eacce568420d9ddd13a1e7b628072c79fbff3aa1bb404ecf7e7b771a48641205",
            "a345eff10c3bdca4d6a2705e42daa4195e4981ebd18194668ba1df6a729bd610"),
        ("setpartitions", "tsv"): (
            "1353b3106f6c00f8ae7931e7b8565f8bba0613c399b348af04248022b7c021be",
            "825042c77c42bb0d22f96fea7fbd624d09201926d12aecb60ce99202b9053269",
            "2dd151cade626abb6194b39b7fcaf02ac86a70accbb0426762fee2142cc68c44",
            "9d01da0dbc08f33f8eec38511e965a41dd84f6693521944dad569870ad93a891"),
        ("intpart", "tsv"): (
            "b6a88fe3c3b09dccdfab6bb3aebf44224557adab35ac39229ad469e8c59c5269",
            "1edf75546118263de828386826fd168012366878cf7e8a8abcd4bba2e3e648df",
            "0aada2403452db90421d87dbcda3a8f0bcc5f2299a95a2fb74448fd61905dcd6",
            "fbc581fefa705be914f777ccc6ed32f0398c0112acb55614b8af3c126d6ef10a"),
        ("distinct", "tsv"): (
            "adfdb1c98526340adec7e5c8232a8f2446cffdff8299e68b6fb5e94350298fae",
            "f93430d4a77bf0c1c8edc2638984368cd723c0e26b41db14686961fe23aac263",
            "c9ef3b650a3c37021570981c03b5cf84bc8a3f1f99c4fc4f8a65c9d78d972519",
            "0c4ca4b5e05610535996dad486fa51f3bbc75740f59912ab4602c4c3c9a5cc3c"),
        ("poly2", "tsv"): (
            "9b2c1c30c45aeecd2e1710ca8d5bc7539f273eb9a6588cb0864b395edfc4c98a",
            "a653e8cbca15e2f6598b7dd46185bcd9f9f374936e5fa19a3b9bd8e9dd79671e",
            "1fbdd91ebb56646fd16565c10cf68ac74df46233735fa27bfd1534313b2281f8",
            "d1df2448cbd1cfb6b3c789fa815c7696cc1e60a02c53a93bc860aa5b1dfa50da"),
        ("squarefree2", "tsv"): (
            "491ef92b2c893e460a2ce70b9af59becf071dcf3af2dd5a20d51163e60b686c6",
            "821cee06155b8a663077660f1d4c4be7683f07cf701801636f69cabcb5940757",
            "69913ee4051cef63463bad2bbf2356ab3a8cda4d076d6a76b9439a9c63b58faf",
            "3835de45054d6b72a30ad28c24bb89fea78f5152a54ef677b528cd68dc4db3b1"),
    }

    @pytest.mark.parametrize("spec,fmt", list(PINNED),
                             ids=[f"{s}-{f}" for s, f in PINNED])
    def test_pinned_digests(self, spec, fmt, spec_files):
        got = []
        for seed in ("1", "2"):
            for threads in ("1", "2"):
                code, out = _cli_stdout(
                    ["sample", "--spec", spec_files[spec], "--n", "300",
                     "--samples", "300", "--seed", seed, "--format", fmt],
                    threads)
                assert code == 0
                got.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(got) == self.PINNED[spec, fmt]

    # streamed in blocks of 1, 7 or 64 samples (or the default), the text is
    # the one built from the batch at the default blocks; a request refused
    # there exits with its code and prints nothing
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=hs.sampled_from(["assembly", "multiset", "selection"]),
           m=hs.lists(hs.integers(0, 3), min_size=1, max_size=8),
           n=hs.integers(1, 40), theta=hs.sampled_from(["1/2", "1", "2"]),
           count=hs.integers(0, 150), threads=hs.sampled_from(["1", "2"]),
           fmt=hs.sampled_from(["tsv", "json"]),
           block=hs.sampled_from([None, 1, 7, 64]))
    def test_streamed_text_is_the_batch_text(self, kind, m, n, theta, count,
                                             threads, fmt, block,
                                             tmp_path_factory):
        path = tmp_path_factory.mktemp("spec") / "custom.json"
        path.write_text(json.dumps({"kind": kind, "m": m}))
        argv = ["sample", "--spec", str(path), "--n", str(n), "--theta",
                theta, "--samples", str(count), "--seed", "5", "--format", fmt]
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(smp, "_BLOCK_BYTES", 0)
                mp.setattr(smp, "_BLOCK_FLOOR", block)
            code, out = _cli_stdout(argv, threads)
        try:
            want, want_code = _sample_stdout_from_batch(argv, int(threads)), 0
        except ParameterDomainError:
            want, want_code = "", 3
        except NumericGuardError:
            want, want_code = "", 4
        assert (code, out) == (want_code, want)
