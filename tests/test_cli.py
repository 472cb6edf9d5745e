"""CLI surface: spec files, flags, output determinism, exit codes."""

import io
import json
import math
import sys
import warnings

import pytest

from combstruct import cli
from combstruct import structures as st
from combstruct import oracle as orc
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

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestExitCodes:
    def test_flag_error_is_2(self, spec_files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["tv", "--spec", spec_files["permutations"], "--B", "1"])
        assert exc.value.code == 2

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
        # the logistic of theta x^i must not overflow exp on either branch;
        # the request still ends in the m_i softplus domain error (exit 2)
        argv = [cmd[0], "--spec", spec_files["squarefree2"], "--n", "2000",
                "--choose-x", "exact_mean"] + cmd[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, _ = run_cli(argv, capsys)
        assert code == 2

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

    def test_numeric_guard_is_4(self, spec_files, capsys):
        code, _, err = run_cli(["sample", "--spec", spec_files["permutations"],
                                "--n", "60", "--samples", "1", "--x", "0.3"],
                               capsys)
        assert code == 4
        assert "acceptance" in err


class TestIndexSetSyntax:
    def test_parse(self):
        assert cli.parse_index_set("1..5,7") == (1, 2, 3, 4, 5, 7)
        assert cli.parse_index_set("") == ()
        assert cli.parse_index_set("3,1,1") == (1, 3)
