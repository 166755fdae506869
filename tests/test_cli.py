"""Command-line front end: subcommands, exit codes, output stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convlab.cli as cli
from convlab.errors import AccuracyError, RepresentationError
from convlab.registry import NODES, ex31
from convlab.series import TermSource

SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_table(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "ex31(alpha=2)" in out
    assert "ex32(alpha=0.5,beta=2)" in out
    assert "diagram" in out


def test_list_json_schema(capsys):
    code, out, _ = run(capsys, "list", "--format", "json", "--show-policy")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert payload["policy"]["n_max"] == 1_000_000
    assert len(payload["families"]) == 6


def test_diagnose_const_all_holds(capsys):
    code, out, _ = run(capsys, "diagnose", "--family", "const", "--c", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(r["verdict"] == "holds" for r in payload["reports"])


def test_diagnose_ex33_s1d_fitted_exponent(capsys):
    code, out, _ = run(capsys, "diagnose", "--family", "ex33",
                       "--modes", "s1d", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert rep["verdict"] == "fails"
    assert rep["witness"] == "f=sine"
    assert abs(rep["probes"]["f=sine"]["p_hat"] - 1.0) < 0.02


def test_diagnose_node_names_and_hyphens(capsys):
    code, out, _ = run(capsys, "diagnose", "--family", "ex32", "--alpha", "0.5",
                       "--beta", "2", "--modes", "s-linf,sl1,s2d",
                       "--format", "json")
    assert code == 0
    verdicts = {r["mode"]: r["verdict"] for r in json.loads(out)["reports"]}
    assert verdicts["slinf"] == "holds"
    assert verdicts["sl1"] == "holds"
    assert verdicts["s2d"] == "fails"


def test_diagnose_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "diagnose", "--family", "nope")
    assert code == 2
    assert "valid kinds" in err


def test_diagnose_unknown_mode_exit_2(capsys):
    code, _, err = run(capsys, "diagnose", "--family", "const", "--modes", "zzz")
    assert code == 2
    assert "valid modes" in err


def test_diagnose_bad_parameter_exit_2(capsys):
    for argv in (("--family", "ex32", "--alpha", "1.5", "--beta", "2"),
                 ("--family", "ex32", "--alpha", "0.5", "--beta", "1"),
                 ("--family", "shift_uniform", "--beta", "1")):
        code, _, err = run(capsys, "diagnose", *argv)
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("--family", "const", "--c", "nan"),
    ("--family", "const", "--c", "inf"),
    ("--family", "shift_uniform", "--beta", "inf"),
    ("--family", "ex31", "--alpha", "inf"),
    ("--family", "ex32", "--alpha", "0.5", "--beta=-inf"),
], ids=["const-c-nan", "const-c-inf", "shift-beta-inf", "ex31-alpha-inf",
        "ex32-beta-minus-inf"])
def test_diagnose_non_finite_parameter_exit_2(capsys, argv):
    code, out, err = run(capsys, "diagnose", *argv, "--modes", "s3d",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert "must be finite" in err
    assert "Traceback" not in err


def test_diagnose_takes_a_negative_value_after_its_flag(capsys):
    # argparse reads -1e-05 and -inf as options unless they are joined to
    # their flag; the CLI joins a value that reads as a number
    code, out, err = run(capsys, "diagnose", "--family", "const", "--c", "-1e-05",
                         "--modes", "cc")
    assert (code, err) == (0, "")
    assert "const(c=-1e-05)" in out
    code, out, err = run(capsys, "diagnose", "--family", "const", "--c", "-inf",
                         "--modes", "cc")
    assert (code, out) == (2, "")
    assert "const parameter c must be finite, got -inf" in err


def _scipy_integrate_loaded(statement):
    """Run `statement` in a fresh interpreter; did it load scipy.integrate?"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"{statement}\nimport sys\nprint('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_cold_start_without_quadrature_skips_scipy(tmp_path):
    path = tmp_path / "terms.csv"
    path.write_text("\n".join(repr(1.0 / n ** 2) for n in range(1, 5001)))
    main = "from convlab.cli import main\n"
    for statement in (
        "import convlab",
        main + "assert main(['list']) == 0",
        main + f"assert main(['series', '--input', {str(path)!r}]) == 0",
        main + "assert main(['diagnose', '--family', 'shift_uniform', "
               "'--beta', '2']) == 0",
        main + "assert main(['diagnose', '--family', 'ex32', '--alpha', '0.5', "
               "'--beta', '2']) == 0",
        main + "assert main(['matrix']) == 0",
    ):
        assert not _scipy_integrate_loaded(statement), statement


def test_generic_expectation_loads_scipy_on_demand():
    # E[X] = 1/(2 - alpha) for the density (1-alpha)(1-u)^(-alpha)
    assert _scipy_integrate_loaded(
        "from convlab import space\n"
        "rv = space.density_rv(space.PowerAtOne(0.5))\n"
        "mean, err = space.expectation(rv, lambda x: x)\n"
        "assert abs(mean - 2.0 / 3.0) < 1e-10, mean")


def test_matrix_clean_exit_0(capsys):
    code, out, _ = run(capsys, "matrix")
    assert code == 0
    assert "no violations" in out


def test_matrix_injected_edge_exit_4(capsys):
    code, out, _ = run(capsys, "matrix", "--inject-edge", "s2d,s1d")
    assert code == 4
    assert "VIOLATIONS (1)" in out


def test_matrix_inject_edge_validation(capsys):
    code, _, err = run(capsys, "matrix", "--inject-edge", "s2d")
    assert code == 2
    code, _, err = run(capsys, "matrix", "--inject-edge", "s2d,zzz")
    assert code == 2
    assert "valid nodes" in err


def test_matrix_matches_diagnose(capsys):
    code, out, _ = run(capsys, "matrix", "--format", "json")
    grid = json.loads(out)["verdicts"]
    code, out, _ = run(capsys, "diagnose", "--family", "ex33",
                       "--modes", "s1as,cc", "--format", "json")
    reports = {r["mode"]: r["verdict"] for r in json.loads(out)["reports"]}
    assert grid["ex33"]["s1as"]["verdict"] == reports["s1as"]
    assert grid["ex33"]["cc"]["verdict"] == reports["cc"]


def test_series_subcommand(capsys, tmp_path):
    path = tmp_path / "terms.csv"
    path.write_text("\n".join(repr(1.0 / n ** 2) for n in range(1, 5001)))
    code, out, _ = run(capsys, "series", "--input", str(path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["class"] == "converges"
    code, out, _ = run(capsys, "series", "--input", str(path))
    assert code == 0
    assert out.splitlines() == [
        f"{path}: converges (n_used=5000)",
        "  sum_estimate = 1.64493",
        "  tail_bound = 3.9992e-08",
        "  p_hat = 2",
        "  ci_halfwidth = 1e-09",
        "  evidence: {'method': 'exponent_fit'}",
    ]


def test_matrix_table_lists_coverage_gaps_and_the_policy(capsys, monkeypatch):
    # ex31(1)'s s1d and s1star gap series, read without their laws, sit at
    # the exponent-1 boundary of the fit: honest coverage gaps
    family = ex31(1.0)
    closed_form = family.meta.term_source

    def lawless_gaps(kind, value, power):
        src = closed_form(kind, value, power)
        if kind in ("expect_gap", "coupled_gap"):
            return TermSource(src.generator)
        return src

    family.meta.term_source = lawless_gaps
    monkeypatch.setattr(cli, "default_registry", lambda: [family])
    code, out, _ = run(capsys, "matrix", "--n-max", "4096", "--show-policy")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("coverage gaps (2):")
    assert lines[start + 1:start + 3] == ["  ex31(alpha=1): s1star inconclusive",
                                          "  ex31(alpha=1): s1d inconclusive"]
    assert lines[-1] == (
        "policy: n_max=4096, dyadic_window=8, exponent_margin=0.05, "
        "tail_tolerance=1e-06, blowup_threshold=1000000.0, null_tolerance=1e-08")


def test_series_malformed_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n-2.0\n")
    code, _, err = run(capsys, "series", "--input", str(path))
    assert code == 2


def test_series_one_term_exit_2(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.5\n")
    code, out, err = run(capsys, "series", "--input", str(path))
    assert code == cli.EXIT_PARAMETER
    assert out == ""
    assert "need at least 2 terms, got 1" in err


@pytest.mark.parametrize("body", ["1.0\nnan\n0.25\n", "1.0\ninf\n"],
                         ids=["nan", "inf"])
def test_series_non_finite_exit_2(capsys, tmp_path, body):
    path = tmp_path / "non_finite.csv"
    path.write_text(body)
    code, out, err = run(capsys, "series", "--input", str(path),
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert "line 2: non-finite term" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_series_unreadable_input_exit_2(capsys, tmp_path, kind):
    path = {"missing": tmp_path / "absent.csv", "directory": tmp_path,
            "binary": tmp_path / "blob.csv"}[kind]
    if kind == "binary":
        path.write_bytes(bytes(range(256)) * 4)
    code, out, err = run(capsys, "series", "--input", str(path))
    assert code == cli.EXIT_PARAMETER
    assert out == ""
    assert f"cannot read {path}" in err


def test_dump_terms_unwritable_exit_2(capsys, tmp_path):
    path = tmp_path / "absent" / "terms.csv"
    code, out, err = run(capsys, "diagnose", "--family", "const", "--modes", "cc",
                         "--dump-terms", str(path))
    assert code == cli.EXIT_PARAMETER
    assert out == ""
    assert f"cannot write {path}" in err


def test_dump_terms_unwritable_fails_before_any_mode(capsys, tmp_path, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("check_mode ran before the dump path was opened")

    monkeypatch.setattr(cli, "check_mode", no_check)
    path = tmp_path / "absent" / "terms.csv"
    code, out, err = run(capsys, "diagnose", "--family", "ex31", "--alpha", "2",
                         "--dump-terms", str(path))
    assert code == cli.EXIT_PARAMETER
    assert out == ""
    assert f"cannot write {path}" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_dump_terms_full_disk_at_close_exit_2(capsys):
    # one term per probe stays in the write buffer, so the write fails only
    # when the file closes
    code, out, err = run(capsys, "diagnose", "--family", "ex33", "--modes", "cc",
                         "--dump-terms", "/dev/full", "--dump-count", "1")
    assert code == cli.EXIT_PARAMETER
    assert out == ""
    assert "cannot write /dev/full" in err


@pytest.mark.parametrize("c", ("1e16", "-1e16", "1e308", "-1.7976931348623157e308"))
def test_point_mass_beyond_float_resolution_has_x_probes(capsys, c):
    code, out, err = run(capsys, "diagnose", "--family", "const", f"--c={c}",
                         "--modes", "s2d", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["reports"][0]["verdict"] == "holds"


# parameter values at and beyond the edges of each family's domain
_ALPHAS = st.one_of(
    st.sampled_from((5e-324, 1e-300, 1e-16, 1.0 - 2.0 ** -53, 1.0 - 1e-12, 1.0,
                     0.0, -1.0, 1e300)),
    st.floats(-1.0, 3.0), st.floats(1e-300, 1e300))
_BETAS = st.one_of(
    st.sampled_from((1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-12, 1e10, 1e300, 0.5,
                     -1e300)),
    st.floats(0.0, 10.0), st.floats(1.0, 1e300))
_FAMILY_PARAMS = {"ex31": {"alpha": _ALPHAS}, "ex32": {"alpha": _ALPHAS, "beta": _BETAS},
                  "ex33": {}, "shift_uniform": {"beta": _BETAS},
                  "const": {"c": st.floats(-1e308, 1e308)}}


@st.composite
def _family_argv(draw):
    kind = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    argv = ["--family", kind]
    for name, values in _FAMILY_PARAMS[kind].items():
        # "--alpha=-1.0": argparse would read a bare "-1.0" as an option
        argv.append(f"--{name}={draw(values)!r}")
    return argv


@given(family=_family_argv(), modes=st.sets(st.sampled_from(NODES)))
@settings(max_examples=100, deadline=None)
def test_diagnose_fuzzed_family_parameters_exit_cleanly(family, modes):
    argv = ["diagnose", *family, "--modes", ",".join(sorted(modes | {"s3d"})),
            "--n-max", "4096", "--format", "json"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())


@pytest.mark.parametrize("alpha", ["1.25e16", "1e308"])
def test_diagnose_ex31_alpha_past_float_decay_exit_2(capsys, alpha):
    # 2**(-1/alpha) rounds to 1 there, so no member decays in floats; the
    # CLI names the bound rather than certify modes of X_n = 1
    code, out, err = run(capsys, "diagnose", "--family", "ex31", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert "alpha below about 1.2487e16" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ["1e15", "1e16"])
def test_diagnose_ex31_alpha_below_the_bound_still_diagnoses(capsys, alpha):
    code, out, _ = run(capsys, "diagnose", "--family", "ex31", "--alpha", alpha,
                       "--modes", "cc,as", "--format", "json")
    assert code == 0
    assert [r["verdict"] for r in json.loads(out)["reports"]] == ["holds", "holds"]


def test_diagnose_huge_exponent_no_overflow(capsys):
    code, _, err = run(capsys, "diagnose", "--family", "ex32", "--alpha", "0.5",
                       "--beta", "1e300", "--modes", "s3d")
    assert code in (0, 2)
    assert "Traceback" not in err


def test_dump_terms_bit_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "diagnose", "--family", "ex33",
                         "--modes", "s1d,cc", "--dump-terms", str(path),
                         "--dump-count", "50")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    first = a.read_text().splitlines()
    assert first[0] == "mode,probe,n,term"
    assert first[1].startswith("s1d,f=sine,1,0.8414709848078965")


@pytest.mark.parametrize("count", ("-3", "0"))
def test_dump_count_below_one_exit_2(capsys, tmp_path, count):
    path = tmp_path / "terms.csv"
    code, out, err = run(capsys, "diagnose", "--family", "const", "--modes", "cc",
                         "--dump-terms", str(path), "--dump-count", count)
    assert code == cli.EXIT_PARAMETER
    assert "--dump-count must be at least 1" in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("count", ("4097", "1000000000000"))
def test_dump_count_above_the_horizon_exit_2(capsys, tmp_path, count):
    path = tmp_path / "terms.csv"
    code, out, err = run(capsys, "diagnose", "--family", "const", "--modes", "cc",
                         "--n-max", "4096", "--dump-terms", str(path),
                         "--dump-count", count)
    assert code == cli.EXIT_PARAMETER
    assert "--dump-count must be at most the horizon n_max=4096" in err
    assert out == ""
    assert not path.exists()


def test_every_listed_family_diagnoses_by_its_kind(capsys):
    _, out, _ = run(capsys, "list", "--format", "json")
    families = json.loads(out)["families"]
    for fam in families:
        argv = ["--family", fam["kind"]]
        for key, value in fam["params"].items():
            argv += ["--" + key, repr(float(value))]
        code, out, err = run(capsys, "diagnose", *argv, "--modes", "cc",
                             "--format", "json")
        assert code == 0, err
        got = json.loads(out)["family"]
        assert got == {k: fam[k] for k in ("name", "kind", "params")}
    with pytest.raises(SystemExit):
        cli.main(["diagnose", "--help"])
    help_text = capsys.readouterr().out
    assert all(fam["kind"] in help_text for fam in families)


def test_main_maps_accuracy_error_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "cmd_series",
        lambda args: (_ for _ in ()).throw(AccuracyError("fail")),
    )
    # main rebuilds the parser, which binds the patched handler
    code = cli.main(["series", "--input", "whatever.csv"])
    assert code == cli.EXIT_ACCURACY


def test_main_maps_other_convlab_errors_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "cmd_series",
        lambda args: (_ for _ in ()).throw(RepresentationError("bad piece")),
    )
    code, out, err = run(capsys, "series", "--input", "whatever.csv")
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: bad piece\n"


def test_sweep_repeated_and_after_diagnose_matches_fresh_process(capsys):
    # the per-family source cache and the shared hint, evidence and params
    # caches change no output: a sweep run again on the same families, after
    # a diagnose, or on new families equals one in a fresh process
    from convlab.registry import default_registry, mode_diagram, soundness_sweep

    script = ("import json; from convlab.registry import *; print(json.dumps("
              "soundness_sweep(mode_diagram(), default_registry()).to_dict(), "
              "sort_keys=True))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    want = json.loads(proc.stdout)
    families = default_registry()
    assert soundness_sweep(mode_diagram(), families).to_dict() == want
    assert run(capsys, "diagnose", "--family", "ex31", "--alpha", "2",
               "--format", "json")[0] == 0
    assert soundness_sweep(mode_diagram(), families).to_dict() == want
    assert soundness_sweep(mode_diagram(), default_registry()).to_dict() == want
