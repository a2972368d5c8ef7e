"""CLI: parsing precedence, record rendering, exit codes, artifacts."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import pytest

import gaussian_ramsey
from gaussian_ramsey import estimators
from gaussian_ramsey.analytic import solve_cp
from gaussian_ramsey.cli import (
    _COMMANDS,
    _COMMON_KEYS,
    ExperimentConfig,
    _value,
    main,
    parse_config,
    render_csv,
    render_json,
    run,
)
from gaussian_ramsey.cliques import ATTEMPT_BATCH, certificate_from_text, search_witness
from gaussian_ramsey.graphs import MAX_WORDS, WORD_BITS, graph_from_text
from gaussian_ramsey.sampling import RngStream


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_empty_argv_usage_exit_2(capsys):
    code, _, err = run_main([], capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_solve_record(capsys):
    code, out, _ = run_main(["solve", "--C", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "solve"
    assert rec["result"]["p_C"] == pytest.approx(0.3819660, abs=1e-7)
    assert rec["result"]["c_p"] == pytest.approx(0.3004, abs=1e-3)
    assert rec["result"]["a"] == pytest.approx(0.38133, abs=5e-5)
    assert rec["version"] == "0.1.0"


@pytest.mark.parametrize("C", ["1e50", "1e305", "1.7976931348623157e308"])
def test_solve_takes_every_finite_ratio_above_one(C, capsys):
    code, out, err = run_main(["solve", "--C", C], capsys)
    assert code == 0 and err == ""
    assert 0.0 < json.loads(out)["result"]["p_C"] < 0.5


def test_estimate_r1_point_one(capsys):
    code, out, err = run_main(
        ["estimate", "--kind", "clique", "--r", "1", "--d", "16", "--p", "0.4",
         "--color", "red", "--trials", "10", "--seed", "1"],
        capsys,
    )
    rec = json.loads(out)
    assert rec["result"]["point"] == 1.0


def test_seed_repeated_warns_last_wins(capsys):
    code, out, err = run_main(
        ["estimate", "--kind", "clique", "--r", "2", "--d", "16", "--p", "0.5", "--color", "blue", "--trials", "200",
         "--seed", "4", "--restrict-perfect", "--seed", "5", "--restrict-perfect"],
        capsys,
    )
    assert err.count("--seed given more than once; last occurrence wins") == 1
    assert err.count("--restrict-perfect given more than once; last occurrence wins") == 1
    assert json.loads(out)["invocation"]["seed"] == 5 and json.loads(out)["invocation"]["restrict_perfect"] is True


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=1000000\nkind=clique\nr=2\nd=16\np=0.5\ncolor=blue\nseed=7\n")
    code, out, _ = run_main(["estimate", "--config", str(cfg), "--trials", "1000"], capsys)
    rec = json.loads(out)
    assert rec["invocation"]["trials"] == 1000
    assert rec["invocation"]["seed"] == 7


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run_main(
        ["estimate", "--config", str(cfg), "--kind", "density", "--d", "4", "--p", "0.4",
         "--trials", "10"],
        capsys,
    )
    assert code == 2
    assert "unknown key" in err


def test_missing_required_key(capsys):
    code, _, err = run_main(["estimate", "--kind", "density", "--p", "0.4"], capsys)
    assert code == 2
    assert "missing required" in err


def test_parse_config_api():
    cfg = parse_config(["solve", "--C", "3"])
    assert cfg == ExperimentConfig("solve", {"C": 3.0})


def test_records_reproducible_across_runs_and_threads():
    argv = {
        "kind": "clique", "r": 3, "d": 64, "p": 0.4, "color": "red",
        "trials": 50000, "seed": 99,
    }
    outs = []
    for threads in (1, 4, 1):
        params = dict(argv, threads=threads)
        status, rendered = run(ExperimentConfig("estimate", params))
        assert status == 0
        outs.append(rendered)
    assert outs[0] == outs[1] == outs[2]


def test_sample_writes_parseable_graph(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_main(
        ["sample", "--n", "8", "--d", "64", "--p", "0.4", "--seed", "11", "--out", str(target)],
        capsys,
    )
    assert code == 0
    g = graph_from_text(target.read_text())
    assert g.n == 8
    assert g.provenance["seed"] == 11
    rec = json.loads(out)
    assert rec["result"]["blue_edges"] == g.blue_count()


def test_search_verify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run_main(
        ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "geometric",
         "--d", "400", "--p", "0.5", "--max-attempts", "1000", "--seed", "101",
         "--out", str(cert_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["found"]
    code, out, _ = run_main(["verify", "--in", str(cert_path)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["checked"]


def test_verify_tampered_certificate_nonzero_exit(tmp_path, capsys):
    cert_path = tmp_path / "cert.txt"
    run_main(
        ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "binomial",
         "--p", "0.5", "--max-attempts", "2000", "--seed", "55", "--out", str(cert_path)],
        capsys,
    )
    cert = certificate_from_text(cert_path.read_text())
    rows = list(cert.graph.blue_rows)
    # flip bits until a mono triangle appears, then re-serialize
    flipped = None
    for i in range(cert.n):
        for j in range(i + 1, cert.n):
            rows2 = list(rows)
            rows2[i] ^= 1 << j
            rows2[j] ^= 1 << i
            from gaussian_ramsey.cliques import WitnessCertificate, certificate_to_text, verify_witness
            from gaussian_ramsey.graphs import ColoredGraph

            candidate = ColoredGraph(cert.n, tuple(rows2), cert.graph.provenance)
            if not verify_witness(candidate, 3, 3).checked:
                flipped = certificate_to_text(WitnessCertificate(cert.n, 3, 3, candidate, False))
                break
        if flipped:
            break
    assert flipped is not None
    cert_path.write_text(flipped)
    code, out, _ = run_main(["verify", "--in", str(cert_path)], capsys)
    assert code == 1
    assert json.loads(out)["result"]["checked"] is False


def test_scaling_writes_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.dat"
    code, out, _ = run_main(
        ["scaling", "--r", "3", "--p", "0.4", "--dims", "64,256", "--trials", "20000",
         "--sampler", "bartlett", "--seed", "3", "--plot-out", str(plot)],
        capsys,
    )
    assert code == 0
    lines = [l for l in plot.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    x0, y0 = map(float, lines[0].split())
    assert x0 == pytest.approx(64**-0.5)
    assert y0 < 0.0


def test_validate_command_exit_codes(capsys):
    code, out, _ = run_main(
        ["validate", "--check", "norm_concentration", "--d", "400", "--delta", "0.3",
         "--trials", "20000", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"]
    code, _, err = run_main(["validate", "--check", "exp_square_moment", "--trials", "10"], capsys)
    assert code == 2  # missing sigma2/lam


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["--check", "norm_concentration", "--d", "400", "--delta", "0.3", "--p", "0.4", "--freedom", "3"], ""),
        (["--check", "chi_square_tail", "--freedom", "100", "--t", "2", "--d", "7"], ""),
        (["--check", "exp_square_moment", "--sigma2", "1", "--lam", "0"], "d=7\n"),
    ],
    ids=["flags", "flag-d", "config-d"],
)
def test_validate_rejects_keys_the_check_does_not_read(argv, cfg, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(cfg)
    argv = ["validate", *argv, "--trials", "100", "--seed", "1", "--config", str(tmp_path / "run.cfg")]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert "reads exactly" in err


def test_validate_conditional_edge(capsys):
    code, out, _ = run_main(
        ["validate", "--check", "conditional_edge", "--p", "0.38", "--d", "10000",
         "--inner", "0.001", "--diag", "1.0", "--trials", "50000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)["result"]
    assert rec["exact"] <= rec["bound"]
    assert rec["passed"]


def test_bounds_command(capsys):
    code, out, _ = run_main(["bounds", "--C", "2", "--D", "100", "--ell", "50"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["bases_below_one"]
    assert rec["result"]["margin_established"]


def test_bounds_gives_a_record_wherever_its_dimension_holds_the_blue_clique(capsys):
    # the first-order shift can leave (0, 1/2); the margin is then not established, and no c_p is asked for
    margins = set()
    for C in ["1.0001", "1.01", "1.1", "1.5", "2", "3", "5", "10", "100"]:
        for D in ["1", "1.5", "2", "5", "10", "100", "1000"]:
            code, out, err = run_main(["bounds", "--C", C, "--D", D, "--ell", "5"], capsys)
            assert "probability must lie in" not in err, (C, D)
            if float(D) ** 2 * 25 < math.ceil(float(C) * 5):  # d = D^2 ell^2 below k = C ell: outside the domain
                assert code == 1 and out == "" and err.startswith("error: dimension d="), (C, D)
                continue
            assert code in (0, 1) and err == "", (C, D)
            rec = json.loads(out)
            assert rec["passed"] == (code == 0) == rec["result"]["bases_below_one"], (C, D)
            margins.add(rec["result"]["margin_established"])
    assert margins == {True, False}


def test_float_rendering_17_digits():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(-math.inf) == "null"
    assert render_json({"a": 1.0, "b": [True, None]}) == '{"a":1,"b":[true,null]}'
    assert json.loads(render_json({"x": 0.1}))["x"] == 0.1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_UNDERPOWERED = "estimate --kind clique --r 6 --d 64 --p 0.1 --color red --trials 10 --seed 1"


def test_zero_success_record_is_strict_json(capsys):
    code, out, err = run_main(_UNDERPOWERED.split(), capsys)
    assert code == 1 and "noise-dominated" in err  # underpowered
    rec = json.loads(out, parse_constant=_reject_constant)["result"]
    assert rec["successes"] == 0 and rec["log_point"] is None
    assert render_json([math.nan, math.inf, -math.inf]) == "[null,null,null]"


@pytest.mark.filterwarnings("error")  # no Python warning escapes main
def test_an_underpowered_estimate_warns_in_one_line_on_every_call(capsys):
    warning = (
        "warning: binomial reference 1.000e-15 predicts ~0.0 successes in 10 trials (< 100); "
        "estimate will be noise-dominated\n"
    )
    for _ in range(2):  # the same warning from the same line still prints the second time
        code, _, err = run_main(_UNDERPOWERED.split(), capsys)
        assert (code, err) == (1, warning)


def test_only_user_warnings_take_the_one_line_form(capsys, monkeypatch):
    real = estimators.estimate_clique_prob

    def noisy(*args, **kwargs):
        warnings.warn("overflow in a draw", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr("gaussian_ramsey.estimators.estimate_clique_prob", noisy)  # the handler imports it per call
    with pytest.warns(RuntimeWarning, match="overflow in a draw"):
        code, _, err = run_main(_UNDERPOWERED.split(), capsys)
    assert code == 1 and err.startswith("warning: binomial reference") and "overflow" not in err


def test_cli_import_does_not_load_scipy_stats():
    # the package needs scipy.special only; scipy.stats alone costs more start-up than the rest
    src = os.path.dirname(os.path.dirname(gaussian_ramsey.__file__))
    code = "import sys, gaussian_ramsey.cli; print([m for m in sys.modules if m.startswith('scipy.stats')])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


_STARTUP = """
import contextlib, io, json, sys
import gaussian_ramsey, gaussian_ramsey.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return cli.main(argv), out.getvalue()

cert = sys.argv[1]
search = ["search", "--n", "5", "--ell", "3", "--k", "3", "--p", "0.5", "--max-attempts", "1000"]
report = {"import": scipy_loaded()}
for name, argv in [
    ("search-geometric", search + ["--sampler", "geometric", "--d", "400", "--seed", "101", "--out", cert]),
    ("verify", ["verify", "--in", cert]),
    ("search-binomial", search + ["--sampler", "binomial", "--seed", "55"]),
]:
    report[name] = [run(argv)[0], scipy_loaded()]
report["density"] = run("estimate --kind density --n 6 --d 32 --p 0.4 --trials 3000 --seed 4".split())
report["special-after-density"] = "scipy.special" in sys.modules
print(json.dumps(report))
"""


def test_verify_and_half_probability_search_never_load_scipy(tmp_path):
    # c_{1/2} = 0 needs no quantile, so only a special-function call imports scipy.special
    src = os.path.dirname(os.path.dirname(gaussian_ramsey.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP, str(tmp_path / "cert.txt")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["search-geometric"] == report["verify"] == report["search-binomial"] == [0, []]
    golden = (Path(__file__).parent / "golden" / "estimate-density.txt").read_text(encoding="utf-8")
    assert report["density"] == [0, golden]
    assert report["special-after-density"]


_NO_NUMPY = """
import contextlib, io, json, sys
import gaussian_ramsey, gaussian_ramsey.cli as cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return [cli.main(argv), out.getvalue(), err.getvalue()]

report = {name: run(["verify", "--in", name + ".txt"]) for name in ("cert", "unchecked", "malformed")}
report["loaded"] = [
    m for m in ("numpy", "gaussian_ramsey.geometry", "gaussian_ramsey.estimators", "secrets", "hmac", "_hashlib")
    if m in sys.modules
]
report["search"] = run(sys.argv[1].split())
print(json.dumps(report))
"""


def test_verify_never_loads_numpy(tmp_path):
    # only geometry and estimators import numpy at module level, and neither a certificate nor its check needs them;
    # nor secrets (hmac and _hashlib with it), which only a run without --seed draws from
    golden = Path(__file__).parent / "golden"
    search = "search --n 12 --ell 4 --k 4 --sampler geometric --d 64 --p 0.5 --max-attempts 1000 --seed 1028"
    record = (golden / "search-geometric-n12-44.txt").read_text(encoding="utf-8")
    head = "%gaussian-ramsey-certificate v1\nn=4\nell=3\nk=3\n--\n"
    (tmp_path / "cert.txt").write_text(record.split("\n", 1)[1], encoding="utf-8")  # checked
    (tmp_path / "unchecked.txt").write_text(head + "".join(f"{row:016x}\n" for row in (14, 13, 11, 7)))  # blue K_4
    (tmp_path / "malformed.txt").write_text(head + "".join(f"{row:016x}\n" for row in (2, 0, 0, 0)))  # 0-1 one way
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, search],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussian_ramsey.__file__))),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["cert"] == [0, (golden / "verify-n12-44.txt").read_text(encoding="utf-8"), ""]
    assert report["unchecked"][0] == 1 and json.loads(report["unchecked"][1])["result"]["checked"] is False
    assert report["malformed"] == [1, "", "error: adjacency not symmetric at pair (0, 1)\n"]
    assert report["loaded"] == []
    assert report["search"] == [0, record, ""]


def test_csv_format(capsys):
    code, out, _ = run_main(
        ["estimate", "--kind", "density", "--d", "16", "--p", "0.4", "--trials", "500",
         "--seed", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert "result.point" in header.split(",")
    assert len(header.split(",")) == len(row.split(","))


def test_csv_quotes_carriage_returns():
    rows = [{"a": "x\ry", "b": 1}, {"a": 'p,"q"\nr', "b": 2}]
    out = render_csv(rows)
    assert list(csv.reader(io.StringIO(out, newline=""))) == [["a", "b"], ["x\ry", "1"], ['p,"q"\nr', "2"]]


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAUSSIAN_RAMSEY_OUT", str(tmp_path))
    code, _, _ = run_main(
        ["sample", "--n", "4", "--d", "16", "--p", "0.4", "--seed", "1", "--out", "rel.txt"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "rel.txt").exists()


def test_restrict_perfect_flag_threads_through(tmp_path, capsys):
    base = ["estimate", "--kind", "clique", "--r", "5", "--d", "256", "--p", "0.38",
            "--color", "blue", "--trials", "20000", "--sampler", "bartlett", "--seed", "803"]
    spec = ["--alpha-proj", "1.2", "--delta", "0.12", "--spec-ell", "4"]  # read only under --restrict-perfect
    _, out_full, _ = run_main(base, capsys)
    _, out_star, _ = run_main(base + spec + ["--restrict-perfect"], capsys)
    full = json.loads(out_full)["result"]
    star = json.loads(out_star)["result"]
    assert star["config"]["restrict_perfect"] is True
    assert full["config"]["restrict_perfect"] is False
    assert star["successes"] <= full["successes"]
    # same via config file boolean
    cfg = tmp_path / "star.cfg"
    cfg.write_text("restrict_perfect=true\n")
    _, out_cfg, _ = run_main(base + spec + ["--config", str(cfg)], capsys)
    assert json.loads(out_cfg)["result"] == star


def test_seed_defaults_to_recorded_random(capsys):
    code, out, _ = run_main(
        ["estimate", "--kind", "density", "--d", "16", "--p", "0.4", "--trials", "100"],
        capsys,
    )
    rec = json.loads(out)
    seed = rec["invocation"]["seed"]
    assert isinstance(seed, int)
    assert rec["result"]["seed"] == seed  # echoed, reusable for a re-run


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "5", "--d", "8", "--p", "0.4"],
        ["validate", "--check", "chi_square_tail", "--freedom", "3", "--t", "1", "--trials", "10"],
        ["scaling", "--r", "3", "--p", "0.4", "--dims", "4,8", "--trials", "10"],
        ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "binomial", "--p", "0.5",
         "--max-attempts", "10"],
    ],
    ids=["sample", "validate", "scaling", "search"],
)
def test_drawn_seed_is_echoed_by_every_sampling_command(argv, capsys):
    _, out, _ = run_main(argv, capsys)
    rec = json.loads(out.split("\n")[0])
    assert isinstance(rec["invocation"]["seed"], int)
    assert rec["result"].get("seed", rec["invocation"]["seed"]) == rec["invocation"]["seed"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--kind", "density", "--n", "0", "--d", "8", "--p", "0.4", "--trials", "10"],
         "need at least two vertices, got n=0"),
        (["estimate", "--kind", "clique", "--r", "3", "--color", "red", "--d", "256", "--p", "0.38",
          "--trials", "10", "--restrict-perfect", "--alpha-proj", "1.2", "--delta", "0.12", "--spec-ell", "0"],
         "ell and d must be positive"),
    ],
    ids=["n", "spec_ell"],
)
def test_zero_is_read_as_given_not_as_the_default(argv, message, capsys):
    code, out, err = run_main(argv + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert f"error: {message}" in err


#: id -> (argv, error message): each guard a flag reaches past the parser; every message names its key
_GUARDS = {
    "max_attempts": ("search --n 5 --ell 3 --k 3 --sampler binomial --p 0.5 --max-attempts 0",
                     "max_attempts must be positive, got 0"),
    "r": ("estimate --kind clique --r 0 --d 64 --p 0.4 --color red --trials 10",
          "clique size must be positive, got r=0"),
    "delta": ("validate --check norm_concentration --d 400 --delta 1.5 --trials 10",
              "delta must lie in (0, 1), got 1.5"),
    "s": ("validate --check projection_tail --d 64 --ell 4 --s 65 --p 0.38 --C 2 --trials 10",
          "subspace dimension must lie in [1, d], got s=65"),
    "t": ("validate --check chi_square_tail --freedom 3 --t -1 --trials 10",
          "deviation parameter must be nonnegative, got t=-1.0"),
    "sigma2": ("validate --check exp_square_moment --sigma2 0 --lam 0.2 --trials 10",
               "variance proxy must be positive, got sigma2=0.0"),
    "D": ("bounds --C 2 --D 0.5 --ell 5", "dimension multiplier must be >= 1, got D=0.5"),
    "alpha_proj": ("estimate --kind clique --r 3 --d 64 --p 0.4 --color red --trials 10 --restrict-perfect "
                   "--alpha-proj -1 --delta 0.1", "projection constant must be positive, got alpha_proj=-1.0"),
    "delta-spec": ("estimate --kind clique --r 3 --d 64 --p 0.4 --color red --trials 10 --restrict-perfect "
                   "--alpha-proj 1.2 --delta 0", "norm half-width must be positive, got delta=0.0"),
}


@pytest.mark.parametrize("argv, message", _GUARDS.values(), ids=_GUARDS)
def test_a_guarded_value_is_an_error_exit_naming_its_key(argv, message, capsys):
    seed = [] if argv.startswith("bounds") else ["--seed", "1"]  # bounds draws nothing and rejects a seed
    code, out, err = run_main(argv.split() + seed, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_config_repeated_warns_last_wins(tmp_path, capsys):
    full, seed_only = tmp_path / "a.cfg", tmp_path / "b.cfg"
    full.write_text("kind=density\nd=16\np=0.4\ntrials=10\nseed=1\n")
    seed_only.write_text("seed=2\n")
    warning = "warning: --config given more than once; last occurrence wins\n"
    code, out, err = run_main(["estimate", "--config", str(full), "--config", str(seed_only)], capsys)
    assert code == 2 and out == ""
    assert err == warning + "usage error: estimate: missing required key(s): kind, d, p, trials\n"
    code, out, err = run_main(["estimate", "--config", str(seed_only), "--config", str(full)], capsys)
    assert code == 0 and err == warning
    assert json.loads(out)["invocation"]["seed"] == 1


def test_verify_record_escapes_control_characters(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    run_main(
        ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "binomial",
         "--p", "0.5", "--max-attempts", "1000", "--seed", "55", "--out", str(cert)],
        capsys,
    )
    odd = tmp_path / 'tab\there\nnewline "quoted" \\ é\x01.txt'
    odd.write_text(cert.read_text())
    code, out, _ = run_main(["verify", "--in", str(odd)], capsys)
    assert code == 0
    assert json.loads(out)["invocation"]["infile"] == str(odd)
    assert "é" in out and "\t" not in out and out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--kind", "density", "--d", "0", "--p", "0.4", "--trials", "10"],
        ["estimate", "--kind", "clique", "--r", "3", "--color", "red", "--d", "0", "--p", "0.4",
         "--trials", "10"],
        ["scaling", "--r", "3", "--p", "0.4", "--dims", "0,4", "--trials", "10"],
        ["validate", "--check", "norm_concentration", "--d", "0", "--delta", "0.5", "--trials", "10"],
        ["validate", "--check", "quadratic_moment", "--d", "0", "--k", "1", "--lam", "0",
         "--cutoffs", "0", "--trials", "10"],
        ["validate", "--check", "conditional_edge", "--p", "0.4", "--d", "0", "--inner", "0",
         "--diag", "1", "--trials", "10"],
        ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "geometric", "--d", "0",
         "--p", "0.5", "--max-attempts", "10"],
        ["sample", "--n", "5", "--d", "0", "--p", "0.4"],
    ],
)
def test_zero_dimension_is_an_error_exit(argv, capsys):
    code, out, err = run_main(argv + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert "dimension" in err


def test_sample_vertex_count_below_one_is_an_error_exit(capsys):
    code, out, err = run_main(["sample", "--n", "0", "--d", "8", "--p", "0.4", "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert "vertex count must be positive, got n=0" in err


def test_sample_draws_the_coloring_of_a_searchs_first_attempt(capsys):
    # with ell = k = n + 1 no clique can exist, so the search returns attempt 0
    cert = search_witness(20, 21, 21, "geometric", {"d": 64, "p": 0.4}, 1, RngStream(3))
    code, out, _ = run_main(["sample", "--n", "20", "--d", "64", "--p", "0.4", "--seed", "3"], capsys)
    assert code == 0 and cert.graph.provenance["attempt"] == 0
    assert graph_from_text(out.split("\n", 1)[1]).blue_rows == cert.graph.blue_rows


#: one trial of each is far over estimators._MAX_TRIAL_ELEMENTS doubles
_OVERSIZED = {
    "sample": "sample --n 20000 --d 64 --p 0.4",
    "density": "estimate --kind density --n 20000 --d 64 --p 0.4 --trials 1",
    "clique": "estimate --kind clique --r 20000 --d 30000 --sampler bartlett --p 0.4 --color red --trials 1",
    # the oversized dimension second: every plan is sized before the first one draws
    "scaling": "scaling --r 3 --p 0.4 --dims 64,2000000000 --sampler direct --trials 1",
}


@pytest.mark.parametrize("argv", _OVERSIZED.values(), ids=_OVERSIZED)
@pytest.mark.filterwarnings("ignore:binomial reference")
def test_oversized_trial_is_refused_before_any_generator(argv, monkeypatch, capsys):
    def no_generator(self):
        raise AssertionError("a generator was made for an oversized trial")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    code, out, err = run_main(argv.split() + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: one trial would hold ")
    assert f"doubles, over the cap of {estimators._MAX_TRIAL_ELEMENTS}" in err


def test_no_geometric_search_exceeds_the_trial_cap(capsys):
    # the engine takes n <= 512, and the plan draws n <= d triangular and n > d
    # direct, so one attempt holds at most 512 * 512 doubles, whatever d is
    top = MAX_WORDS * WORD_BITS
    for n in (1, 2, top - 1, top):
        for d in {max(1, n - 1), n, n + 1, 10**8}:
            _, sampler, batch, _ = estimators._pair_plan(n, d, 0.5, cap=ATTEMPT_BATCH)
            assert sampler == ("bartlett" if n <= d else "direct")
            assert estimators._trial_elements(n, d, sampler) <= top * top < estimators._MAX_TRIAL_ELEMENTS
            assert batch * estimators._trial_elements(n, d, sampler) <= estimators._BATCH_ELEMENTS
    argv = "search --n 512 --ell 4 --k 4 --sampler geometric --d 100000000 --p 0.5 --max-attempts 1 --seed 1"
    code, out, err = run_main(argv.split(), capsys)
    assert code == 1 and err == "" and '"found":false' in out


@pytest.mark.parametrize(
    "argv, name",
    [("bounds --C 2 --D 100 --ell 5 --eps -1", "eps"),
     ("validate --check projection_tail --d 2500 --ell 100000 --s 2 --p 0.5 --C 0.00002 --trials 10 --seed 1", "C")],
    ids=["bounds-eps-negative", "projection-tail-C-at-most-one"],
)
def test_values_outside_the_papers_domain_are_refused_by_name(argv, name, capsys):
    code, out, err = run_main(argv.split(), capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"{name}=" in err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("sampler", [["--sampler", "binomial"], ["--sampler", "geometric", "--d", "8"]])
def test_search_vertex_count_below_one_is_an_error_exit(n, sampler, capsys):
    argv = ["search", "--n", n, "--ell", "3", "--k", "3", "--p", "0.5", "--max-attempts", "10", "--seed", "1"]
    code, out, err = run_main(argv + sampler, capsys)
    assert code == 1 and out == ""
    assert f"vertex count must be positive, got n={n}" in err


@pytest.mark.parametrize("p", ["1.5", "-0.5"])
def test_search_binomial_probability_outside_unit_interval_is_an_error_exit(p, capsys):
    argv = ["search", "--n", "5", "--ell", "3", "--k", "3", "--sampler", "binomial", "--p", p,
            "--max-attempts", "10", "--seed", "1"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert f"p={float(p)}" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(threads, tmp_path, capsys):
    argv = ["estimate", "--kind", "density", "--d", "4", "--p", "0.4", "--trials", "10", "--seed", "1"]
    code, out, err = run_main(argv + ["--threads", threads], capsys)
    assert code == 2 and out == ""
    assert "threads" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads={threads}\n")
    assert run_main(argv + ["--config", str(cfg)], capsys)[0] == 2


def test_arithmetic_error_is_an_error_exit(monkeypatch, capsys):
    def overflow(C):
        raise OverflowError("math range error")

    monkeypatch.setattr("gaussian_ramsey.cli.solve_pC", overflow)
    code, out, err = run_main(["solve", "--C", "2"], capsys)
    assert code == 1 and out == ""
    assert "math range error" in err


@pytest.mark.parametrize("message", ["Unable to allocate 2.98 GiB", ""], ids=["numpy", "bare"])
def test_memory_error_is_an_error_exit(monkeypatch, capsys, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    # scaling at two threads raises inside a pool thread; the error still reaches the CLI
    monkeypatch.setattr("gaussian_ramsey.estimators.sample_cloud_batch", exhausted)
    code, out, err = run_main(_SCALING + ["--sampler", "direct", "--seed", "1", "--threads", "2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


_DENSITY =["estimate", "--kind", "density", "--d", "8", "--p", "0.4", "--trials", "10"]
_CLIQUE = ["estimate", "--kind", "clique", "--r", "3", "--d", "64", "--p", "0.4", "--color", "red", "--trials", "10"]
_QUADRATIC = ["validate", "--check", "quadratic_moment", "--d", "400", "--k", "2", "--lam", "0.1", "--trials", "100"]
_SCALING = ["scaling", "--r", "3", "--p", "0.4", "--dims", "64,256", "--trials", "100"]
_SEARCH = ["search", "--n", "5", "--ell", "3", "--k", "3", "--p", "0.5", "--max-attempts", "10"]
#: a valid certificate: the golden search record minus its first (record) line
_CERT = (Path(__file__).parent / "golden" / "search-geometric-n12-44.txt").read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize(
    "argv, file_bytes",
    [
        (["estimate", "--d", "8", "--p", "0.4", "--trials", "10", "--r", "3", "--color", "red",
          "--config", "{file}"], b"kind=foo\n"),
        (_DENSITY + ["--config", "{file}"], b"format=xml\n"),
        (["validate", "--trials", "10", "--config", "{file}"], b"check=nope\n"),
        (_QUADRATIC + ["--cutoffs=-0.3,,0"], None),
        (["scaling", "--r", "3", "--p", "0.4", "--dims", "64,,256", "--trials", "100"], None),
        (["validate", "--check", "exp_square_moment", "--sigma2", "1", "--lam", "nan", "--trials", "10"], None),
        (_CLIQUE + ["--alpha-proj", "nan", "--delta", "0.1"], None),
        (_CLIQUE + ["--alpha-proj", "1.2", "--delta", "0.12"], None),
        (_CLIQUE + ["--restrict-perfect", "--spec-ell", "2"], None),
        (_DENSITY + ["--r", "5", "--color", "red", "--sampler", "bartlett"], None),
        (_SEARCH + ["--sampler", "binomial", "--d", "64"], None),
        (_SEARCH + ["--sampler", "geometric"], None),
        (_DENSITY + ["--out", "{missing}"], None),
        (_SCALING + ["--plot-out", "{missing}"], None),
        (_DENSITY + ["--config", "{file}"], b"seed=\xff\n"),
        (["verify", "--in", "{file}"], b"%gaussian-ramsey-certificate v1\nn=\xff\n"),
        (["verify", "--in", "{non-utf8-name}"], _CERT),
        (["verify", "--in", "{non-utf8-name}", "--out", "{record}"], _CERT),
    ],
    ids=[
        "config-kind-choice", "config-format-choice", "config-check-choice", "empty-cutoff", "empty-dim",
        "nan-lam", "nan-alpha-proj", "spec-without-restrict-perfect", "spec-ell-alone", "density-unread-keys",
        "binomial-unread-d", "geometric-missing-d",
        "unwritable-out", "unwritable-plot-out", "non-utf8-config", "non-utf8-certificate",
        "non-utf8-path", "non-utf8-path-to-out",
    ],
)
def test_bad_input_is_a_usage_error(argv, file_bytes, tmp_path, capsys):
    path = tmp_path / (os.fsdecode(b"bad\xff.txt") if "{non-utf8-name}" in argv else "input.txt")
    if file_bytes is not None:
        path.write_bytes(file_bytes)
    names = {"{file}": str(path), "{non-utf8-name}": str(path), "{record}": str(tmp_path / "rec.txt"),
             "{missing}": str(tmp_path / "no-such-dir" / "out.txt")}
    seed = [] if argv[0] == "verify" else ["--seed", "1"]  # verify draws nothing and rejects a seed
    code, out, err = run_main([names.get(a, a) for a in argv] + seed, capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["solve", "--C", "2"], ["bounds", "--C", "2", "--D", "100", "--ell", "50"], ["verify", "--in", "{cert}"]],
    ids=["solve", "bounds", "verify"],
)
def test_seed_is_rejected_where_nothing_is_drawn(argv, tmp_path, capsys):
    (tmp_path / "cert.txt").write_bytes(_CERT)
    (tmp_path / "seed.cfg").write_text("seed=5\n")
    argv = [str(tmp_path / "cert.txt") if a == "{cert}" else a for a in argv]
    assert run_main(argv, capsys)[0] == 0
    code, out, err = run_main(argv + ["--seed", "5"], capsys)
    assert code == 2 and out == "" and "unrecognized arguments: --seed 5" in err
    code, out, err = run_main(argv + ["--config", str(tmp_path / "seed.cfg")], capsys)
    assert code == 2 and out == "" and "unknown key 'seed'" in err


#: the five commands that sample, each otherwise valid
_SAMPLING = {
    "sample": ["sample", "--n", "5", "--d", "8", "--p", "0.4"],
    "estimate": _DENSITY,
    "validate": ["validate", "--check", "chi_square_tail", "--freedom", "3", "--t", "1", "--trials", "10"],
    "scaling": _SCALING,
    "search": _SEARCH + ["--sampler", "binomial"],
}


@pytest.mark.parametrize("argv", _SAMPLING.values(), ids=_SAMPLING)
def test_negative_seed_is_refused_before_any_generator(argv, monkeypatch, capsys):
    def no_generator(self):
        raise AssertionError("a generator was made for a negative seed")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    code, out, err = run_main(argv + ["--seed", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "seed" in err and "-1" in err


@pytest.mark.parametrize(
    "values, name",
    [(["--ell", "1", "--p", "0", "--C", "2"], "p"), (["--ell", "1", "--p", "-1", "--C", "2"], "p"),
     (["--ell", "1", "--p", "1.5", "--C", "2"], "p"), (["--ell", "-1", "--p", "0.4", "--C", "-2"], "C")],
    ids=["p-zero", "p-negative", "p-above-one", "C-and-ell-negative"],
)
def test_projection_tail_checks_its_spec_parameters(values, name, capsys):
    argv = ["validate", "--check", "projection_tail", "--d", "10", "--s", "1", "--trials", "10", "--seed", "1"]
    code, out, err = run_main(argv + values, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"{name}=" in err


_GEOMETRIC_SEARCH = _SEARCH + ["--sampler", "geometric", "--d", "8"]
#: the five runs that draw Gaussian pair masks, each otherwise valid
_PAIR_PLANNED = {
    "density": _DENSITY,
    "clique": ["estimate", "--kind", "clique", "--r", "3", "--d", "64", "--p", "0.4", "--color", "red", "--trials", "2000"],
    "scaling": _SCALING,
    "search-geometric": _GEOMETRIC_SEARCH,
    "sample": _SAMPLING["sample"],
}


@pytest.mark.parametrize("argv", _PAIR_PLANNED.values(), ids=_PAIR_PLANNED)
def test_every_gaussian_draw_is_planned_by_the_pair_plan(argv, monkeypatch, capsys):
    argv = argv + ["--seed", "3"]
    plain = run_main(argv, capsys)
    calls = []
    pair_plan = estimators._pair_plan

    def recording(*args, **kwargs):
        calls.append(args)
        return pair_plan(*args, **kwargs)

    monkeypatch.setattr(estimators, "_pair_plan", recording)
    assert run_main(argv, capsys) == plain
    assert calls


@pytest.mark.parametrize(
    "argv",
    [["sample", "--n", "5", "--d", "0", "--p", "0.4"], _SEARCH + ["--sampler", "geometric", "--d", "0"]],
    ids=["sample", "search-geometric"],
)
def test_zero_dimension_is_refused_before_any_generator(argv, monkeypatch, capsys):
    def no_generator(self):
        raise AssertionError("a generator was made for d = 0")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    code, out, err = run_main(argv + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: dimension must be at least 1")


def test_infinite_cutoff_is_a_valid_value(capsys):
    code, out, err = run_main(_QUADRATIC + ["--cutoffs=-inf,0", "--seed", "1"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["invocation"]["cutoffs"] == record["result"]["params"]["cutoffs"] == ["-inf", 0]  # float() reads it


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cutoffs", ["38,0", "40,0", "1e308,0", "0,inf"])
def test_far_tail_cutoff_is_refused_before_any_generator(cutoffs, monkeypatch, capsys):
    # past b = 37.52 the tail mass 1 - Phi(b) is below the least normal double, and the
    # truncated sampler and mean lose every digit; +inf conditions on a null event
    def no_generator(self):
        raise AssertionError("a generator was made for a far-tail cutoff")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    code, out, err = run_main(_QUADRATIC + [f"--cutoffs={cutoffs}", "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cutoffs=") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cutoffs", ["30,0", "-inf,0"])
def test_cutoffs_with_a_normal_tail_mass_still_run(cutoffs, capsys):
    code, out, err = run_main(_QUADRATIC + [f"--cutoffs={cutoffs}", "--seed", "1"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["passed"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["bounds", "--C", "2", "--D", "100", "--ell", "5", "--eps", "inf"], "--eps"),
        (["validate", "--check", "conditional_edge", "--p", "0.5", "--d", "4", "--inner", "inf", "--diag", "1"],
         "--inner"),
        (["validate", "--check", "conditional_edge", "--p", "0.5", "--d", "4", "--inner", "0.1", "--diag", "inf"],
         "--diag"),
        (["validate", "--check", "chi_square_tail", "--freedom", "10", "--t", "inf"], "--t"),
        (["bounds", "--C", "2", "--D", "inf", "--ell", "5"], "--D"),
        (["bounds", "--C", "inf", "--D", "100", "--ell", "5"], "--C"),
    ],
    ids=["eps", "inner", "diag", "t", "D", "C"],
)
def test_infinite_float_is_a_usage_error(argv, key, capsys):
    # a float key takes no infinity (JSON would echo it as null); only an item of cutoffs may be -inf
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert f"argument {key}: 'inf' is not finite" in err and "Traceback" not in err


_HUGE = "1" + "0" * 400  # past a float's range


@pytest.mark.parametrize(
    "argv",
    ["bounds --C 2 --D 100 --ell " + _HUGE, "bounds --C 2 --D 1e308 --ell 5", "bounds --C 1e308 --D 100 --ell 5"],
    ids=["ell", "D", "C"],
)
def test_bounds_inputs_that_overflow_are_refused_by_name(argv, capsys):
    code, out, err = run_main(argv.split(), capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: C*ell and D^2*ell^2 must be finite, got C=")
    assert all(f"{key}=" in err for key in ("C", "D", "ell"))


def test_huge_int_flag_is_no_traceback(tmp_path, capsys):
    # no int is NaN or infinite: the int tag returns the int without asking math.isnan
    assert _value("int", _HUGE) == 10**400
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"C=2\nD=100\nell={_HUGE}\n")
    scaling = ["scaling", "--r", "3", "--p", "0.4", "--dims", f"64,{_HUGE}", "--trials", "10", "--seed", "1"]
    for argv in (["bounds", "--config", str(cfg)], scaling):
        code, out, err = run_main(argv, capsys)
        assert code in (1, 2) and out == "" and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [f"scaling --r 3 --p 0.4 --dims 64,{_HUGE} --trials 10 --seed 1", f"sample --n 4 --d {_HUGE} --p 0.4 --seed 1"],
    ids=["scaling", "sample"],
)
def test_a_dimension_no_double_holds_is_refused_by_name(argv, capsys):
    code, out, err = run_main(argv.split(), capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "d=" in err.splitlines()[0]


@pytest.mark.parametrize(
    "argv, key",
    [
        (f"validate --check norm_concentration --d {_HUGE} --delta 0.3 --trials 10", "d"),
        (f"validate --check projection_tail --d {_HUGE} --ell 2 --s 2 --p 0.4 --C 2 --trials 10", "d"),
        (f"validate --check projection_tail --d 400 --ell {_HUGE} --s 2 --p 0.4 --C 2 --trials 10", "ell"),
        (f"validate --check quadratic_moment --d {_HUGE} --k 2 --lam 0.1 --cutoffs 0,0 --trials 10", "d"),
        (f"validate --check conditional_edge --d {_HUGE} --p 0.4 --inner 0 --diag 1 --trials 10", "d"),
        (f"validate --check chi_square_tail --freedom {_HUGE} --t 1 --trials 10", "freedom"),
        (f"estimate --kind clique --r 3 --d 64 --p 0.4 --color red --trials {_HUGE}", "trials"),
        (f"estimate --kind density --d 64 --p 0.4 --trials {_HUGE}", "trials"),
        (f"scaling --r 3 --p 0.4 --dims 64,256 --trials {_HUGE}", "trials"),
        (f"validate --check chi_square_tail --freedom 3 --t 1 --trials {_HUGE}", "trials"),
    ],
    ids=["norm_concentration-d", "projection_tail-d", "projection_tail-ell", "quadratic_moment-d",
         "conditional_edge-d", "chi_square_tail-freedom", "clique-trials", "density-trials", "scaling-trials",
         "validate-trials"],
)
def test_an_int_no_double_holds_is_refused_by_name(argv, key, monkeypatch, capsys):
    def no_generator(self):
        raise AssertionError("a generator was made for an int no double holds")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    code, out, err = run_main(argv.split() + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"got {key}=1{'0' * 400}" in err.splitlines()[0]


@pytest.mark.parametrize("p", ["1e-105", "1e-300", "1e-320", "5e-324"])
def test_scaling_gives_a_record_where_p_cubed_underflows(p, capsys):
    # p**3 is subnormal below p ~ 2.8e-103 and 0 below p ~ 1e-108, and a = phi(c_p) is subnormal too
    # below p ~ 6e-310; the predicted red coefficient -C(3,3) (a/p)^3 keeps its digits throughout
    code, out, err = run_main(["scaling", "--r", "3", "--p", p, "--dims", "64,256", "--trials", "10", "--seed", "1"],
                              capsys)
    assert code == 1 and err == ""  # every red row is underpowered, so the record does not pass
    result = json.loads(out)["result"]
    assert result["p"] ** 3 < sys.float_info.min
    with mp.workdps(50):  # at the solver's c_p, exactly as the record's a = phi(c_p)
        expected = float(-(mp.npdf(solve_cp(result["p"])) / mp.mpf(result["p"])) ** 3)
    assert result["predicted_red"] == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p, refused", [("5e-324", True), ("1e-320", True), ("1e-300", False)])
def test_projection_tail_refuses_a_p_at_which_alpha_overflows(p, refused, capsys):
    # alpha = 100 C ln(10/p) is infinite once 10/p overflows (p below 5.6e-308 at C = 2)
    argv = ["validate", "--check", "projection_tail", "--d", "400", "--ell", "2", "--s", "2", "--p", p, "--C", "2",
            "--trials", "10", "--seed", "1"]
    code, out, err = run_main(argv, capsys)
    if refused:
        assert code == 1 and out == ""
        assert err.startswith("error: alpha = 100 C ln(10/p) overflows, got C=2.0, p=") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["result"]["alpha_proj"])


@pytest.mark.parametrize("p, color", [("1", "red"), ("0", "blue")])
@pytest.mark.parametrize("n", ["3", "5"])
def test_search_rejects_a_monochromatic_complete_graph(n, p, color, capsys):
    # at p = 1 every edge is red, at p = 0 blue: K_n holds a clique of size ell = k = n in that color
    argv = ["search", "--n", n, "--ell", n, "--k", n, "--sampler", "binomial", "--p", p, "--max-attempts", "3",
            "--seed", "1"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["result"] == {"found": False, "max_attempts": 3}, color


def test_config_key_repeated_warns_last_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=4\nseed=5\n")
    code, out, err = run_main(_DENSITY + ["--config", str(cfg)], capsys)
    assert code == 0
    assert err == f"warning: {cfg}:2: seed given more than once; last occurrence wins\n"
    assert json.loads(out)["invocation"]["seed"] == 5
    code, out, err = run_main(_DENSITY + ["--config", str(cfg), "--seed", "6"], capsys)  # a flag overrides silently
    assert err == f"warning: {cfg}:2: seed given more than once; last occurrence wins\n"
    assert json.loads(out)["invocation"]["seed"] == 6


def test_scaling_rejects_repeated_dimensions(capsys):
    argv = ["scaling", "--r", "3", "--p", "0.4", "--dims", "64,64", "--trials", "10", "--seed", "1"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and out == ""
    assert "error: dims must be at least two strictly ascending dimensions, got [64, 64]" in err


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once per process: a failed parse leaves nothing behind,
    # and a repeated flag warns in each call, not only in the first
    code, out, err = run_main(_DENSITY + ["--p", "nan", "--seed", "1"], capsys)
    assert code == 2 and out == "" and "NaN" in err
    argv = _DENSITY + ["--seed", "3"]
    code, out, _ = run_main(argv, capsys)
    src = os.path.dirname(os.path.dirname(gaussian_ramsey.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "gaussian_ramsey.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert code == fresh.returncode == 0 and out == fresh.stdout
    for _ in range(2):
        code, out, err = run_main(_DENSITY + ["--seed", "4", "--seed", "5"], capsys)
        assert code == 0 and json.loads(out)["invocation"]["seed"] == 5
        assert err.count("--seed given more than once; last occurrence wins") == 1


def test_a_flag_is_spelled_exactly(capsys):
    # a prefix of a flag is an unknown argument, as an unknown key is in a config file
    assert run_main(["--versio"], capsys)[0] == 2
    for command, table in _COMMANDS.items():
        keys = {**table["keys"], **_COMMON_KEYS}
        flags = {"--in" if key == "infile" else "--" + key.replace("_", "-"): tag for key, (tag, _) in keys.items()}
        flags["--config"] = "path"
        for flag, tag in flags.items():
            prefix = flag[:-1]
            if len(flag) <= 3 or prefix in flags:
                continue
            argv = [command, prefix] if tag == "flag" else [command, prefix, "1"]
            code, out, err = run_main(argv, capsys)
            assert code == 2 and out == "", argv
            assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n"), argv


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["estimate", "--kind", "clique", "--r", "3", "--d", "64", "--p", "0.01", "--color", "red", "--trials", "10",
             "--seed", "1", "--format", "csv"],
            "command,version,invocation.kind,invocation.r,invocation.d,invocation.p,invocation.color,"
            "invocation.trials,invocation.seed,result.point,result.log_point,result.trials,result.successes,"
            "result.ci_low,result.ci_high,result.seed,result.status,result.config.op,result.config.r,"
            "result.config.d,result.config.p,result.config.c_p,result.config.color,result.config.sampler,"
            "result.config.restrict_perfect,result.config.trials,result.config.stream_id,result.config.batch,passed\n"
            "estimate,0.1.0,clique,3,64,0.01,red,10,1,0,-Infinity,10,0,0,0.30849710781876072,1,underpowered,"
            "clique_prob,3,64,0.01,2.3263478740408408,red,bartlett,false,10,0,8192,false\n",
        ),
        (
            ["validate", "--check", "quadratic_moment", "--d", "400", "--k", "2", "--lam", "0.1", "--cutoffs=-inf,0",
             "--trials", "100", "--seed", "1", "--format", "csv"],
            "command,version,invocation.check,invocation.trials,invocation.d,invocation.lam,invocation.k,"
            "invocation.cutoffs,invocation.seed,result.empirical,result.bound,result.mean_S,result.mc_stderr,"
            "result.passed,result.vacuous,result.check,result.params.d,result.params.k,result.params.lam,"
            "result.params.cutoffs,result.trials,result.seed,result.stream_id,passed\n"
            'validate,0.1.0,quadratic_moment,100,400,0.10000000000000001,2,"[""-inf"",0]",1,1.0000106067369061,'
            '1.0020021608075844,0,2.1430570986222357e-05,true,false,quadratic_moment,400,2,0.10000000000000001,'
            '"[""-inf"",0]",100,1,0,true\n',
        ),
        (
            ["scaling", "--r", "3", "--p", "0.01", "--dims", "64,256", "--sampler", "direct", "--trials", "10",
             "--seed", "1", "--format", "csv"],
            "command,version,d,x,log_ratio_red,se_red,underpowered_red,log_ratio_blue,se_blue,underpowered_blue\n"
            "scaling,0.1.0,64,0.125,,,true,0.030151007560504324,0,true\n"
            "scaling,0.1.0,256,0.0625,,,true,0.030151007560504324,0,true\n",
        ),
    ],
    ids=["minus-infinity-cell", "list-cell", "empty-cells"],
)
@pytest.mark.filterwarnings("ignore:binomial reference")  # the clique estimate is underpowered on purpose
def test_csv_cells_of_infinity_lists_and_nulls(argv, expected, capsys):
    code, out, _ = run_main(argv, capsys)
    assert out == expected and code == (0 if argv[0] == "validate" else 1)


@pytest.mark.parametrize(
    "line, message",
    [
        ("restrict_perfect=maybe", "restrict_perfect: invalid flag value 'maybe' (use true or false)"),
        ("junk line", "expected key=value, got 'junk line'"),
    ],
)
def test_a_bad_config_line_is_a_usage_error(line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kind=clique\nr=2\n{line}\n")
    code, out, err = run_main(["estimate", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == f"usage error: {cfg}:3: {message}\n"
