"""Command-line orchestration for experiments and certificate handling.

Subcommands: solve, bounds, sample, estimate, validate, scaling, search,
verify.  Every option mirrors a config-file key one to one (flat key=value
lines, # comments); explicit flags override file values, unknown keys are
rejected, and a repeated flag keeps its last occurrence with a warning.
Each run emits one record (JSON-lines by default, CSV on request) carrying
the library version and the full semantic parameter echo, with every float
printed to 17 significant digits so records are byte-reproducible.  The
seed is never implicit: if absent it is drawn once from the OS and echoed.
Execution knobs (--threads, --out, --format) are not part of the echo and
never affect record bytes.  Exit status is 0 iff every assertion the
command makes passed.

The GAUSSIAN_RAMSEY_OUT environment variable, when set, anchors relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import dataclass

import gaussian_ramsey
from gaussian_ramsey.analytic import solve_cp, solve_pC, std_normal_pdf, union_bound_report
from gaussian_ramsey.cliques import (
    certificate_from_text,
    certificate_to_text,
    search_witness,
    verify_witness,
)
from gaussian_ramsey.estimators import correction_scaling, estimate_clique_prob, estimate_edge_density
from gaussian_ramsey.geometry import PerfectSpec, adjacency, gram, sample_cloud
from gaussian_ramsey.graphs import CapabilityError, graph_to_text
from gaussian_ramsey.sampling import RngStream
from gaussian_ramsey.validators import CHECKS, validate_bound

OUTPUT_DIR_ENV = "GAUSSIAN_RAMSEY_OUT"


class UsageError(Exception):
    """Bad flags or config; maps to exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict


# ---------------------------------------------------------------------------
# option tables: key -> (type tag, help); type tags drive config-file parsing
# ---------------------------------------------------------------------------

_COMMON_KEYS = {
    "seed": ("int", "master seed; a fresh random one is drawn and echoed when absent"),
    "out": ("path", "output file for records (default stdout)"),
    "format": ("choice:jsonl,csv", "record format"),
}

_COMMANDS: dict[str, dict] = {
    "solve": {
        "keys": {"C": ("float", "clique ratio k/ell, > 1")},
        "required": ("C",),
    },
    "bounds": {
        "keys": {
            "C": ("float", "clique ratio k/ell, > 1"),
            "D": ("float", "dimension multiplier, >= 1"),
            "ell": ("int", "red clique size"),
            "eps": ("float", "base increment (default: margin/10)"),
        },
        "required": ("C", "D", "ell"),
    },
    "sample": {
        "keys": {
            "n": ("int", "vertex count"),
            "d": ("int", "ambient dimension"),
            "p": ("float", "red probability in (0, 1/2]"),
        },
        "required": ("n", "d", "p"),
    },
    "estimate": {
        "keys": {
            "kind": ("choice:density,clique", "what to estimate"),
            "n": ("int", "vertices per cloud (density; default 2)"),
            "r": ("int", "clique size (clique)"),
            "d": ("int", "ambient dimension"),
            "p": ("float", "red probability in (0, 1/2)"),
            "color": ("choice:red,blue", "clique color (clique)"),
            "trials": ("int", "Monte-Carlo trials"),
            "sampler": ("choice:direct,bartlett", "vector sampler (clique)"),
            "restrict_perfect": ("flag", "restrict to perfect sequences (clique)"),
            "alpha_proj": ("float", "custom perfect-spec projection constant"),
            "delta": ("float", "custom perfect-spec norm half-width"),
            "spec_ell": ("int", "custom perfect-spec ell"),
            "threads": ("int", "worker threads (throughput only; never affects results)"),
        },
        "required": ("kind", "d", "p", "trials"),
    },
    "validate": {
        "keys": {
            "check": ("choice:" + ",".join(CHECKS), "which inequality to check"),
            "trials": ("int", "Monte-Carlo trials"),
            "d": ("int", "dimension / variance parameter"),
            "delta": ("float", "norm half-width (norm_concentration)"),
            "ell": ("int", "clique parameter (projection_tail)"),
            "s": ("int", "subspace dimension (projection_tail)"),
            "p": ("float", "probability (projection_tail, conditional_edge)"),
            "C": ("float", "clique ratio (projection_tail)"),
            "sigma2": ("float", "variance proxy (exp_square_moment)"),
            "lam": ("float", "exponent scale (moment checks)"),
            "k": ("int", "variable count (quadratic_moment)"),
            "cutoffs": ("floats", "comma-separated truncation cutoffs (quadratic_moment)"),
            "freedom": ("int", "degrees of freedom (chi_square_tail)"),
            "t": ("float", "deviation parameter (chi_square_tail)"),
            "inner": ("float", "revealed projection inner product (conditional_edge)"),
            "diag": ("float", "conditioned diagonal entry (conditional_edge)"),
        },
        "required": ("check", "trials"),
    },
    "scaling": {
        "keys": {
            "r": ("int", "clique size (3 or 4)"),
            "p": ("float", "red probability"),
            "dims": ("ints", "comma-separated ascending dimensions"),
            "trials": ("int", "trials per dimension and color"),
            "sampler": ("choice:direct,bartlett", "vector sampler"),
            "threads": ("int", "worker threads"),
            "plot_out": ("path", "two-column plot data file (x=d^-1/2, y=red log-ratio)"),
        },
        "required": ("r", "p", "dims", "trials"),
    },
    "search": {
        "keys": {
            "n": ("int", "vertex count"),
            "ell": ("int", "red clique size to avoid"),
            "k": ("int", "blue clique size to avoid"),
            "sampler": ("choice:geometric,binomial", "coloring sampler"),
            "d": ("int", "ambient dimension (geometric)"),
            "p": ("float", "red probability"),
            "max_attempts": ("int", "attempt budget"),
        },
        "required": ("n", "ell", "k", "sampler", "p", "max_attempts"),
    },
    "verify": {
        "keys": {"infile": ("path", "certificate file to re-check")},
        "required": ("infile",),
    },
}

#: keys excluded from the record echo (execution knobs, not semantics).
_NON_SEMANTIC = ("out", "format", "threads", "plot_out")


class _LastWins(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        seen = getattr(namespace, "_seen", None)
        if seen is None:
            seen = set()
            setattr(namespace, "_seen", seen)
        if self.dest in seen:
            print(
                f"warning: {option_string} given more than once; last occurrence wins",
                file=sys.stderr,
            )
        seen.add(self.dest)
        setattr(namespace, self.dest, True if self.nargs == 0 else values)


def _flag_type(tag: str):
    if tag == "int":
        return int
    if tag == "float":
        return float
    if tag in ("path",) or tag.startswith("choice:"):
        return str
    if tag == "ints":
        return lambda s: [int(x) for x in s.split(",") if x]
    if tag == "floats":
        return lambda s: [float(x) for x in s.split(",") if x]
    raise AssertionError(tag)


def _parse_file_value(key: str, tag: str, raw: str):
    try:
        if tag == "flag":
            low = raw.strip().lower()
            if low in ("1", "true", "yes"):
                return True
            if low in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return _flag_type(tag)(raw.strip())
    except ValueError as exc:
        raise UsageError(f"config key {key}: cannot parse value {raw!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussian-ramsey",
        description="Gaussian random geometric graphs for Ramsey lower bounds",
    )
    parser.add_argument("--version", action="version", version=gaussian_ramsey.__version__)
    subs = parser.add_subparsers(dest="command")
    for name, table in _COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", default=None, help="flat key=value config file")
        keys = dict(table["keys"])
        keys.update(_COMMON_KEYS)
        for key, (tag, help_text) in keys.items():
            flag = "--" + key.replace("_", "-")
            if key == "infile":
                flag = "--in"
            if tag == "flag":
                sub.add_argument(flag, dest=key, action=_LastWins, nargs=0, default=None, help=help_text)
            elif tag.startswith("choice:"):
                sub.add_argument(
                    flag,
                    dest=key,
                    action=_LastWins,
                    type=str,
                    choices=tag.split(":", 1)[1].split(","),
                    default=None,
                    help=help_text,
                )
            else:
                sub.add_argument(
                    flag, dest=key, action=_LastWins, type=_flag_type(tag), default=None, help=help_text
                )
    return parser


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve argv plus optional config file into an ExperimentConfig.

    Flags override file values; unknown file keys are rejected; required
    keys must be present after the merge.
    """
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        parser.print_usage(sys.stderr)
        raise SystemExit(2)
    table = _COMMANDS[namespace.command]
    keys = dict(table["keys"])
    keys.update(_COMMON_KEYS)

    merged: dict = {}
    if namespace.config is not None:
        try:
            with open(namespace.config, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, sep, raw = line.partition("=")
                    key = key.strip()
                    if not sep:
                        raise UsageError(f"{namespace.config}:{lineno}: expected key=value, got {line!r}")
                    if key not in keys:
                        raise UsageError(f"{namespace.config}:{lineno}: unknown key {key!r} for {namespace.command}")
                    merged[key] = _parse_file_value(key, keys[key][0], raw)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    for key in keys:
        flag_value = getattr(namespace, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    missing = [key for key in table["required"] if merged.get(key) is None]
    if missing:
        raise UsageError(f"{namespace.command}: missing required key(s): {', '.join(missing)}")
    if merged.get("threads") is not None and merged["threads"] < 1:
        raise UsageError(f"threads must be at least 1, got {merged['threads']}")
    return ExperimentConfig(command=namespace.command, parameters=merged)


# ---------------------------------------------------------------------------
# record rendering: floats at 17 significant digits, stable key order
# ---------------------------------------------------------------------------


def _render_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _render_float(obj) if math.isfinite(obj) else "null"  # JSON has no NaN or Infinity
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        inner = ",".join(f"{render_json(str(k))}:{render_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalar
        return render_json(obj.item())
    raise TypeError(f"cannot render {type(obj)!r}")


def _flatten(obj, prefix: str = "") -> dict:
    flat: dict = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _render_csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _render_float(v)
    if isinstance(v, (list, tuple, dict)):
        return '"' + render_json(v).replace('"', '""') + '"'
    if v is None:
        return ""
    text = str(v)
    if any(ch in text for ch in ',"\n\r'):  # RFC 4180 quotes line breaks, CR included
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(records: list[dict]) -> str:
    flats = [_flatten(r) for r in records]
    columns: list[str] = []
    for flat in flats:
        for key in flat:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for flat in flats:
        lines.append(",".join(_render_csv_cell(flat.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _resolve_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# command handlers: return (records, csv_rows, passed, artifacts)
# ---------------------------------------------------------------------------


def _echo(command: str, params: dict) -> dict:
    """Semantic parameters in canonical key order (independent of source)."""
    ordering = list(_COMMANDS[command]["keys"]) + list(_COMMON_KEYS)
    return {
        k: params[k]
        for k in ordering
        if k not in _NON_SEMANTIC and params.get(k) is not None
    }


def _need_seed(params: dict) -> int:
    if params.get("seed") is None:
        params["seed"] = secrets.randbits(63)
    return params["seed"]


def _run_solve(params: dict):
    C = params["C"]
    p_C = solve_pC(C)
    c_p = solve_cp(p_C)
    result = {
        "p_C": p_C,
        "c_p": c_p,
        "a": std_normal_pdf(c_p),
        "erdos_base": p_C**-0.5,
    }
    return result, True, None


def _run_bounds(params: dict):
    report = union_bound_report(params["C"], params["ell"], params["D"], params.get("eps"))
    return report, bool(report["bases_below_one"]), None


def _run_sample(params: dict):
    seed = _need_seed(params)
    n, d, p = params["n"], params["d"], params["p"]
    c_p = solve_cp(p)
    stream = RngStream(seed)
    cloud = sample_cloud(n, d, stream)
    graph = adjacency(gram(cloud), c_p, d, {"d": d, "p": p, "c_p": c_p, "seed": seed})
    text = graph_to_text(graph)
    result = {
        "n": n,
        "d": d,
        "p": p,
        "c_p": c_p,
        "blue_edges": graph.blue_count(),
        "density": graph.blue_count() / (n * (n - 1) / 2) if n > 1 else 0.0,
    }
    return result, True, text


def _run_estimate(params: dict):
    seed = _need_seed(params)
    stream = RngStream(seed)
    threads = params.get("threads") or 1
    kind = params["kind"]
    if kind == "density":
        est = estimate_edge_density(
            params.get("n") or 2, params["d"], params["p"], params["trials"], stream, threads=threads
        )
    else:
        if params.get("r") is None or params.get("color") is None:
            raise UsageError("estimate --kind clique requires r and color")
        spec = None
        if params.get("alpha_proj") is not None or params.get("delta") is not None:
            if params.get("alpha_proj") is None or params.get("delta") is None:
                raise UsageError("custom perfect spec needs both alpha-proj and delta")
            spec = PerfectSpec(
                alpha_proj=params["alpha_proj"],
                delta=params["delta"],
                ell=params.get("spec_ell") or params["r"],
                d=params["d"],
                p=params["p"],
                C=2.0,
            )
        est = estimate_clique_prob(
            params["r"],
            params["d"],
            params["p"],
            params["color"],
            restrict_perfect=bool(params.get("restrict_perfect")),
            trials=params["trials"],
            stream=stream,
            sampler=params.get("sampler") or "direct",
            perfect_spec=spec,
            threads=threads,
        )
    return est.as_record(), est.status == "ok", None


def _run_validate(params: dict):
    seed = _need_seed(params)
    check = params["check"]
    keys = CHECKS[check][1]
    given = [k for k in _COMMANDS["validate"]["keys"] if k not in ("check", "trials") and params.get(k) is not None]
    if set(given) != set(keys):  # a missing key, or one the check does not read
        raise UsageError(
            f"validate --check {check} reads exactly {', '.join(keys)}; got {', '.join(given) or 'none'}"
        )
    result = validate_bound(check, {k: params[k] for k in keys}, params["trials"], RngStream(seed))
    return result, bool(result["passed"]), None


def _run_scaling(params: dict):
    seed = _need_seed(params)
    stream = RngStream(seed)
    report = correction_scaling(
        params["r"],
        params["p"],
        params["dims"],
        params["trials"],
        stream,
        sampler=params.get("sampler") or "direct",
        threads=params.get("threads") or 1,
    )
    passed = not any(row["underpowered_red"] or row["underpowered_blue"] for row in report["rows"])
    plot = None
    if params.get("plot_out"):
        lines = ["# x=d^-1/2  y=ln(P_red_hat / p^C(r,2))"]
        for row in report["rows"]:
            if row["log_ratio_red"] is not None:
                lines.append(f"{_render_float(row['x'])} {_render_float(row['log_ratio_red'])}")
        plot = "\n".join(lines) + "\n"
    return report, passed, plot


def _run_search(params: dict):
    seed = _need_seed(params)
    stream = RngStream(seed)
    sampler = params["sampler"]
    sampler_params = {"p": params["p"]}
    if sampler == "geometric":
        if params.get("d") is None:
            raise UsageError("search --sampler geometric requires d")
        sampler_params["d"] = params["d"]
    cert = search_witness(
        params["n"], params["ell"], params["k"], sampler, sampler_params, params["max_attempts"], stream
    )
    if cert is None:
        result = {"found": False, "max_attempts": params["max_attempts"]}
        return result, False, None
    result = {
        "found": True,
        "n": cert.n,
        "ell": cert.ell,
        "k": cert.k,
        "attempt": cert.graph.provenance.get("attempt"),
        "checked": cert.checked,
    }
    return result, True, certificate_to_text(cert)


def _run_verify(params: dict):
    path = params["infile"]
    try:
        with open(path, encoding="utf-8") as fh:
            cert = certificate_from_text(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read certificate: {exc}") from exc
    checked = verify_witness(cert.graph, cert.ell, cert.k)
    result = {
        "n": cert.n,
        "ell": cert.ell,
        "k": cert.k,
        "checked": checked.checked,
    }
    return result, checked.checked, None


_HANDLERS = {
    "solve": _run_solve,
    "bounds": _run_bounds,
    "sample": _run_sample,
    "estimate": _run_estimate,
    "validate": _run_validate,
    "scaling": _run_scaling,
    "search": _run_search,
    "verify": _run_verify,
}

#: which artifact file each command's text payload goes to.
_ARTIFACT_KEY = {"sample": "out", "search": "out", "scaling": "plot_out"}


def run(config: ExperimentConfig) -> tuple[int, str]:
    """Execute a resolved config; returns (exit_status, rendered_records)."""
    params = dict(config.parameters)
    try:
        result, passed, artifact = _HANDLERS[config.command](params)
    except (ValueError, KeyError, ArithmeticError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""

    record = {
        "command": config.command,
        "version": gaussian_ramsey.__version__,
        "invocation": _echo(config.command, params),
        "result": result,
        "passed": passed,
    }

    fmt = params.get("format") or "jsonl"
    if fmt == "csv":
        if config.command == "scaling":
            rows = [
                {"command": "scaling", "version": gaussian_ramsey.__version__, **row}
                for row in result["rows"]
            ]
            rendered = render_csv(rows)
        else:
            rendered = render_csv([record])
    else:
        rendered = render_json(record) + "\n"

    artifact_key = _ARTIFACT_KEY.get(config.command)
    if artifact is not None and artifact_key:
        target = params.get(artifact_key)
        if target:
            with open(_resolve_path(target), "w", encoding="utf-8") as fh:
                fh.write(artifact)
        elif config.command != "scaling":
            rendered += artifact

    return (0 if passed else 1), rendered


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, rendered = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    out = config.parameters.get("out")
    if out and config.command not in ("sample", "search"):
        with open(_resolve_path(out), "w", encoding="utf-8") as fh:
            fh.write(rendered)
    elif rendered:
        sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    sys.exit(main())
