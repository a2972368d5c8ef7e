"""Command-line orchestration for experiments and certificate handling.

Subcommands: solve, bounds, sample, estimate, validate, scaling, search,
verify.  _COMMANDS is the one description of the inputs.  Every option
mirrors a config-file key one to one (flat key=value lines, # comments),
spelled exactly (a prefix is an unknown flag); a flag argument and a
config value go through the same strict value parser, so choices, numbers
and lists are checked alike from either source; NaN is never a valid
value and a list has no empty items.  Explicit flags override file
values, unknown keys are rejected, and a key (or --config) repeated on the
command line or in the file keeps its last occurrence with a warning.  estimate,
search and validate take some keys per mode (per kind, sampler or check):
a run must give every key its mode needs and no key its mode does not
read.  A file that cannot be read or written (the config, a certificate,
--out, --plot-out) is a usage error, like a bad flag.
Each run emits one record (JSON-lines by default, CSV on request) carrying
the library version and the full semantic parameter echo, with every float
printed to 17 significant digits so records are byte-reproducible.  The
five commands that sample (sample, estimate, validate, scaling, search)
take a seed, and it is never implicit: if absent it is drawn once from the
OS and echoed.  The other three draw nothing and reject a seed.
Execution knobs (--threads, --out, --format) are not part of the echo and
never affect record bytes.  Exit status is 0 iff every assertion the
command makes passed, 2 for a usage error.  An underpowered clique
estimate prints its warning as one "warning:" line on stderr, every call.

The GAUSSIAN_RAMSEY_OUT environment variable, when set, anchors relative
output paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import secrets
import sys
import warnings
from dataclasses import dataclass

import gaussian_ramsey
from gaussian_ramsey import estimators
from gaussian_ramsey.analytic import solve_cp, solve_pC, std_normal_pdf, union_bound_report
from gaussian_ramsey.cliques import (
    certificate_from_text,
    certificate_to_text,
    search_witness,
    verify_witness,
)
from gaussian_ramsey.estimators import correction_scaling, estimate_clique_prob, estimate_edge_density
from gaussian_ramsey.geometry import PerfectSpec
from gaussian_ramsey.graphs import CapabilityError, ColoredGraph, _pack_words, _row_tuples, graph_to_text
from gaussian_ramsey.sampling import RngStream
from gaussian_ramsey.validators import CHECKS, validate_bound

OUTPUT_DIR_ENV = "GAUSSIAN_RAMSEY_OUT"


class UsageError(Exception):
    """Bad flags or config; maps to exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict


class _Infinity(float):
    """An infinite list item (a -inf cutoff truncates nothing): echoed as text, since JSON has no Infinity."""


# ---------------------------------------------------------------------------
# option tables: key -> (type tag, help); the tag drives the one value parser.
# "modes" is (mode key, {mode: (keys it needs, keys it may take)}).
# ---------------------------------------------------------------------------

#: a key of the five commands that sample, last in each, so their echo ends with the seed.
_SEED = ("int", "master seed; a fresh random one is drawn and echoed when absent")

_COMMON_KEYS = {
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
            "seed": _SEED,
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
            "seed": _SEED,
        },
        "required": ("kind", "d", "p", "trials"),
        "modes": ("kind", {
            "density": ((), ("n",)),
            "clique": (("r", "color"), ("sampler", "restrict_perfect", "alpha_proj", "delta", "spec_ell")),
        }),
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
            "seed": _SEED,
        },
        "required": ("check", "trials"),
        "modes": ("check", {name: (keys, ()) for name, (_, keys) in CHECKS.items()}),
    },
    "scaling": {
        "keys": {
            "r": ("int", "clique size (3 or 4)"),
            "p": ("float", "red probability"),
            "dims": ("ints", "comma-separated strictly ascending dimensions"),
            "trials": ("int", "trials per dimension, shared by both colors"),
            "sampler": ("choice:direct,bartlett", "vector sampler"),
            "threads": ("int", "worker threads (throughput only; never affects results)"),
            "plot_out": ("path", "two-column plot data file (x=d^-1/2, y=red log-ratio)"),
            "seed": _SEED,
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
            "seed": _SEED,
        },
        "required": ("n", "ell", "k", "sampler", "p", "max_attempts"),
        "modes": ("sampler", {"geometric": (("d",), ()), "binomial": ((), ())}),
    },
    "verify": {
        "keys": {"infile": ("path", "certificate file to re-check")},
        "required": ("infile",),
    },
}

#: keys excluded from the record echo (execution knobs, not semantics).
_NON_SEMANTIC = ("out", "format", "threads", "plot_out")


def _value(tag: str, raw: str, finite: bool = True):
    """One flag argument or config-file value, parsed strictly by its type tag."""
    if tag == "path":
        if any("\ud800" <= ch <= "\udfff" for ch in raw):  # a lone surrogate: the name is not UTF-8
            raise argparse.ArgumentTypeError(f"path {raw!r} is not valid UTF-8")
        return raw
    if tag.startswith("choice:"):
        choices = tag.split(":", 1)[1].split(",")
        if raw not in choices:
            raise argparse.ArgumentTypeError(f"invalid choice {raw!r} (choose from {', '.join(choices)})")
        return raw
    if tag == "flag":
        truth = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}.get(raw.lower())
        if truth is None:
            raise argparse.ArgumentTypeError(f"invalid flag value {raw!r} (use true or false)")
        return truth
    if tag in ("ints", "floats"):
        return [_value(tag[:-1], item, finite=False) for item in raw.split(",")]  # -inf cutoff: no truncation
    try:
        value = int(raw) if tag == "int" else float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {tag} value {raw!r}") from None
    if tag == "int":  # no int is NaN or infinite, and isnan would overflow past ~308 digits
        return value
    if math.isnan(value) or (finite and math.isinf(value)):  # only a list item may be infinite
        raise argparse.ArgumentTypeError("NaN is not a valid value" if math.isnan(value) else f"{raw!r} is not finite")
    return _Infinity(value) if math.isinf(value) else value


def _flag(key: str) -> str:
    return "--in" if key == "infile" else "--" + key.replace("_", "-")


@functools.cache  # one parser per process, built on first use; a parse keeps its state on its own namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussian-ramsey",
        description="Gaussian random geometric graphs for Ramsey lower bounds",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=gaussian_ramsey.__version__)
    subs = parser.add_subparsers(dest="command")
    for name, table in _COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--config", action="append", help="flat key=value config file")
        for key, (tag, help_text) in {**table["keys"], **_COMMON_KEYS}.items():
            if tag == "flag":  # every occurrence is listed, so parse_config's one rule picks the last
                how = {"action": "append_const", "const": True}
            else:  # a choice list is shown through metavar, and checked by _value like every other tag
                metavar = "{" + tag.split(":", 1)[1] + "}" if tag.startswith("choice:") else None
                how = {"action": "append", "type": functools.partial(_value, tag), "metavar": metavar}
            sub.add_argument(_flag(key), dest=key, help=help_text, **how)
    return parser


def parse_config(argv: list[str]) -> ExperimentConfig:
    """Resolve argv plus optional config file into an ExperimentConfig.

    Flags override file values; unknown file keys are rejected; required
    keys must be present after the merge, and per-mode keys must be
    exactly those the chosen mode reads.
    """
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command
    if command is None:
        parser.print_usage(sys.stderr)
        raise SystemExit(2)
    table = _COMMANDS[command]
    keys = {**table["keys"], **_COMMON_KEYS}

    flags = [(_flag(key), key, value) for key in keys for value in getattr(namespace, key) or ()]
    lines = []  # (name, key, value) of each config line, in file order
    configs = namespace.config or [None]
    for _ in configs[1:]:  # the one last-occurrence rule, as for any flag
        print("warning: --config given more than once; last occurrence wins", file=sys.stderr)
    path = configs[-1]
    if path is not None:
        for lineno, line in enumerate(_read_text(path).split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            if key not in keys:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {command}")
            try:
                lines.append((f"{path}:{lineno}: {key}", key, _value(keys[key][0], raw.strip())))
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
    merged: dict = {}
    for entries in (lines, flags):  # the one last-occurrence rule, source by source; a flag overrides the file
        given: dict = {}
        for name, key, value in entries:
            if key in given:
                print(f"warning: {name} given more than once; last occurrence wins", file=sys.stderr)
            given[key] = value
        merged.update(given)

    missing = [key for key in table["required"] if merged.get(key) is None]
    if missing:
        raise UsageError(f"{command}: missing required key(s): {', '.join(missing)}")
    if "modes" in table:
        mode_key, modes = table["modes"]
        need, may = modes[merged[mode_key]]
        per_mode = {key for groups in modes.values() for group in groups for key in group}
        given = [key for key in keys if key in per_mode and merged.get(key) is not None]
        if not set(need) <= set(given) <= set(need + may):
            reads = ", ".join([*need, *(f"[{key}]" for key in may)]) or "none"
            raise UsageError(
                f"{command} --{mode_key} {merged[mode_key]} reads exactly {reads}; got {', '.join(given) or 'none'}"
            )
    if merged.get("threads") is not None and merged["threads"] < 1:
        raise UsageError(f"threads must be at least 1, got {merged['threads']}")
    return ExperimentConfig(command=command, parameters=merged)


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
    if isinstance(obj, _Infinity):
        return render_json(str(obj))  # "-inf", which the value parser reads back
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


def _read_text(path: str) -> str:
    """A UTF-8 text file's content; one that cannot be read is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write a UTF-8 text file, relative to OUTPUT_DIR_ENV; one that cannot be written is a usage error."""
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), path)  # an absolute path ignores the base
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers: return (result, passed, artifact text or None)
# ---------------------------------------------------------------------------


def _echo(command: str, params: dict) -> dict:
    """Semantic parameters in canonical key order (independent of source)."""
    return {k: params[k] for k in _COMMANDS[command]["keys"] if k not in _NON_SEMANTIC and params.get(k) is not None}


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
    n, d, p, seed = params["n"], params["d"], params["p"], params["seed"]
    if n < 1:
        raise ValueError(f"vertex count must be positive, got n={n}")
    c_p, _, _, draw = estimators._pair_plan(n, d, p)  # refuses a bad d or an oversized trial before the draw
    blue = draw(RngStream(seed).generator(), 1)[0]
    graph = ColoredGraph(n, _row_tuples(_pack_words(n, blue)[0], n)[0], {"d": d, "p": p, "c_p": c_p, "seed": seed})
    result = {
        "n": n,
        "d": d,
        "p": p,
        "c_p": c_p,
        "blue_edges": graph.blue_count(),
        "density": graph.blue_count() / (n * (n - 1) / 2) if n > 1 else 0.0,
    }
    return result, True, graph_to_text(graph)


def _run_estimate(params: dict):
    stream = RngStream(params["seed"])
    threads = params.get("threads", 1)
    kind = params["kind"]
    if kind == "density":
        est = estimate_edge_density(
            params.get("n", 2), params["d"], params["p"], params["trials"], stream, threads=threads
        )
    else:
        spec = None
        if any(params.get(key) is not None for key in ("alpha_proj", "delta", "spec_ell")):
            if params.get("alpha_proj") is None or params.get("delta") is None or not params.get("restrict_perfect"):
                raise UsageError("custom perfect spec needs alpha-proj and delta together, and restrict-perfect")
            spec = PerfectSpec(params["alpha_proj"], params["delta"], params.get("spec_ell", params["r"]), params["d"])
        elif params.get("restrict_perfect"):
            spec = PerfectSpec.from_params(2.0, params["r"], params["d"], params["p"])
        with warnings.catch_warnings(record=True) as caught:  # the library's warnings, every call
            warnings.simplefilter("always", UserWarning)
            est = estimate_clique_prob(
                params["r"],
                params["d"],
                params["p"],
                params["color"],
                trials=params["trials"],
                stream=stream,
                sampler=params.get("sampler"),
                perfect_spec=spec,
                threads=threads,
            )
        for w in caught:  # in the CLI's one-line form; any other category goes out as it came
            if issubclass(w.category, UserWarning):
                print(f"warning: {w.message}", file=sys.stderr)
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return est.as_record(), est.status == "ok", None


def _run_validate(params: dict):
    check, stream = params["check"], RngStream(params["seed"])
    result = validate_bound(check, {k: params[k] for k in CHECKS[check][1]}, params["trials"], stream)
    return result, bool(result["passed"]), None


def _run_scaling(params: dict):
    stream = RngStream(params["seed"])
    report = correction_scaling(
        params["r"],
        params["p"],
        params["dims"],
        params["trials"],
        stream,
        sampler=params.get("sampler"),
        threads=params.get("threads", 1),
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
    stream = RngStream(params["seed"])
    sampler_params = {k: params[k] for k in ("p", "d") if params.get(k) is not None}  # d iff geometric
    cert = search_witness(
        params["n"], params["ell"], params["k"], params["sampler"], sampler_params, params["max_attempts"], stream
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
    cert = certificate_from_text(_read_text(params["infile"]))
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
    if "seed" in _COMMANDS[config.command]["keys"] and params.get("seed") is None:
        params["seed"] = secrets.randbits(63)  # drawn once, and echoed like a given seed
    try:
        result, passed, artifact = _HANDLERS[config.command](params)
    except (ValueError, KeyError, ArithmeticError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
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

    if artifact is not None:  # scaling returns one only when plot_out is given
        artifact_key = _ARTIFACT_KEY[config.command]
        if params.get(artifact_key):
            _write_text(params[artifact_key], artifact)
        else:
            rendered += artifact

    return (0 if passed else 1), rendered


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
        status, rendered = run(config)
        out = config.parameters.get("out")
        if out and _ARTIFACT_KEY.get(config.command) != "out":
            _write_text(out, rendered)
        elif rendered:
            sys.stdout.write(rendered)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
