"""Command-line front end: compute, sweep-w, sweep-spectrum, verify, simulate.

Exit codes: 0 all checks pass, 1 configuration error, 2 numerical check
failure (a failed residual gate, or one of the ``NUMERIC_ERRORS``). Output
is CSV (with a versioned `#qcrb-kit v1` header comment) or JSON;
missing-route cells are explicit nulls. Set QCRB_LOG to a logging level
name for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from .classical import _bound_cells, _fisher_stage
from .configio import NAMED_FAMILIES, load_json, model_from_config, povm_from_config
from .errors import (
    BoundaryRegularityError,
    ConfigError,
    DomainError,
    EigenConvergenceError,
    QcrbError,
    RankDeficientInconsistent,
    ZeroInformationError,
)
from .models import (
    DEFAULT_FD_STEP,
    DEFAULT_SEED,
    LAMBDA_SUM_ATOL,
    fixed_spectrum_model,
    QubitMixtureModel,
    constant_weight,
)
from .quantum import NEAR_ZERO_INFO, _report_cells, _route_errors
from .simulate import SimConfig, bound_chain_ok, run_sim
from .verify import VerifyOptions, all_passed, run_suite

logger = logging.getLogger("qcrb_kit")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

CSV_VERSION_TAG = "#qcrb-kit v1"
DEFAULT_TOL_ANALYTIC = 1e-8
DEFAULT_TOL_FD = 1e-6
# sweep gates: slack on the gap ordering, the match of a grid point to 1/2
# or to the uniform end, and how small the gap must be at those points
GAP_ORDER_SLACK = 1e-12
GRID_POINT_ATOL = 1e-12
HALF_WEIGHT_GAP_ATOL = 1e-10
UNIFORM_GAP_ATOL = 1e-7
# errors that say the numbers failed, not the input: they exit 2, like a
# failed residual gate; every other QcrbError exits 1. A ValueError reaching
# main is numerical: each one from input is converted to ConfigError first
NUMERIC_ERRORS = (
    EigenConvergenceError, RankDeficientInconsistent, BoundaryRegularityError,
    ZeroInformationError, ValueError,
)
# options whose value is a number, a lo:hi:steps grid or a list of numbers,
# any of which may start with a minus sign
NUMERIC_OPTIONS = (
    "--theta", "--theta0", "--fd-step", "--tol-analytic", "--tol-fd", "--seed",
    "--n-samples", "--theta-grid", "--w-grid", "--t-grid", "--start-spectrum",
)

# the compute cells read from the point's report cells, by column name
REPORT_COLUMNS = [
    "theta", "kind", "i_h_sld", "i_h_closed", "i_wy_generic", "i_wy_closed",
    "ratio", "gap", "alpha", "beta", "gamma", "score_mean",
    "sharp_bound", "approx_bound",
    "res_route_i_h", "res_route_i_wy", "res_relation",
]
COMPUTE_COLUMNS = REPORT_COLUMNS + ["cfi", "cfi_gap", "cfi_ok", "crb"]
SWEEP_W_COLUMNS = [
    "w", "theta", "i_h", "i_wy", "ratio", "gap", "alpha", "beta", "gamma",
    "res_route_i_h", "res_route_i_wy", "res_prop1",
]
SWEEP_SPECTRUM_COLUMNS = [
    "t", "theta", "i_h", "i_wy", "gap", "gamma",
    "res_route_i_h", "res_route_i_wy", "res_prop2",
]
VERIFY_COLUMNS = ["name", "kind", "residual", "tol", "passed", "detail"]
SIMULATE_COLUMNS = [
    "theta0", "n_samples", "seed", "empirical_var", "standard_error_of_var",
    "crb", "qcrb", "approx_qcrb", "approx_minus_qcrb", "bound_chain_ok",
]


# --- emission ----------------------------------------------------------------

_BUILTIN_SCALARS = frozenset((float, int, bool, str, type(None)))


def _pyify(value):
    """Coerce numpy scalars to builtins so formatting and JSON stay portable."""
    if type(value) in _BUILTIN_SCALARS:  # most cells: the report's are builtins already
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def format_cell(value) -> str:
    value = _pyify(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_cell(text: str):
    if text == "null":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def emit_csv(columns, rows, meta: dict) -> str:
    lines = [f"{CSV_VERSION_TAG} columns={','.join(columns)}"]
    for key in sorted(meta):
        lines.append(f"#{key} {format_cell(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def parse_csv(text: str):
    """Inverse of emit_csv: (columns, rows, meta-comment lines)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(CSV_VERSION_TAG):
        raise ConfigError(f"not a {CSV_VERSION_TAG} file")
    comments = []
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        comments.append(lines[i])
        i += 1
    if i >= len(lines):
        raise ConfigError("missing CSV header row")
    columns = lines[i].split(",")
    rows = []
    for line in lines[i + 1:]:
        if not line:
            continue
        cells = line.split(",")
        rows.append({c: parse_cell(v) for c, v in zip(columns, cells)})
    return columns, rows, comments


# one encoder per nesting depth d, whose item separator breaks the line and
# indents to that depth; with no indent of its own it is the C encoder
_JSON_ENCODERS = {d: json.JSONEncoder(separators=(",\n" + "  " * d, ": ")) for d in (2, 3)}


def _flat_json(value, depth: int) -> str:
    """A flat dict or list at nesting ``depth``, laid out as ``json.dumps(indent=2)`` does."""
    text = _JSON_ENCODERS[depth].encode(value)
    if len(text) == 2:  # {} and [] stay on one line
        return text
    pad = "  " * depth
    return f"{text[0]}\n{pad}{text[1:-1]}\n{pad[2:]}{text[-1]}"


def emit_json(columns, rows, meta: dict) -> str:
    """The v1 envelope: the bytes of ``json.dumps(payload, indent=2) + "\\n"``.

    The envelope is flat: every meta value and every row cell is a scalar
    (a number, bool, string or None). So its meta, its columns and each row
    are written by the C encoder, which ``indent`` would rule out, with the
    same float repr, NaN/Infinity and ASCII escaping.
    """
    meta = {k: _pyify(v) for k, v in meta.items()}
    row_texts = [_flat_json({c: _pyify(row.get(c)) for c in columns}, 3) for row in rows]
    rows_text = "[\n    " + ",\n    ".join(row_texts) + "\n  ]" if row_texts else "[]"
    return (
        '{\n  "format": "qcrb-kit v1",\n'
        f'  "meta": {_flat_json(meta, 2)},\n'
        f'  "columns": {_flat_json(list(columns), 2)},\n'
        f'  "rows": {rows_text}\n'
        "}\n"
    )


def _write_output(text: str, out: str) -> None:
    if out == "stdout":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, columns, rows, meta, fd_step: float) -> None:
    """Write the rows; ``fd_step`` is the step the run's models used."""
    meta = dict(meta)
    meta.setdefault("tol_analytic", args.tol_analytic or DEFAULT_TOL_ANALYTIC)
    meta.setdefault("tol_fd", args.tol_fd or DEFAULT_TOL_FD)
    meta.setdefault("fd_step", fd_step)
    fn = emit_csv if args.format == "csv" else emit_json
    _write_output(fn(columns, rows, meta), args.out)


# --- shared helpers ----------------------------------------------------------

def parse_grid(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected lo:hi:steps, got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name}: bounds must be finite, got {spec!r}")
    if steps < 1:
        raise ConfigError(f"{name}: steps must be >= 1")
    if steps == 1:
        return np.array([lo])
    if not lo < hi:
        raise ConfigError(f"{name}: grid must be strictly increasing (lo < hi)")
    return np.linspace(lo, hi, steps)


def _thetas(args) -> np.ndarray:
    if getattr(args, "theta_grid", None) is not None:  # an empty grid is an error, not unset
        return parse_grid(args.theta_grid, "--theta-grid")
    return np.array([args.theta])


def _route_tol(args, model) -> float:
    if model.has_analytic_derivative:
        return args.tol_analytic or DEFAULT_TOL_ANALYTIC
    return args.tol_fd or DEFAULT_TOL_FD


def _gate_residuals(row, tol, where) -> int:
    """Count, and log, the ``res_*`` cells of ``row`` above ``tol``; a null residual passes."""
    failures = 0
    for key in row:
        if key.startswith("res_") and row[key] is not None and row[key] > tol:
            failures += 1
            logger.warning("%s: %s=%.3e exceeds %g", where, key, row[key], tol)
    return failures


# --- commands ----------------------------------------------------------------

def cmd_compute(args) -> int:
    model = model_from_config(load_json(args.model), fd_step=args.fd_step)
    povm = povm_from_config(load_json(args.povm)) if args.povm else None
    rows = []
    failures = 0
    # one grid: each state is evaluated once, and the report and the classical
    # information of each block of thetas are stacked stages of it
    for point in model.grid(float(theta) for theta in _thetas(args)):
        theta = point.theta
        cells = _report_cells(point)
        row = {column: cells[column] for column in REPORT_COLUMNS}
        failures += _gate_residuals(row, _route_tol(args, model), f"theta={theta:g}")
        route_errors = _route_errors(cells)
        if route_errors:
            logger.warning("theta=%g route errors: %s", theta, route_errors)
        if povm is not None:
            i = point.layer(_fisher_stage, (povm,))[0][0]
            gap, ok, crb = _bound_cells(i, row["i_h_sld"])
            row.update({"cfi": i, "cfi_gap": gap, "cfi_ok": ok, "crb": crb})
            if not ok:
                failures += 1
                logger.warning("theta=%g: classical information exceeds the bound", theta)
        rows.append(row)
    meta = {"model": args.model, "povm": args.povm or None}
    _emit(args, COMPUTE_COLUMNS, rows, meta, model.fd_step)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _sweep_rows(args, axis: str, grid, model_at, columns) -> tuple[list[dict], int]:
    """One row per grid value x of a sweep at ``--theta``, and the failed gates.

    ``model_at(x)`` builds the model at x. The cells ``i_h``, ``i_wy``, their
    ``gap`` and ``ratio`` come from the closed routes, the ``axis`` cell is x,
    and every other column is read from the point's report cells by name.
    """
    theta = float(args.theta)
    rows = []
    failures = 0
    for x in grid:
        x = float(x)
        model = model_at(x)
        cells = _report_cells(model.at(theta))
        i_h, i_wy = cells["i_h_closed"], cells["i_wy_closed"]
        if i_h is None or i_wy is None:
            raise QcrbError(f"closed routes unavailable at {axis}={x}: {_route_errors(cells)}")
        cells.update({
            axis: x,
            "i_h": i_h,
            "i_wy": i_wy,
            "gap": i_wy - i_h,
            "ratio": i_wy / i_h if i_h > NEAR_ZERO_INFO else None,
        })
        row = {c: cells[c] for c in columns}
        rows.append(row)
        failures += _gate_residuals(row, _route_tol(args, model), f"{axis}={x:g}")
    return rows, failures


def cmd_sweep_w(args) -> int:
    grid = parse_grid(args.w_grid, "--w-grid")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise DomainError(f"--w-grid touches the boundary of (0, 1): {args.w_grid}")
    family = NAMED_FAMILIES[args.psi1]()
    rows, failures = _sweep_rows(
        args, "w", grid,
        lambda w: QubitMixtureModel(family, constant_weight(w), fd_step=args.fd_step),
        SWEEP_W_COLUMNS,
    )
    # the gap must not shrink as the weight moves away from 1/2
    ordered = sorted(rows, key=lambda r: abs(r["w"] - 0.5))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur["gap"] < prev["gap"] - GAP_ORDER_SLACK:
            failures += 1
            logger.warning("gap decreases from w=%g to w=%g", prev["w"], cur["w"])
    for row in rows:
        if abs(row["w"] - 0.5) < GRID_POINT_ATOL and abs(row["gap"]) > HALF_WEIGHT_GAP_ATOL:
            failures += 1
            logger.warning("gap at w=1/2 is %.3e, expected 0", row["gap"])
    _emit(args, SWEEP_W_COLUMNS, rows, {"psi1": args.psi1}, args.fd_step)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_sweep_spectrum(args) -> int:
    try:
        start = np.array([float(v) for v in args.start_spectrum.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--start-spectrum: {exc}") from exc
    if start.size < 2:
        raise DomainError("--start-spectrum needs at least two eigenvalue weights")
    # written so that a NaN weight fails it
    if not (np.all(start >= 0.0) and abs(float(np.sum(start)) - 1.0) <= LAMBDA_SUM_ATOL):
        raise DomainError(f"--start-spectrum must be a distribution, got {args.start_spectrum}")
    n = start.size
    uniform = np.full(n, 1.0 / n)
    grid = parse_grid(args.t_grid, "--t-grid")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise DomainError("--t-grid must lie inside [0, 1]")
    rows, failures = _sweep_rows(
        args, "t", grid,
        lambda t: fixed_spectrum_model(
            (1.0 - t) * start + t * uniform, seed=args.seed, frame=args.frame, fd_step=args.fd_step
        ),
        SWEEP_SPECTRUM_COLUMNS,
    )
    gaps = [abs(r["gap"]) for r in rows]
    monotone = all(b <= a + GAP_ORDER_SLACK for a, b in zip(gaps, gaps[1:]))
    if abs(grid[-1] - 1.0) < GRID_POINT_ATOL and gaps[-1] > UNIFORM_GAP_ATOL:
        failures += 1
        logger.warning("gap at the uniform spectrum is %.3e, expected <= %g", gaps[-1], UNIFORM_GAP_ATOL)
    meta = {"frame": args.frame, "seed": args.seed, "gap_monotone_nonincreasing": monotone}
    _emit(args, SWEEP_SPECTRUM_COLUMNS, rows, meta, args.fd_step)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_verify(args, catalog=None) -> int:
    options = VerifyOptions(
        tol_analytic=args.tol_analytic, tol_fd=args.tol_fd, fd_step=args.fd_step, seed=args.seed
    )
    results = run_suite(catalog=catalog, options=options)
    rows = [r.to_row() for r in results]
    passed = all_passed(results)
    _emit(args, VERIFY_COLUMNS, rows, {"passed": passed}, args.fd_step)
    return EXIT_OK if passed else EXIT_NUMERIC


def cmd_simulate(args) -> int:
    model = model_from_config(load_json(args.model), fd_step=args.fd_step)
    povm = povm_from_config(load_json(args.povm))
    try:
        cfg = SimConfig(
            model=model,
            povm=povm,
            theta0=args.theta0,
            n_samples=args.n_samples,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_sim(cfg)
    ok = bound_chain_ok(result)
    row = {"theta0": args.theta0, "n_samples": args.n_samples, "seed": args.seed}
    row.update(result.to_json_dict())
    row["approx_minus_qcrb"] = result.approx_qcrb - result.qcrb
    row["bound_chain_ok"] = ok
    _emit(args, SIMULATE_COLUMNS, [row], {"model": args.model, "povm": args.povm}, model.fd_step)
    return EXIT_OK if ok else EXIT_NUMERIC


# --- argument parsing --------------------------------------------------------

def _attach_numeric_values(argv: list[str]) -> list[str]:
    """Join each numeric option with its value into one ``--opt=value`` token.

    argparse reads a separate value such as ``-1e-3`` or ``-1:1:21`` as an
    option because it starts with a dash; the joined form is parsed as a value.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in NUMERIC_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qcrb",
        description="Fisher / Helstrom / skew information reports and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fd_step=DEFAULT_FD_STEP, seeded=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="stdout", help="output path or 'stdout'")
        p.add_argument("--fd-step", type=_positive_float, default=fd_step, dest="fd_step")
        # an unset tolerance is None: compute and the sweeps then gate at the
        # class default, verify at each check's own; a set one is positive
        p.add_argument("--tol-analytic", type=_positive_float, default=None, dest="tol_analytic")
        p.add_argument("--tol-fd", type=_positive_float, default=None, dest="tol_fd")
        if seeded:  # only the commands that draw random numbers take a seed
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    # a command that reads a model config defaults to the config's own fd_step
    p = sub.add_parser("compute", help="information report at one or more theta")
    add_common(p, fd_step=None)
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--povm", default=None, help="optional POVM config JSON path")
    p.add_argument("--theta", type=_finite_float, default=0.3)
    p.add_argument("--theta-grid", default=None, dest="theta_grid", help="lo:hi:steps")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("sweep-w", help="constant-weight sweep of the mixture gap")
    add_common(p)
    p.add_argument("--w-grid", default="0.5:0.9:5", dest="w_grid", help="lo:hi:steps in (0,1)")
    p.add_argument("--theta", type=_finite_float, default=0.3)
    p.add_argument("--psi1", choices=tuple(NAMED_FAMILIES), default="rotation")
    p.set_defaults(fn=cmd_sweep_w)

    p = sub.add_parser("sweep-spectrum", help="interpolate a spectrum toward uniform")
    add_common(p, seeded=True)
    p.add_argument("--start-spectrum", default="0.7,0.2,0.1", dest="start_spectrum")
    p.add_argument("--t-grid", default="0:1:11", dest="t_grid", help="lo:hi:steps in [0,1]")
    p.add_argument("--theta", type=_finite_float, default=0.3)
    p.add_argument("--frame", choices=("random", "rotation"), default="random")
    p.set_defaults(fn=cmd_sweep_spectrum)

    p = sub.add_parser("verify", help="run the invariant suite over the builtin catalog")
    add_common(p, seeded=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo check of the bound chain")
    add_common(p, fd_step=None, seeded=True)
    p.add_argument("--model", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--theta0", type=_finite_float, default=0.3)
    p.add_argument("--n-samples", type=int, default=100_000, dest="n_samples")
    p.set_defaults(fn=cmd_simulate)

    return parser


def _log_level(name: str | None) -> int:
    """The logging level that ``QCRB_LOG`` names: WARNING when unset, INFO for a name
    that is no level (a ``logging`` attribute that is not an integer is none)."""
    if not name:
        return logging.WARNING
    level = getattr(logging, name.upper(), None)
    return level if isinstance(level, int) else logging.INFO


def main(argv=None) -> int:
    logging.basicConfig(
        level=_log_level(os.environ.get("QCRB_LOG")),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    argv_list = _attach_numeric_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv_list)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        label = "ZeroInformation" if isinstance(exc, ZeroInformationError) else type(exc).__name__
        print(f"error: {label}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QcrbError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an input too large for this machine's memory
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
