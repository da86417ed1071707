"""JSON configuration schemas for models and measurements.

Model config::

    { "kind": "pure" | "qubit_mixture" | "spectral",
      "dim": n,
      "psi1": {"name": "rotation" | "complex-rotation" | "random", "params": []},
      "weight": {"form": "constant" | "sine" | "logistic", "params": [...]},
      "seed": int,
      "theta_domain": [lo, hi],
      "spectrum": [lam_1, ..., lam_n],   # optional: constant spectrum
      "frame": "random" | "rotation",    # spectral models only
      "fd_step": h }

POVM config::

    { "kind": "basis" | "random" | "explicit",
      "dim": n, "n_effects": k, "seed": s,
      "effects": [[[re, im] | re, ...], ...] }

Parse failures raise ConfigError with the offending field path, before
any model or measurement is built; a ``dim`` that contradicts the built
model's dimension is the one exception, checked after it is built.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .classical import Povm, basis_povm, random_povm
from .errors import ConfigError, QcrbError
from .hermitian import DIM_CEILING
from .models import (
    DEFAULT_FD_STEP,
    LAMBDA_RANGE_ATOL,
    LAMBDA_SUM_ATOL,
    ParametricStateModel,
    PureStateModel,
    QubitMixtureModel,
    WeightFunction,
    complex_rotation_family,
    constant_weight,
    fixed_spectrum_model,
    logistic_weight,
    random_pure_family,
    random_spectral_model,
    rotation_family,
    sine_weight,
)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise ConfigError(f"{path}: {exc}") from exc


def _field(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing field '{key}'")
    return cfg[key]


def _number(value, where: str) -> float:
    """A JSON number as a float, NaN and infinities included.

    Bools, strings and integers beyond the float range are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer beyond the float range") from None


def _real(value, where: str, finite: bool = True) -> float:
    """A JSON number as a float; NaN is rejected too, and so are infinities if ``finite``."""
    x = _number(value, where)
    if math.isnan(x) or (finite and math.isinf(x)):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


def _integer(value, where: str, lo: int = 0, hi: int | None = None) -> int:
    """A JSON integer (or integral float) in [lo, hi]."""
    x = _real(value, where)
    if not x.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    n = int(x)
    if n < lo or (hi is not None and n > hi):
        bound = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{where}: {n} outside {bound}")
    return n


def _dim(value, where: str) -> int:
    return _integer(value, where, lo=1, hi=DIM_CEILING)


def _spectrum(raw) -> list[float]:
    """Nonempty list of weights in [0, 1] that sum to 1, within the model's tolerances."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("model.spectrum: expected a nonempty list")
    if len(raw) > DIM_CEILING:
        raise ConfigError(f"model.spectrum: {len(raw)} entries exceed the ceiling {DIM_CEILING}")
    lam = [_real(v, f"model.spectrum[{i}]") for i, v in enumerate(raw)]
    for i, v in enumerate(lam):
        if not -LAMBDA_RANGE_ATOL <= v <= 1.0 + LAMBDA_RANGE_ATOL:
            raise ConfigError(f"model.spectrum[{i}]: weight {v!r} outside [0, 1]")
    total = float(np.sum(lam))
    if abs(total - 1.0) > LAMBDA_SUM_ATOL:
        raise ConfigError(f"model.spectrum: entries sum to {total!r}, expected 1")
    return lam


def _params(spec: dict, where: str) -> list[float]:
    raw = spec.get("params", [])
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{where}.params: expected a list")
    return [_real(v, f"{where}.params[{i}]") for i, v in enumerate(raw)]


# the pure families a name alone builds, read by a config's "psi1" and by
# ``sweep-w --psi1``; a config's "random" family needs a seed and a dim too
NAMED_FAMILIES = {"rotation": rotation_family, "complex-rotation": complex_rotation_family}


def _pure_family(spec, seed, dim, where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object with a 'name'")
    name = _field(spec, "name", where)
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name: expected a string")
    if name not in NAMED_FAMILIES and name != "random":
        raise ConfigError(f"{where}.name: unknown family {name!r}")
    params = spec.get("params", [])
    if not isinstance(params, (list, tuple)):
        raise ConfigError(f"{where}.params: expected a list")
    if params:
        raise ConfigError(f"{where}.params: family {name!r} takes none, got {len(params)} entries")
    if name in NAMED_FAMILIES:
        return NAMED_FAMILIES[name]()
    if seed is None:
        raise ConfigError(f"{where}: family 'random' needs a top-level 'seed'")
    if dim is None:
        raise ConfigError(f"{where}: family 'random' needs a top-level 'dim'")
    return random_pure_family(seed, dim)


# weight form -> its constructor and parameter names; "constant" needs its
# one parameter, the other forms have defaults for theirs
_WEIGHT_FORMS = {
    "constant": (constant_weight, ("w",)),
    "sine": (sine_weight, ("amplitude",)),
    "logistic": (logistic_weight, ("rate", "center")),
}


def _weight(spec, where: str) -> WeightFunction:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object with a 'form'")
    form = _field(spec, "form", where)
    params = _params(spec, where)
    if not isinstance(form, str) or form not in _WEIGHT_FORMS:
        raise ConfigError(f"{where}.form: unknown form {form!r}")
    make, names = _WEIGHT_FORMS[form]
    if len(params) > len(names) or (form == "constant" and not params):
        raise ConfigError(
            f"{where}.params: {form!r} takes [{', '.join(names)}], got {len(params)} entries"
        )
    try:
        return make(*params)
    except QcrbError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def model_from_config(cfg: dict, fd_step: float | None = None) -> ParametricStateModel:
    if not isinstance(cfg, dict):
        raise ConfigError("model: expected a JSON object")
    kind = _field(cfg, "kind", "model")
    # read wherever they are given, so that a malformed one is never dropped
    seed = cfg.get("seed")
    if seed is not None:
        seed = _integer(seed, "model.seed")
    dim = cfg.get("dim")
    if dim is not None:
        dim = _dim(dim, "model.dim")
    domain = cfg.get("theta_domain")
    if domain is None:
        lo, hi = -math.inf, math.inf
    elif isinstance(domain, (list, tuple)) and len(domain) == 2:
        lo = _real(domain[0], "model.theta_domain[0]", finite=False)
        hi = _real(domain[1], "model.theta_domain[1]", finite=False)
    else:
        raise ConfigError("model.theta_domain: expected [lo, hi]")
    if fd_step is None:
        fd_step = _real(cfg.get("fd_step", DEFAULT_FD_STEP), "model.fd_step")
    common = {"domain": (lo, hi), "fd_step": float(fd_step)}
    model = _model(kind, cfg, seed, dim, common)
    if dim is not None and model.dim != dim:
        raise ConfigError(f"model.dim: {dim} contradicts the model's dimension {model.dim}")
    return model


def _model(kind, cfg: dict, seed, dim, common: dict) -> ParametricStateModel:
    if kind == "pure":
        family = _pure_family(_field(cfg, "psi1", "model"), seed, dim, "model.psi1")
        return PureStateModel(family, **common)
    if kind == "qubit_mixture":
        family = _pure_family(_field(cfg, "psi1", "model"), seed, 2, "model.psi1")
        weight = _weight(_field(cfg, "weight", "model"), "model.weight")
        return QubitMixtureModel(family, weight, **common)
    if kind == "spectral":
        if "spectrum" in cfg:
            spectrum = _spectrum(cfg["spectrum"])
            frame = cfg.get("frame", "random")
            try:
                return fixed_spectrum_model(spectrum, seed=seed, frame=frame, **common)
            except QcrbError as exc:
                raise ConfigError(f"model: {exc}") from exc
        if dim is None:
            raise ConfigError("model.dim: required for spectral models")
        if seed is None:
            raise ConfigError("model.seed: required for random spectral models")
        return random_spectral_model(seed, dim, **common)
    raise ConfigError(f"model.kind: unknown kind {kind!r}")


def _complex_entry(value, where: str) -> complex:
    # a non-finite entry passes here; the effect's HermitianMatrix rejects it
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{where}: expected a number or [re, im]")
        return complex(_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))
    return complex(_number(value, where))


def povm_from_config(cfg: dict) -> Povm:
    if not isinstance(cfg, dict):
        raise ConfigError("povm: expected a JSON object")
    kind = _field(cfg, "kind", "povm")
    if kind == "basis":
        return basis_povm(_dim(_field(cfg, "dim", "povm"), "povm.dim"))
    if kind == "random":
        dim = _dim(_field(cfg, "dim", "povm"), "povm.dim")
        n_eff = _integer(_field(cfg, "n_effects", "povm"), "povm.n_effects", lo=1)
        seed = _integer(_field(cfg, "seed", "povm"), "povm.seed")
        try:
            return random_povm(dim, n_eff, seed)
        except QcrbError as exc:
            raise ConfigError(f"povm: {exc}") from exc
    if kind == "explicit":
        raw = _field(cfg, "effects", "povm")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError("povm.effects: expected a nonempty list of matrices")
        mats = []
        for i, rows in enumerate(raw):
            where = f"povm.effects[{i}]"
            if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
                raise ConfigError(f"{where}: expected a matrix (list of rows)")
            if len({len(row) for row in rows}) > 1:
                raise ConfigError(f"{where}: rows of unequal length")
            mat = [
                [_complex_entry(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)]
                for r, row in enumerate(rows)
            ]
            mats.append(np.array(mat, dtype=complex))
        try:
            return Povm(mats)
        # a ValueError here is an entry HermitianMatrix refuses: not finite,
        # or so large that (A + A*)/2 overflows
        except (QcrbError, ValueError) as exc:
            raise ConfigError(f"povm: {exc}") from exc
    raise ConfigError(f"povm.kind: unknown kind {kind!r}")
