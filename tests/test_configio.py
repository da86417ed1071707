"""Tests for the JSON config schemas."""

import json
import math

import numpy as np
import pytest

from qcrb_kit.configio import load_json, model_from_config, povm_from_config
from qcrb_kit.errors import ConfigError, DomainError
from qcrb_kit.models import PureStateModel, QubitMixtureModel, SpectralMixtureModel


def test_pure_model_config():
    model = model_from_config({"kind": "pure", "psi1": {"name": "rotation"}})
    assert isinstance(model, PureStateModel)
    np.testing.assert_allclose(model.rho(0.0).mat, np.diag([1.0, 0.0]), atol=1e-15)


def test_random_pure_model_config_needs_seed_and_dim():
    model = model_from_config(
        {"kind": "pure", "dim": 3, "seed": 5, "psi1": {"name": "random"}}
    )
    assert model.dim == 3
    with pytest.raises(ConfigError, match="seed"):
        model_from_config({"kind": "pure", "dim": 3, "psi1": {"name": "random"}})


def test_mixture_model_config():
    cfg = {
        "kind": "qubit_mixture",
        "psi1": {"name": "rotation"},
        "weight": {"form": "sine", "params": [0.8]},
        "theta_domain": [-1.2, 1.2],
    }
    model = model_from_config(cfg)
    assert isinstance(model, QubitMixtureModel)
    assert model.domain == (-1.2, 1.2)
    assert model.weight.value(0.0) == pytest.approx(0.5)


def test_spectral_model_configs():
    seeded = model_from_config({"kind": "spectral", "dim": 4, "seed": 3})
    assert isinstance(seeded, SpectralMixtureModel) and seeded.dim == 4
    fixed = model_from_config(
        {"kind": "spectral", "spectrum": [0.7, 0.3], "frame": "rotation"}
    )
    np.testing.assert_allclose(fixed.lambdas_at(0.5), [0.7, 0.3], atol=1e-15)
    with pytest.raises(ConfigError, match="spectrum"):
        model_from_config({"kind": "spectral", "spectrum": [0.7, 0.7]})


def test_model_config_field_errors_carry_paths():
    with pytest.raises(ConfigError, match="model.kind"):
        model_from_config({"kind": "banana"})
    with pytest.raises(ConfigError, match="model.weight.form"):
        model_from_config(
            {"kind": "qubit_mixture", "psi1": {"name": "rotation"}, "weight": {"form": "spline"}}
        )
    with pytest.raises(ConfigError, match="psi1"):
        model_from_config({"kind": "pure", "psi1": {"name": "unknown"}})
    with pytest.raises(ConfigError, match="constant"):
        model_from_config(
            {
                "kind": "qubit_mixture",
                "psi1": {"name": "rotation"},
                "weight": {"form": "constant", "params": [1.5]},
            }
        )


def test_povm_configs():
    basis = povm_from_config({"kind": "basis", "dim": 3})
    assert len(basis) == 3
    rand = povm_from_config({"kind": "random", "dim": 2, "n_effects": 4, "seed": 8})
    assert len(rand) == 4
    explicit = povm_from_config(
        {
            "kind": "explicit",
            "effects": [
                [[0.5, [0.0, -0.1]], [[0.0, 0.1], 0.5]],
                [[0.5, [0.0, 0.1]], [[0.0, -0.1], 0.5]],
            ],
        }
    )
    assert len(explicit) == 2
    total = sum(m.mat for m in explicit)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_povm_config_errors():
    with pytest.raises(ConfigError, match="povm.kind"):
        povm_from_config({"kind": "what"})
    with pytest.raises(ConfigError, match="povm.effects"):
        povm_from_config({"kind": "explicit", "effects": []})
    with pytest.raises(ConfigError):
        povm_from_config({"kind": "explicit", "effects": [[[1.0, 0.0], [0.0, 0.5]]]})


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "kind": oops\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_json(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        load_json(str(tmp_path / "missing.json"))


def test_config_round_trips_through_files(tmp_path):
    cfg = {"kind": "pure", "psi1": {"name": "complex-rotation"}}
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    model = model_from_config(load_json(str(p)))
    assert model.kind == "pure"


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"kind": "spectral", "dim": "abc", "seed": 3}, "model.dim"),
        ({"kind": "spectral", "dim": 0, "seed": 3}, "model.dim"),
        ({"kind": "spectral", "dim": 65, "seed": 3}, "model.dim"),
        ({"kind": "spectral", "dim": 2.5, "seed": 3}, "model.dim"),
        ({"kind": "spectral", "dim": 4, "seed": -1}, "model.seed"),
        ({"kind": "spectral", "dim": 4, "seed": True}, "model.seed"),
        ({"kind": "pure", "dim": "3", "seed": 5, "psi1": {"name": "random"}}, "model.dim"),
        ({"kind": "spectral", "spectrum": [1.2, -0.2]}, "model.spectrum[0]"),
        ({"kind": "spectral", "spectrum": [0.5, "half"]}, "model.spectrum[1]"),
        ({"kind": "pure", "psi1": {"name": "rotation"}, "theta_domain": ["a", 1]},
         "model.theta_domain[0]"),
        ({"kind": "pure", "psi1": {"name": "rotation"}, "fd_step": "tiny"}, "model.fd_step"),
    ],
)
def test_model_config_numeric_fields_are_checked(cfg, field):
    with pytest.raises(ConfigError) as info:
        model_from_config(cfg)
    assert field in str(info.value)


def test_model_config_accepts_a_dim_that_agrees_and_empty_family_params():
    mixture = {"kind": "qubit_mixture", "psi1": {"name": "rotation", "params": []},
               "weight": {"form": "constant", "params": [0.8]}}
    assert model_from_config({**mixture, "dim": 2}).dim == 2
    fixed = {"kind": "spectral", "spectrum": [0.5, 0.3, 0.2, 0.0], "dim": 4, "seed": 1}
    assert model_from_config(fixed).dim == 4
    assert model_from_config({"kind": "pure", "psi1": {"name": "rotation"}, "seed": 9}).dim == 2


def test_model_config_rejects_an_empty_domain_and_a_zero_step():
    rotation = {"kind": "pure", "psi1": {"name": "rotation"}}
    with pytest.raises(DomainError, match="empty domain"):
        model_from_config({**rotation, "theta_domain": [0.3, 0.3]})
    with pytest.raises(ConfigError, match="finite-difference step"):
        model_from_config({**rotation, "fd_step": 0})


def test_model_config_keeps_infinite_domain_ends():
    model = model_from_config(
        {"kind": "pure", "psi1": {"name": "rotation"}, "theta_domain": [-math.inf, 1.0]}
    )
    assert model.domain == (-math.inf, 1.0)


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"kind": "basis", "dim": "2"}, "povm.dim"),
        ({"kind": "basis", "dim": -1}, "povm.dim"),
        ({"kind": "random", "dim": 2, "n_effects": 0, "seed": 1}, "povm.n_effects"),
        ({"kind": "random", "dim": 2, "n_effects": 3, "seed": -4}, "povm.seed"),
    ],
)
def test_povm_config_numeric_fields_are_checked(cfg, field):
    with pytest.raises(ConfigError) as info:
        povm_from_config(cfg)
    assert field in str(info.value)
