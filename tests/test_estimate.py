import dataclasses
import json

import numpy as np
import pytest

from blinkfit.bench import Scenario
from blinkfit.estimate import load_fields, save_fields
from blinkfit.ga import GaConfig
from blinkfit.mfr import generate_training_corpus, train_model


def ga_config():
    custom = GaConfig(tau_range=(2e-3, 90e-3), max_iterations=300)
    return custom, GaConfig(tau_range=(1e-3, 100e-3))


def mfr_model():
    on, _ = generate_training_corpus((5e-3, 50e-3), 6, 0.5, bin_width=1e-3, rng=3)
    # MfrModel has no defaults to differ from
    return train_model(on, bin_width=1e-3, trained_duration=0.5), None


def scenario():
    custom = Scenario(
        tau_on=5e-3,
        tau_off=7e-3,
        bin_width=0.5e-3,
        durations=(0.5, 2.0),
        noise=None,
        trials_per_cell=3,
        base_seed=9,
    )
    return custom, Scenario()


@pytest.mark.parametrize(
    "make, names",
    [
        pytest.param(ga_config, ["tau_range", "max_iterations"], id="GaConfig"),
        pytest.param(
            mfr_model,
            ["weights", "n", "bin_width", "trained_duration", "ridge_lambda"],
            id="MfrModel",
        ),
        pytest.param(
            scenario,
            ["tau_on", "tau_off", "bin_width", "durations", "noise", "trials_per_cell",
             "base_seed"],
            id="Scenario",
        ),
    ],
)
def test_config_roundtrip(tmp_path, make, names):
    obj, defaults = make()
    cls = type(obj)
    assert [f.name for f in dataclasses.fields(cls)] == names
    if defaults is not None:
        # a field left at its default would read back right without being written
        assert all(getattr(obj, n) != getattr(defaults, n) for n in names)
    path = tmp_path / "config.json"
    save_fields(obj, path)
    assert sorted(json.loads(path.read_text())) == sorted(names)
    back = load_fields(cls, path)
    for name in names:
        want, got = getattr(obj, name), getattr(back, name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            # a list read back where a tuple was written would compare unequal
            assert got == want and type(got) is type(want)
