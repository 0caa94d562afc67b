"""Common estimator output type and the config-file writer and reader.

RateEstimate is what every estimator returns.  save_fields writes and
load_fields reads the JSON files that hold a Scenario, a GaConfig or an
MfrModel: one object whose keys are the dataclass's field names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path


@dataclass
class RateEstimate:
    """A single lifetime estimate with uncertainty and provenance.

    tau_hat and std_err are in seconds; method is one of "lm", "mfr", "ga".
    diagnostics holds method-specific scalars (iteration counts, costs, ...).
    """

    tau_hat: float
    std_err: float
    method: str
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def save_fields(obj, path) -> None:
    """Write the dataclass obj's fields to path as one JSON object, keyed by name.

    An ndarray is written as a list, which load_fields reads back as a tuple.
    """
    payload = {f.name: getattr(obj, f.name) for f in fields(obj)}
    Path(path).write_text(json.dumps(payload, default=lambda v: v.tolist()) + "\n")


def load_fields(cls, path):
    """cls built from the JSON object in the file at path, keyed by field name.

    JSON has no tuples, so every list becomes a tuple.  A file that holds
    no JSON object, a missing or unknown key, or a value the class refuses
    raises ValueError naming the file.
    """
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()})
    except (TypeError, ValueError) as exc:  # TypeError: an unknown or missing key
        raise ValueError(f"{path}: {exc}") from exc
