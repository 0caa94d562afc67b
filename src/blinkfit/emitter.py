"""Synthetic two-state blinking emitter simulation.

An emitter alternates between an on state (fast excitation/radiative
cycling, high photocounts) and an off state (carrier trapped, low
photocounts).  Dwell times in each state are exponential with the
state's mean lifetime, the resulting occupancy is discretized onto
fixed-width time bins, and per-bin photocounts are emitted with optional
Poisson shot noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_MEAN_ON_COUNTS = 100.0
DEFAULT_MEAN_OFF_COUNTS = 10.0


@dataclass(frozen=True)
class EmitterModel:
    """Mean state lifetimes in seconds."""

    tau_on: float
    tau_off: float

    def __post_init__(self):
        if self.tau_on <= 0 or self.tau_off <= 0:
            raise ValueError("tau_on and tau_off must be positive")


@dataclass(eq=False)
class BlinkTrace:
    """Binned photocount time series.

    counts holds one value per bin: integer Poisson draws when photon noise
    is on, otherwise the exact expected counts (fractional in bins that
    straddle a state transition).  hidden_states marks the majority state of
    each bin and truth carries the generating (tau_on, tau_off).
    """

    bin_width: float
    counts: np.ndarray
    mean_on_counts: float = DEFAULT_MEAN_ON_COUNTS
    mean_off_counts: float = DEFAULT_MEAN_OFF_COUNTS
    truth: tuple[float, float] | None = None
    seed: int | None = None
    hidden_states: np.ndarray | None = None

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.size < 1:
            raise ValueError("trace must contain at least one bin")
        if not self.mean_on_counts > self.mean_off_counts:
            raise ValueError("mean_on_counts must exceed mean_off_counts")

    def __len__(self) -> int:
        return self.counts.size

    @property
    def duration(self) -> float:
        return self.counts.size * self.bin_width


def sample_dwell(state: str, model: EmitterModel, rng: np.random.Generator) -> float:
    """Draw one exponential dwell duration (seconds) for the state ("on"/"off").

    Each call is independent: a state change starts a fresh process that
    remembers nothing about previous visits.
    """
    if state not in ("on", "off"):
        raise ValueError("state must be 'on' or 'off'")
    tau = model.tau_on if state == "on" else model.tau_off
    return float(rng.exponential(tau))


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng) if rng is not None else None
    return np.random.default_rng(seed), seed


def generate_trace(
    model: EmitterModel,
    duration: float,
    bin_width: float,
    photon_noise: str | None = "poisson",
    rng=None,
) -> BlinkTrace:
    """Simulate a blinking time trace.

    The initial state is drawn from the stationary occupancy
    tau_on/(tau_on+tau_off); on/off dwells then alternate until the
    requested duration is covered.  A bin fully inside one state gets that
    state's mean count level (DEFAULT_MEAN_ON_COUNTS or
    DEFAULT_MEAN_OFF_COUNTS); a bin straddling a transition gets the
    time-weighted mixture, and its hidden state is the state occupying the
    majority of the bin.  With photon_noise="poisson", counts are Poisson
    draws around the expected level; with None they are the expectation
    itself.  Deterministic for a given integer seed.

    Parameters
    ----------
    model : EmitterModel
    duration : float
        Requested trace length in seconds (>= bin_width).
    bin_width : float
        Bin width in seconds.
    photon_noise : "poisson" or None
    rng : int seed or numpy Generator
    """
    if bin_width <= 0 or duration <= 0:
        raise ValueError("duration and bin_width must be positive")
    if duration < bin_width:
        raise ValueError("duration must cover at least one bin")
    if photon_noise not in (None, "poisson"):
        raise ValueError("photon_noise must be None or 'poisson'")

    generator, seed = _as_rng(rng)
    n_bins = int(round(duration / bin_width))
    total = n_bins * bin_width

    p_on = model.tau_on / (model.tau_on + model.tau_off)
    on = bool(generator.random() < p_on)

    on_time = np.zeros(n_bins)
    t = 0.0
    while t < total:
        d = sample_dwell("on" if on else "off", model, generator)
        if on:
            _add_interval(on_time, t, min(t + d, total), bin_width, n_bins)
        t += d
        on = not on

    on_frac = np.clip(on_time / bin_width, 0.0, 1.0)
    lo, hi = DEFAULT_MEAN_OFF_COUNTS, DEFAULT_MEAN_ON_COUNTS
    expected = lo + (hi - lo) * on_frac
    if photon_noise == "poisson":
        counts = generator.poisson(expected).astype(float)
    else:
        counts = expected

    return BlinkTrace(
        bin_width=bin_width,
        counts=counts,
        truth=(model.tau_on, model.tau_off),
        seed=seed,
        hidden_states=on_frac > 0.5,
    )


def _add_interval(on_time, a, b, bin_width, n_bins):
    """Accumulate the overlap of [a, b) with each bin into on_time."""
    if b <= a:
        return
    i0 = min(int(a / bin_width), n_bins - 1)
    i1 = min(int(np.ceil(b / bin_width)) - 1, n_bins - 1)
    if i1 <= i0:
        on_time[i0] += b - a
        return
    on_time[i0] += (i0 + 1) * bin_width - a
    on_time[i1] += b - i1 * bin_width
    if i1 > i0 + 1:
        on_time[i0 + 1 : i1] += bin_width


def write_trace(trace: BlinkTrace, path) -> None:
    """Write a trace as CSV (t_s,counts) plus a JSON metadata sidecar."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("t_s,counts\n")
        bw = trace.bin_width
        for i, c in enumerate(trace.counts):
            c = float(c)
            value = repr(int(c)) if c.is_integer() else repr(c)
            fh.write(f"{repr(i * bw)},{value}\n")
    meta = {
        "bin_width_s": trace.bin_width,
        "mean_on_counts": trace.mean_on_counts,
        "mean_off_counts": trace.mean_off_counts,
        "tau_on_s": trace.truth[0] if trace.truth else None,
        "tau_off_s": trace.truth[1] if trace.truth else None,
        "seed": trace.seed,
    }
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def _read_sidecar(sidecar: Path) -> dict:
    """Load a trace's JSON sidecar; the errors below name the file.

    bin_width_s must hold a positive number, the other numeric keys a
    number or null.
    """
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar} must be a JSON object")
    if meta.get("bin_width_s") is None:
        raise ValueError(f"sidecar {sidecar} lacks bin_width_s")
    for key in ("bin_width_s", "mean_on_counts", "mean_off_counts", "tau_on_s", "tau_off_s"):
        if meta.get(key) is not None and type(meta[key]) not in (int, float):
            raise ValueError(f"sidecar {sidecar}: {key} must be a number, got {meta[key]!r}")
    width = meta["bin_width_s"]
    if not width > 0:  # also NaN, which json.loads accepts
        raise ValueError(f"sidecar {sidecar}: bin_width_s must be positive, got {width}")
    return meta


def read_trace(path) -> BlinkTrace:
    """Read a trace written by write_trace (sidecar JSON required).

    Counts must be finite, and the first and last t_s must equal row index
    x bin_width_s from the sidecar, so gapped files and mismatched sidecars
    are rejected.  Only those two t_s values are parsed.  Errors name the
    line of the file, or the sidecar (see _read_sidecar).
    """
    path = Path(path)
    counts = []
    blank_lines = []
    first_t = None
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "t_s,counts":
            raise ValueError(f"unexpected trace header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                blank_lines.append(lineno)
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"malformed trace row at line {lineno} of {path}")
            try:
                counts.append(float(fields[1]))
            except ValueError as exc:
                raise ValueError(f"malformed trace row at line {lineno} of {path}") from exc
            if first_t is None:
                first_t = fields[0]
    meta = _read_sidecar(path.with_suffix(".json"))
    truth = None
    if meta.get("tau_on_s") is not None and meta.get("tau_off_s") is not None:
        truth = (meta["tau_on_s"], meta["tau_off_s"])
    trace = BlinkTrace(
        bin_width=meta["bin_width_s"],
        counts=np.asarray(counts),
        mean_on_counts=meta.get("mean_on_counts", DEFAULT_MEAN_ON_COUNTS),
        mean_off_counts=meta.get("mean_off_counts", DEFAULT_MEAN_OFF_COUNTS),
        truth=truth,
        seed=meta.get("seed"),
    )

    def line_of(index: int) -> int:
        line = index + 2
        for blank in blank_lines:
            if blank <= line:
                line += 1
        return line

    bad = np.flatnonzero(~np.isfinite(trace.counts))
    if bad.size:
        raise ValueError(f"non-finite count at line {line_of(bad[0])} of {path}")
    # BlinkTrace refuses an empty trace, so fields holds the last data row
    for index, text in ((0, first_t), (len(trace) - 1, fields[0])):
        lineno = line_of(index)
        try:
            t = float(text)
        except ValueError as exc:
            raise ValueError(f"malformed trace row at line {lineno} of {path}") from exc
        expected = index * trace.bin_width
        if not abs(t - expected) <= 1e-6 * trace.bin_width:
            raise ValueError(
                f"t_s {text} at line {lineno} of {path} is not row {index} x bin_width_s "
                f"= {expected!r}: the trace has gaps or the sidecar does not match"
            )
    return trace
