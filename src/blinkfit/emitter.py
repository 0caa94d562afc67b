"""Synthetic two-state blinking emitter simulation.

An emitter alternates between an on state (fast excitation/radiative
cycling, high photocounts) and an off state (carrier trapped, low
photocounts).  Dwell times in each state are exponential with the
state's mean lifetime, the resulting occupancy is discretized onto
fixed-width time bins, and per-bin photocounts are emitted with optional
Poisson shot noise.

The dwells are drawn in bulk, as one array of standard exponentials
scaled by the alternating lifetimes, and binned with a few array calls.
For a given seed the trace is bit for bit the one a loop drawing
``Generator.exponential(tau)`` once per dwell would give, and a passed
Generator is left in the same state.
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
        if not (0 < self.tau_on < np.inf and 0 < self.tau_off < np.inf):
            raise ValueError("tau_on and tau_off must be positive and finite")


@dataclass(eq=False)
class BlinkTrace:
    """Binned photocount time series.

    counts holds one value per bin: integer Poisson draws when photon noise
    is on, otherwise the exact expected counts (fractional in bins that
    straddle a state transition); a NaN or infinite count raises
    ValueError.  hidden_states marks the majority state of
    each bin and truth carries the generating (tau_on, tau_off).
    bin_width is kept as a Python float, so a numpy scalar never reaches
    the time column write_trace formats.
    """

    bin_width: float
    counts: np.ndarray
    mean_on_counts: float = DEFAULT_MEAN_ON_COUNTS
    mean_off_counts: float = DEFAULT_MEAN_OFF_COUNTS
    truth: tuple[float, float] | None = None
    seed: int | None = None
    hidden_states: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.bin_width < np.inf:
            raise ValueError("bin_width must be positive and finite")
        self.bin_width = float(self.bin_width)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.size < 1:
            raise ValueError("trace must contain at least one bin")
        if not self.mean_on_counts > self.mean_off_counts:
            raise ValueError("mean_on_counts must exceed mean_off_counts")
        finite = np.isfinite(self.counts)
        if not finite.all():
            bad = int(finite.argmin())
            raise ValueError(f"counts must be finite, got {self.counts[bad]} in bin {bad}")

    def __len__(self) -> int:
        return self.counts.size

    @property
    def duration(self) -> float:
        return self.counts.size * self.bin_width


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng) if rng is not None else None
    return np.random.default_rng(seed), seed


def _draw_dwells(
    generator: np.random.Generator, first_tau: float, second_tau: float, total: float
) -> np.ndarray:
    """Exponential dwells with means first_tau, second_tau, first_tau, ... that cover total.

    The dwells are those a loop would draw with generator.exponential(tau),
    one per dwell, while its running sum t += d is below total, and the
    generator is left where that loop leaves it.  exponential(tau) is
    tau * standard_exponential(), and np.cumsum adds in the loop's order.
    So a guess at the count is drawn in bulk (redrawn at twice the size
    until its sum covers total), the count n is read off the cumsum, and
    the generator is rewound and advanced by exactly n draws.
    """
    state = generator.bit_generator.state
    size = int(1.1 * 2 * total / (first_tau + second_tau)) + 64  # 10 % over the mean count
    while True:
        dwells = generator.standard_exponential(size)
        dwells[0::2] *= first_tau
        dwells[1::2] *= second_tau
        ends = np.cumsum(dwells)
        if ends[-1] >= total:
            break
        generator.bit_generator.state = state
        size *= 2
    n = int(np.searchsorted(ends, total)) + 1
    generator.bit_generator.state = state
    generator.standard_exponential(n)
    return dwells[:n]


def check_sampling(duration: float, bin_width: float, photon_noise: str | None) -> None:
    """Raise ValueError on arguments generate_trace cannot simulate (NaN included)."""
    if not (0 < duration < np.inf and 0 < bin_width < np.inf):
        raise ValueError("duration and bin_width must be positive and finite")
    if duration < bin_width:
        raise ValueError("duration must cover at least one bin")
    if photon_noise not in (None, "poisson"):
        raise ValueError("photon_noise must be None or 'poisson'")


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

    The dwells come from one bulk draw (_draw_dwells).  Each on-dwell adds
    its overlap with its first and last bin, in dwell order, and the bins
    between lie wholly inside it.  The result, and the state a passed
    Generator is left in, are bit for bit those of drawing and binning one
    dwell at a time.

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
    check_sampling(duration, bin_width, photon_noise)
    generator, seed = _as_rng(rng)
    n_bins = int(round(duration / bin_width))
    total = n_bins * bin_width

    p_on = model.tau_on / (model.tau_on + model.tau_off)
    on = bool(generator.random() < p_on)
    taus = (model.tau_on, model.tau_off) if on else (model.tau_off, model.tau_on)
    ends = np.cumsum(_draw_dwells(generator, *taus, total))

    # the on-dwells [a, b), cut at the end of the trace, and their first
    # (i0) and last (i1) bins
    first = 0 if on else 1
    a = np.concatenate(([0.0], ends[:-1]))[first::2]
    b = np.minimum(ends[first::2], total)
    i0 = np.minimum((a / bin_width).astype(np.int64), n_bins - 1)
    i1 = np.minimum(np.ceil(b / bin_width).astype(np.int64) - 1, n_bins - 1)
    within = i1 <= i0  # the dwell lies inside bin i0

    # one n_bins buffer: on-time per bin, then on-fraction, expected count
    # and counts.  Edge overlaps go in dwell order, bin i0 before bin i1;
    # a dwell within one bin adds b - a, and 0.0 in place of its i1 term.
    counts = np.zeros(n_bins)
    np.add.at(
        counts,
        np.column_stack((i0, np.where(within, i0, i1))).ravel(),
        np.column_stack((
            np.where(within, b - a, (i0 + 1) * bin_width - a),
            np.where(within, 0.0, b - i1 * bin_width),
        )).ravel(),
    )
    # a bin strictly between i0 and i1 lies wholly inside one on-dwell and
    # no other dwell reaches it, so it holds 0.0 + bin_width
    spans = i1 > i0 + 1
    step = np.zeros(n_bins, dtype=np.int8)
    step[i0[spans] + 1] = 1
    step[i1[spans]] = -1
    counts[np.cumsum(step, dtype=np.int8).astype(bool)] = bin_width

    counts /= bin_width
    np.clip(counts, 0.0, 1.0, out=counts)
    hidden_states = counts > 0.5
    lo, hi = DEFAULT_MEAN_OFF_COUNTS, DEFAULT_MEAN_ON_COUNTS
    counts *= hi - lo
    counts += lo
    if photon_noise == "poisson":
        counts[:] = generator.poisson(counts)

    return BlinkTrace(
        bin_width=bin_width,
        counts=counts,
        truth=(model.tau_on, model.tau_off),
        seed=seed,
        hidden_states=hidden_states,
    )


# Rows formatted and written per call.  A few thousand keeps the buffers
# small: in the trace-files benchmark, 65536-row chunks raised peak RSS
# from 50 to 56 MB, and so did one %-format over a 2048-row chunk (through
# its growing output buffer, under glibc 2.36), which was 10-20 % faster
# than the str.join of per-row f-strings used here.
_CHUNK_ROWS = 2048
_EXACT_INT = 2.0**53  # below this, float64 -> int64 is exact


def _count_cells(part: np.ndarray) -> list:
    """The count cells of one chunk, as ints or as the strings to write.

    A chunk whose counts are all integral and below 2**53 in magnitude
    converts to int64 exactly, and an int formats as repr(int(c)).  Any
    other chunk keeps the per-count rule, so 1e300 still prints as its
    301-digit integer and 2**53 as its own digits.
    """
    if (np.abs(part) < _EXACT_INT).all() and (part == np.trunc(part)).all():
        return part.astype(np.int64).tolist()
    return [repr(int(c)) if c.is_integer() else repr(c) for c in part.tolist()]


def write_trace(trace: BlinkTrace, path) -> None:
    """Write a trace as CSV (t_s,counts) plus a JSON metadata sidecar.

    The CSV is the header "t_s,counts" and one line "<t>,<count>\n" per
    bin i.  <t> is repr(i * bin_width).  <count> is repr(int(c)) for an
    integral count c (so -0.0 prints as 0) and repr(c) for any other.  The
    sidecar sits at the path with suffix .json, so a path ending in .json
    raises ValueError before anything is written.

    The rows go out _CHUNK_ROWS at a time, one write per chunk, with the
    bytes of a loop that formats one row at a time.  int64 to float64 is
    exact below 2**53, so np.arange(...) * bin_width is the same single
    IEEE product as i * bin_width, and .tolist() hands repr Python floats,
    never np.float64(...).  The counts follow _count_cells.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if sidecar == path:
        raise ValueError(f"trace path {path} ends in .json, where its sidecar goes")
    bw = trace.bin_width
    with path.open("w") as fh:
        fh.write("t_s,counts\n")
        for start in range(0, trace.counts.size, _CHUNK_ROWS):
            part = trace.counts[start : start + _CHUNK_ROWS]
            times = (np.arange(start, start + part.size) * bw).tolist()
            fh.write("".join([f"{t!r},{c}\n" for t, c in zip(times, _count_cells(part))]))
    meta = {
        "bin_width_s": trace.bin_width,
        "mean_on_counts": trace.mean_on_counts,
        "mean_off_counts": trace.mean_off_counts,
        "tau_on_s": trace.truth[0] if trace.truth else None,
        "tau_off_s": trace.truth[1] if trace.truth else None,
        "seed": trace.seed,
    }
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")


def _read_sidecar(sidecar: Path) -> dict:
    """Load a trace's JSON sidecar; the errors below name the file.

    bin_width_s must hold a positive finite number, the other numeric keys a
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
    if not 0 < width < np.inf:  # also NaN and Infinity, which json.loads accepts
        raise ValueError(
            f"sidecar {sidecar}: bin_width_s must be positive and finite, got {width}"
        )
    return meta


def _bulk_counts(path: Path, rows: int) -> np.ndarray | None:
    """The counts column below the header in one np.loadtxt call, or None if refused.

    rows is the number of commas in the data.  loadtxt ignores fields
    after the one it reads, so a count of one comma per row stands in for
    the field check.  Data with no comma holds no valid row; it is left to
    _scan_rows, where loadtxt would only warn of empty input.
    """
    if rows == 0:
        return None
    try:
        counts = np.loadtxt(path, delimiter=",", usecols=1, comments=None, ndmin=1, skiprows=1)
    except ValueError:
        return None
    return counts if counts.size == rows else None


def _scan_rows(path: Path) -> list[float]:
    """Parse the data rows one at a time, as float() reads each count.

    Blank lines are skipped.  A row that is not two fields with a count
    that float() reads, or whose count is not finite, raises, naming its
    line.
    """
    counts = []
    with path.open() as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                _, text = line.split(",")
                count = float(text)
            except ValueError as exc:
                raise ValueError(f"malformed trace row at line {lineno} of {path}") from exc
            if not np.isfinite(count):
                raise ValueError(f"non-finite count at line {lineno} of {path}")
            counts.append(count)
    return counts


def _edge_rows(body: str) -> list[tuple[int, str]]:
    """Line number and t_s text of the first and the last data row.

    body is the file after its header line; blank lines are skipped, as
    _scan_rows skips them.
    """
    first = len(body) - len(body.lstrip())
    last = body.rfind("\n", 0, len(body.rstrip())) + 1
    rows = []
    for start in (first, last):
        end = body.find("\n", start)
        line = body[start : end if end >= 0 else None]
        rows.append((2 + body.count("\n", 0, start), line.strip().split(",")[0]))
    return rows


def read_trace(path) -> BlinkTrace:
    """Read a trace written by write_trace (sidecar JSON required).

    Counts must be finite, and the first and last t_s must equal row index
    x bin_width_s from the sidecar, so gapped files and mismatched sidecars
    are rejected.  Only those two t_s values are parsed.  Errors name the
    line of the file, or the sidecar (see _read_sidecar).

    The counts are parsed in one np.loadtxt call.  Only a file that call or
    its field check refuses, or that holds a non-finite count, is scanned
    row by row (_scan_rows): the scan names the line at fault, or reads the
    rows as float() does where loadtxt is stricter (whitespace-only lines,
    digit separators).  A non-finite count is thus refused before the
    sidecar is read.
    """
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "t_s,counts":
            raise ValueError(f"unexpected trace header {header!r} in {path}")
        body = fh.read()
    counts = _bulk_counts(path, body.count(","))
    if counts is None or not np.isfinite(counts).all():
        counts = _scan_rows(path)
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
    # BlinkTrace refuses an empty trace, so body holds a first and a last row
    for index, (lineno, text) in zip((0, len(trace) - 1), _edge_rows(body)):
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
