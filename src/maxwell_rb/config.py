"""Run configuration: a flat key-value text format with a fixed schema.

Every knob has a default tuned for the desk-scale brick morph, so an
empty file is a valid configuration.  Unknown keys, duplicate keys, and
malformed values fail fast with the offending line number.

A '#' starts a comment at the start of a line or after whitespace, so
``K = 5  # modes`` sets K = 5 while ``output = runs#1`` names the
directory ``runs#1``.  A value cannot hold a '#' that follows a blank,
and the blanks around a value are dropped.

A validated config holds its keys' parsed values: ``validate`` sets each
field to what its text reads as and rejects a field its text cannot
give, so a config built by ``with_overrides`` from ints or numpy scalars
equals, and echoes the same bytes as, the one read from the same text.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError

_AUTO = "auto"
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError("expected a number, got %r" % text) from None
    if math.isnan(value):
        raise ConfigError("NaN is not a valid value")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % text) from None


def _parse_triple(parse_one, must):
    def run(text: str):
        parts = text.split()
        if len(parts) != 3:
            raise ConfigError("expected three whitespace-separated values, got %r" % text)
        return tuple(parse_one(p) for p in parts)

    run.must = must
    return run


def _parse_count_or_auto(text: str):
    if text == _AUTO:
        return _AUTO
    return _parse_int(text)


def _parse_choice(options):
    def run(text: str):
        if text not in options:
            raise ConfigError("expected one of %s, got %r" % ("|".join(options), text))
        return text

    run.must = "be one of " + "|".join(options)
    return run


def _parse_text(text: str) -> str:
    return text


# Each parser's `must` completes "<key> must ..." for a field that its
# key's text could not give.
_parse_float.must = "be a number"
_parse_int.must = "be an integer"
_parse_count_or_auto.must = "be an integer or auto"
_parse_text.must = "be text"


GAUGE_MODES = ("classical", "mixed")
MATCHERS = ("greedy", "hungarian")
_LENGTHS = _parse_triple(_parse_float, "hold three numbers")


def _key(parse, default):
    """A RunConfig field that is also a file key, read by parse."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """All experiment knobs.  Every field is a file key of the same name;
    the field's default is the key's default and its metadata["parse"]
    reads the key's value text."""

    dims0: tuple = _key(_LENGTHS, (1.0, 1.1, 1.2))
    dims1: tuple = _key(_LENGTHS, (1.0, 1.1, 0.6))
    resolution: tuple = _key(
        _parse_triple(_parse_int, "hold integer cell counts"), (6, 6, 6))
    K: int = _key(_parse_int, 5)
    # a cap: snapshot collection stops once a level adds no rank
    N_POD: int = _key(_parse_int, 20)
    N_train: int = _key(_parse_int, 50)
    N_init: object = _key(_parse_count_or_auto, _AUTO)
    N_max: int = _key(_parse_int, 60)
    tol: float = _key(_parse_float, 1e-6)
    shift_fraction: float = _key(_parse_float, 0.9)
    cut_fraction: float = _key(_parse_float, 0.1)
    gauge_mode: str = _key(_parse_choice(GAUGE_MODES), "mixed")
    threshold: float = _key(_parse_float, 0.9)
    initial_steps: int = _key(_parse_int, 16)
    max_depth: int = _key(_parse_int, 10)
    track_buffer: int = _key(_parse_int, 2)
    matching: str = _key(_parse_choice(MATCHERS), "greedy")
    eval_set_size: int = _key(_parse_int, 50)
    seed: int = _key(_parse_int, 1234)
    output: str = _key(_parse_text, "out")

    def validate(self) -> "RunConfig":
        """Return this config with each field set to what its text reads
        as (a numpy integer becomes an int, an int given for a number a
        float), or raise ConfigError naming the key of a field its text
        could not give or of a value out of range."""
        parsed = {name: _read_back(name, getattr(self, name))
                  for name in _PARSERS}
        for name in ("dims0", "dims1"):
            if not all(0.0 < d < math.inf for d in getattr(self, name)):
                raise ConfigError("%s must be positive finite lengths" % name)
        if any(r < 2 for r in self.resolution):
            raise ConfigError("resolution must be at least 2 cells per axis")
        check_tracking(self.K, self.threshold, self.initial_steps,
                       self.track_buffer, self.max_depth, self.matching)
        for name in ("N_POD", "N_train", "N_max"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1" % name)
        if self.N_max < self.K:
            raise ConfigError(
                "N_max=%d is below K=%d: the basis must hold every mode"
                % (self.N_max, self.K)
            )
        if self.N_init != _AUTO:
            if self.N_init < 1:
                raise ConfigError("N_init must be >= 1 or auto")
            if self.N_init > self.N_POD * self.K:
                raise ConfigError(
                    "N_init=%d exceeds the snapshot count N_POD*K=%d"
                    % (self.N_init, self.N_POD * self.K)
                )
            if self.N_init > self.N_max:
                raise ConfigError(
                    "N_init=%d exceeds N_max=%d" % (self.N_init, self.N_max)
                )
        if not (0.0 < self.tol):
            raise ConfigError("tol must be positive (inf disables enrichment)")
        if not (0.0 < self.shift_fraction < 1.0):
            raise ConfigError("shift_fraction must lie in (0, 1)")
        if not (0.0 < self.cut_fraction < 1.0):
            raise ConfigError("cut_fraction must lie in (0, 1)")
        if self.eval_set_size < 1:
            raise ConfigError("eval_set_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.output:
            raise ConfigError("output directory must be non-empty")
        return replace(self, **parsed)


# file key -> parser, in field order
_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def _read_back(name: str, value):
    """value as the text of key name reads it, or ConfigError when that
    text could not give value."""
    parse = _PARSERS[name]
    text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    try:
        parsed = parse(text)
        # an == that gives no one bool (an array's) raises here
        if bool(parsed == value):
            return parsed
    except (ConfigError, ValueError):
        pass
    raise ConfigError("%s must %s, got %r" % (name, parse.must, value))


def check_tracking(K, threshold, initial_steps, track_buffer, max_depth,
                   matching) -> None:
    """Raise ConfigError, naming the key, for a tracking setting that its
    key's text could not give or that lies out of range.

    The one check of these keys: RunConfig.validate makes it, and so do
    tracking.track_reduced and track_full before any solve or lift.
    """
    _read_back("threshold", threshold)
    _read_back("matching", matching)
    for name, value, least in (("K", K, 1), ("initial_steps", initial_steps, 2),
                               ("track_buffer", track_buffer, 0),
                               ("max_depth", max_depth, 0)):
        _read_back(name, value)
        if value < least:
            raise ConfigError("%s must be >= %d" % (name, least))
    if not (0.0 <= threshold < 1.0):
        raise ConfigError("threshold must lie in [0, 1)")


def default_config() -> RunConfig:
    return RunConfig().validate()


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse flat key = value lines; '#' at a line's start or after
    whitespace starts a comment."""
    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                "%s:%d: expected 'key = value', got %r" % (source, lineno, raw.strip())
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError("%s:%d: unknown key %r" % (source, lineno, key))
        if key in values:
            raise ConfigError(
                "%s:%d: duplicate key %r (first set on line %d)"
                % (source, lineno, key, seen_lines[key])
            )
        try:
            values[key] = _PARSERS[key](value)
        except ConfigError as exc:
            raise ConfigError("%s:%d: key %r: %s" % (source, lineno, key, exc)) from None
        seen_lines[key] = lineno
    try:
        return RunConfig(**values).validate()
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (source, exc)) from None


def load_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    return parse_config_text(text, source=str(path))


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready echo of the configuration (field order, tuples as lists)."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(cfg).items()}


def with_overrides(cfg: RunConfig, **updates) -> RunConfig:
    """Replace fields (CLI flags over file values) and re-validate."""
    for name in updates:
        if name not in _PARSERS:
            raise ConfigError("unknown configuration field %r" % name)
    return replace(cfg, **updates).validate()
