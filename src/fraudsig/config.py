"""Experiment configuration, deterministic seed derivation, the error kinds
the CLI maps to exit codes, and the one way every pipeline artifact is
committed (whole, by a rename) and read (a malformed one is a DataError).

A single YAML file drives every pipeline stage.  All randomness flows from
one global seed through numpy's SeedSequence spawn-key mechanism, so each
(stage, cell, repetition, chain) gets an independent, reproducible stream.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "SplitPlan",
    "TrainConfig",
    "HeadConfig",
    "ExperimentConfig",
    "ConfigError",
    "DataError",
    "Kind",
    "admit",
    "derive_rng",
    "derive_seed_sequence",
    "cache_dir",
    "committing",
    "naming",
    "read_json",
    "read_at",
    "parsing",
]

# Stage identifiers for seed spawn keys.
STAGE_SPLIT = 1
STAGE_TRAIN = 2
STAGE_PREPARE = 4


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(RuntimeError):
    """Missing, unreadable or inconsistent pipeline inputs."""


# Numbers the temporary files of one process, so no two writers share one.
_writers = itertools.count()


@contextmanager
def committing(path: str | Path):
    """Yield a temporary file of this writer's own, `<path>.<pid>-<n>.tmp`,
    to write the artifact `path` into, and rename it over `path` once
    written: readers see the old file or the new one whole, and the last
    writer to commit wins.  A body that raises leaves `path` as it was and
    removes its temporary file; only a killed writer leaves one behind.  A
    failed write names `path` (see `naming`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_writers)}.tmp")
    try:
        with naming(path):
            yield tmp
            tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def naming(path: str | Path):
    """Give an OSError raised in the block that names no file `path` as its
    filename, so its message says which file: a write or close that fails
    on an open file, for a full disk say, names none."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


@contextmanager
def parsing(path: str | Path):
    """Report a malformed entry of the artifact `path` as a DataError naming it."""
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is unreadable ({exc!r})") from exc


def read_json(path: str | Path, keys=()) -> dict:
    """The JSON object in the artifact `path`; a file that does not parse,
    holds no object or lacks one of `keys` is a DataError naming it."""
    with parsing(path):
        obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise DataError(f"{path} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}")
    return obj


def read_at(fh, buf, offset: int, cut_short) -> None:
    """Fill the writable buffer `buf` with the bytes of the open binary file
    `fh` from byte `offset` on, by positioned reads: the file position does
    not move, so threads may share `fh`.  A file that ends first is a
    DataError with the message `cut_short(n)`, n the bytes it held there."""
    view = memoryview(buf).cast("B")
    fd, got = fh.fileno(), 0
    while got < view.nbytes:
        n = os.preadv(fd, [view[got:]], offset + got)
        if n == 0:
            raise DataError(cut_short(got))
        got += n


def derive_seed_sequence(global_seed: int, *key: int) -> np.random.SeedSequence:
    """Child seed sequence for a fixed integer key path."""
    return np.random.SeedSequence(global_seed, spawn_key=tuple(int(k) for k in key))

def derive_rng(global_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(global_seed, *key)))


@dataclass(frozen=True)
class Kind:
    """What an entry read from outside may hold: an int or a float (no bool)
    inside `interval`, "[lo, hi)" and so on, whose inf ends are open (so NaN
    and inf are refused), or a non-empty str; `many` a list; `null` also None."""

    type: type
    interval: str = ""
    many: bool = False
    null: bool = False


def admit(name: str, value, kind: Kind):
    """`value`, if it is of `kind`; else a ValueError naming the entry `name`."""
    if kind.null and value is None:
        return value
    if kind.many and not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    if kind.type is str:
        noun, ok = "a non-empty string", lambda v: isinstance(v, str) and v != ""
    else:
        lo, hi = map(float, kind.interval[1:-1].split(","))
        lo_open, hi_open = kind.interval[0] == "(", kind.interval[-1] == ")"
        types = (int, np.integer) if kind.type is int else (int, float, np.integer, np.floating)
        noun = f"{'an integer' if kind.type is int else 'a number'} in {kind.interval}"

        def ok(v):
            return (
                isinstance(v, types) and not isinstance(v, bool)
                and (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
            )
    bad = [v for v in (value if kind.many else [value]) if not ok(v)]
    if bad:
        verb = "hold" if kind.many else "be"
        raise ValueError(f"{name} must {verb} {noun}{' or null' * kind.null}, got {bad[0]!r}")
    return value


def _setting(default, kind: type, interval: str = "", *, null: bool = False):
    """A setting of `kind` inside `interval` (see Kind); a tuple default makes
    it a list of such values, and no default a required setting."""
    admits = Kind(kind, interval, isinstance(default, tuple), null)
    return field(default=default, metadata={"admits": admits})


def _check_settings(section) -> None:
    """Every declared setting of `section` holds a value its Kind admits."""
    for f in dataclasses.fields(section):
        if "admits" in f.metadata:
            try:
                admit(f.name, getattr(section, f.name), f.metadata["admits"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SplitPlan:
    """Protocol for the train/test split and the labeled-subset draws."""

    test_fraction: float = _setting(0.1, float, "(0, 1)")
    labeled_sizes: tuple[int, ...] = _setting((2595, 3893, 5190, 12973, 25946), int, "[1, inf)")
    repetitions: int = _setting(5, int, "[1, inf)")

    def scaled_sizes(self, fraction: float) -> tuple[int, ...]:
        """Labeled sizes scaled proportionally for subsampled runs."""
        return tuple(max(1, round(n * fraction)) for n in self.labeled_sizes)


@dataclass(frozen=True)
class TrainConfig:
    """Adversarial training hyperparameters."""

    lr_g: float = _setting(1e-4, float, "[0, inf)")
    lr_d: float = _setting(5e-3, float, "[0, inf)")
    batch: int = _setting(2048, int, "[1, inf)")
    lam: float = _setting(10.0, float, "[0, inf)")
    gp_weight: float = _setting(10.0, float, "[0, inf)")
    n_critic: int = _setting(5, int, "[1, inf)")
    epochs: int = _setting(1000, int, "[1, inf)")
    chains_g: int = _setting(4, int, "[1, inf)")
    chains_d: int = _setting(4, int, "[1, inf)")
    friction: float = _setting(0.1, float, "[0, inf)")
    burn_in: int | None = _setting(None, int, "[0, inf)", null=True)  # default: epochs // 2
    thinning: int = _setting(10, int, "[1, inf)")
    latent_dim: int = _setting(64, int, "[1, inf)")
    width: int = _setting(128, int, "[1, inf)")
    n_residual: int = _setting(2, int, "[0, inf)")
    head_widths: tuple[int, ...] = _setting((64, 32), int, "[1, inf)")
    # Epochs between checkpoint saves, and one at the end; 0 saves only at the
    # end.  100 bounds the work a crash loses to about 15 min at the defaults.
    checkpoint_every: int = _setting(100, int, "[0, inf)")

    def burn_in_epochs(self) -> int:
        return self.epochs // 2 if self.burn_in is None else self.burn_in

    def collects(self, epoch: int) -> bool:
        """Whether the member schedule keeps the discriminator chains at `epoch`."""
        burn_in = self.burn_in_epochs()
        return epoch >= burn_in and (epoch - burn_in) % self.thinning == 0

    def member_keys(self, through: int) -> list[tuple[int, int]]:
        """The (chain, epoch) of every member the schedule collects in epochs
        1..`through`, in collection order."""
        epochs = filter(self.collects, range(1, through + 1))
        return [(j, e) for e in epochs for j in range(self.chains_d)]

    def validate(self) -> None:
        _check_settings(self)
        burn_in = self.burn_in_epochs()
        # The first epoch >= 1 that `collects`; evaluate needs a member.
        first = burn_in if burn_in >= 1 else self.thinning
        if self.epochs < first:
            raise ConfigError(
                f"no posterior member is collected: the first is kept at epoch "
                f"{first} (burn_in {burn_in}, thinning {self.thinning}), after the "
                f"last epoch {self.epochs}"
            )


@dataclass(frozen=True)
class HeadConfig:
    """Alert-head and cost evaluation grid."""

    k_percents: tuple[float, ...] = _setting((0.1, 0.2, 0.5, 1.0), float, "(0, 100]")
    recall_levels: tuple[float, ...] = _setting((0.5, 0.6, 0.7, 0.8), float, "(0, 1]")
    alpha: float = _setting(0.02, float, "[0, inf)")
    tau: float = _setting(0.5, float, "[0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level configuration for the four pipeline stages."""

    dataset_path: str = _setting(dataclasses.MISSING, str)
    output_dir: str = _setting(dataclasses.MISSING, str)
    seed: int = _setting(0, int, "[0, inf)")
    sig_degree: int = _setting(4, int, "[1, inf)")
    min_prefix: int = _setting(5, int, "[2, inf)")
    split: SplitPlan = field(default_factory=SplitPlan)
    train: TrainConfig = field(default_factory=TrainConfig)
    heads: HeadConfig = field(default_factory=HeadConfig)
    cache: str | None = _setting(None, str, null=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            raw = dict(raw)
            for key, sub in (("split", SplitPlan), ("train", TrainConfig), ("heads", HeadConfig)):
                section = raw.get(key, {})
                if not isinstance(section, dict):
                    raise ConfigError(f"'{key}' must be a mapping, got {section!r}")
                section = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
                unknown = set(section) - {f.name for f in dataclasses.fields(sub)}
                if unknown:
                    raise ConfigError(f"unknown keys in '{key}': {sorted(unknown)}")
                raw[key] = sub(**section)
            unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_dict(raw)

    def validate(self) -> None:
        for section in (self, self.split, self.heads):
            _check_settings(section)
        sizes = self.split.labeled_sizes
        if not sizes:
            raise ConfigError("labeled_sizes must name at least one size")
        if len(set(sizes)) < len(sizes):
            raise ConfigError(f"labeled_sizes must not repeat a size, got {list(sizes)}")
        self.train.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def cache_dir(cfg: ExperimentConfig) -> Path:
    """Feature-cache directory: the config's `cache`, else a `cache/`
    directory under the output directory."""
    return Path(cfg.cache) if cfg.cache is not None else Path(cfg.output_dir) / "cache"
