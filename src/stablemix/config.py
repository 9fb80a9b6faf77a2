"""The run-config format: one key table and one reader.

``COMMANDS``, ``LAWS``, ``PROCESSES`` and ``MATRIX`` map every key of each
command, law tag, process variant and matrix object to its converter, or
to a :class:`Default` when it is optional.  :func:`read` rejects a
non-object, an unknown or missing key and a value its converter refuses
(``TypeError`` or ``ValueError``), each as a :class:`ConfigError` naming
the key; a converter's own input error, such as that of
:func:`matalg.as_floats`, keeps its type and gains the key.  No converter
reads a JSON boolean as a number.
"""

from __future__ import annotations

import numbers
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import laws, matalg, processes, verify
from .ecf import DEFAULT_DELTA
from .errors import ConfigError, InvalidInputError, StablemixError, integral
from .matalg import as_floats

SCHEMA_VERSION = 1


class Default(NamedTuple):
    """An optional key, ``convert(value)`` when absent (None if ``value`` is)."""

    convert: Callable
    value: object


class Schema(NamedTuple):
    """An object's keys, and the constructor their values feed in key order."""

    keys: dict
    build: Callable | None = None


def read(obj, schema, owner: str, tag: str | None = None):
    """``obj`` read through ``schema``, or with ``tag`` through
    ``schema[obj[tag]]``: the built object, or a dict of converted values
    for a schema without ``build``.  ``owner`` names it in errors."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{owner} must be a JSON object, got {obj!r:.60}")
    if tag is not None:
        name = _field(obj, tag, choice(*schema), owner)
        owner, schema = f"{owner} {name!r}", schema[name]
    unknown = sorted(str(key) for key in obj if key != tag and key not in schema.keys)
    if unknown:
        raise ConfigError(f"unknown keys for {owner}: {', '.join(unknown)}")
    values = [_field(obj, key, spec, owner) for key, spec in schema.keys.items()]
    if schema.build is None:
        return dict(zip(schema.keys, values))
    return schema.build(*values)


def _field(obj: dict, key: str, spec, owner: str):
    if key in obj:
        value = obj[key]
    elif not isinstance(spec, Default):
        raise ConfigError(f"{owner} requires key {key!r}")
    elif spec.value is None:
        return None
    else:
        value = spec.value
    try:
        return (spec.convert if isinstance(spec, Default) else spec)(value)
    except StablemixError as exc:  # from a nested object or a checking converter
        raise type(exc)(f"{owner} key {key!r}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{owner} key {key!r} is malformed: {value!r:.60} ({key} {exc})"
        ) from None


def real(value) -> float:
    """A number as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("must be a number")
    return float(value)


def listof(convert: Callable) -> Callable:
    """Converter of a list, each item through ``convert``."""

    def convert_list(value):
        if not isinstance(value, list):
            raise TypeError("must be a list")
        return [convert(item) for item in value]

    return convert_list


def choice(*names, **values) -> Callable:
    """One of ``names``, read as itself, or a key of ``values``, read as its value."""
    table = {**{name: name for name in names}, **values}

    def convert(value):
        named = isinstance(value, (str, int)) and not isinstance(value, bool)
        if not named or value not in table:
            raise ValueError(f"must be one of {', '.join(map(repr, table))}")
        return table[value]

    return convert


def boolean(value) -> bool:
    """``true`` or ``false``, never a number."""
    if not isinstance(value, bool):
        raise TypeError("must be true or false")
    return value


def _bounded(convert: Callable, test: Callable, text: str) -> Callable:
    def convert_bounded(value):
        out = convert(value)
        if not test(out):
            raise ValueError(f"must be {text}")
        return out

    return convert_bounded


POSITIVE_INT = _bounded(integral, lambda n: n > 0, "positive")
NONNEGATIVE_INT = _bounded(integral, lambda n: n >= 0, "nonnegative")
SEED = _bounded(integral, lambda n: 0 <= n < 2**64, "in [0, 2**64)")
POSITIVE_REAL = _bounded(real, lambda x: x > 0.0, "positive")
NONNEGATIVE_REAL = _bounded(real, lambda x: x >= 0.0, "nonnegative")
UNIT_INTERVAL = _bounded(real, lambda x: 0.0 < x < 1.0, "in the open interval (0, 1)")


def _matrix(dim: int, rows: np.ndarray) -> np.ndarray:
    arr = matalg.as_square(rows, "rows")
    if arr.shape[0] != dim:
        raise InvalidInputError(
            f"declared dim {dim} does not match rows shape {arr.shape}"
        )
    return arr


MATRIX = Schema({"dim": POSITIVE_INT, "rows": as_floats}, _matrix)


def matrix_from_json(obj) -> np.ndarray:
    """Matrix from its JSON object ``{"dim": d, "rows": [[...], ...]}``."""
    return read(obj, MATRIX, "matrix")


LAWS = {
    "normal": Schema({"cov": as_floats}, laws.NormalLaw),
    "cauchy": Schema({"dim": POSITIVE_INT}, laws.CauchyLaw),
    "stable": Schema(
        {"alpha": real, "atoms": as_floats, "weights": as_floats},
        lambda alpha, *measure: laws.StableLaw(alpha, laws.SpectralMeasure(*measure)),
    ),
    "empirical": Schema({"pool": as_floats}, laws.EmpiricalLaw),
    "log-cauchy-ray": Schema({"dim": Default(POSITIVE_INT, 1)}, laws.LogCauchyRay),
}


def law_from_json(obj, allow_diagnostic: bool = False) -> laws.IncrementLaw:
    """Law from its JSON object, tagged by ``law``.

    A diagnostic law, one without a finite log-moment, is rejected unless
    allowed, so limit-law consumers cannot receive it by accident.
    """
    law = read(obj, LAWS, "law", tag="law")
    if not law.log_moment_finite and not allow_diagnostic:
        raise ConfigError(f"{obj['law']} is a diagnostic sampler, not a limit law")
    return law


_SPEC = {"P": matrix_from_json, "noise": law_from_json}
PROCESSES = {
    "synthetic-canonical": Schema(_SPEC, processes.SyntheticCanonical),
    "random-scaled": Schema(
        {
            **_SPEC, "lam_values": as_floats, "lam_probs": as_floats,
            "event_values": Default(as_floats, None), "perturbation": Default(real, 0.0),
        },
        processes.RandomScaled,
    ),
    "discrete-factor": Schema(
        {**_SPEC, "factors": listof(matrix_from_json), "factor_probs": as_floats},
        processes.DiscreteFactor,
    ),
    "explosive-var": Schema(
        {"A": matrix_from_json, "noise": law_from_json}, processes.ExplosiveVar
    ),
}


def process_from_json(obj) -> processes.ProcessSpec:
    """Process spec from its JSON object, tagged by ``variant``."""
    return read(obj, PROCESSES, "process", tag="variant")


_COMMON = {
    "schema_version": choice(SCHEMA_VERSION),
    "seed": SEED,
    "workers": Default(POSITIVE_INT, 1),
}
_ECF_CHECK = {
    "delta": Default(UNIT_INTERVAL, DEFAULT_DELTA),
    "factor": Default(POSITIVE_REAL, 3.0),
}
_ENSEMBLE = {
    "process": process_from_json,
    "checkpoints": processes.as_checkpoints,
    "n_paths": POSITIVE_INT,
}
_VERDICT = {
    **_COMMON, **_ENSEMBLE, "r": Default(NONNEGATIVE_INT, None), **_ECF_CHECK,
    "family": Default(choice(default=None, omega=verify.EventFamily()), "default"),
}
COMMANDS = {
    "sample-law": Schema(
        {**_COMMON, "law": law_from_json, "count": POSITIVE_INT, **_ECF_CHECK}
    ),
    "series": Schema({
        **_COMMON, "P": matrix_from_json, "law": law_from_json,
        "count": POSITIVE_INT, "tol": Default(POSITIVE_REAL, None),
        "r": Default(NONNEGATIVE_INT, None), **_ECF_CHECK,
    }),
    "lemma": Schema({
        **_COMMON, "P": matrix_from_json,
        "law": partial(law_from_json, allow_diagnostic=True),
        "J": POSITIVE_INT, "n_paths": POSITIVE_INT,
        "allow_diagnostic": Default(boolean, False),
    }),
    "simulate": Schema(
        {**_COMMON, **_ENSEMBLE, "trajectories": Default(NONNEGATIVE_INT, 0)}
    ),
    "verify-mixing": Schema(
        {**_VERDICT, "statistic_of": Default(choice("bu", "qu"), "bu")}
    ),
    "verify-stable": Schema(_VERDICT),
    "conditions": Schema({
        **_COMMON, **_ENSEMBLE,
        "checkpoints": _bounded(
            processes.as_checkpoints, lambda cps: cps[0] > max(verify.CONDITION_LAGS),
            f"above the largest condition (iii) lag, {max(verify.CONDITION_LAGS)}",
        ),
        "tol": Default(NONNEGATIVE_REAL, verify.DEFAULT_TOLERANCE),
    }),
}

