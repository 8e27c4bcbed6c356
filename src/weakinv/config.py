"""The JSON run config: one table of fields per object, one reader per kind
of value.

A run config (``--config``) is one object with the keys of ``RUN``: a
``scenario`` (a built-in name, its builder's keyword arguments in
``scenario_args`` as ``SCENARIO_ARGS`` lists them, or an inline model
``{"dim": n, "hamiltonian": <schedule>, "channels": [{"op": <schedule>,
"alpha": <schedule>}]}``), a ``grid`` (``t_start``, ``t_end``, ``n_steps``),
``method``, ``rho0``, ``invariant_seed`` (``"sz"``, ``"hamiltonian"``,
``"identity"`` or a matrix), ``lambda_final``, ``output_dir``, ``seed`` and
the bounds. A schedule carries a ``kind`` of ``SCHEDULES``: constant (a
number or a matrix), sinusoidal (offset + amplitude sin(omega t + phase),
scalars only), tabulated (linear between knots, no extrapolation) or scaled
(a scalar schedule times a fixed matrix). A matrix is the row-major list of
``[re, im]`` pairs; its dimension is the square root of its length.

``read`` checks one object against its table: a key the table does not hold
is refused, naming its field (``scenario.channels[0].alpha.valu``); every key
present goes through its reader whichever command runs, so a malformed
``lambda_final`` fails ``simulate`` too; a missing key takes its default. A
number is a finite JSON number: no bool, no string, no integer beyond float
range. Every error is a :class:`ConfigError` naming its field. The rest is
checked where it is used: a builder's own ranges (a negative rate, knots out
of order) when it builds, and the Hermiticity, dimension, trace and
positivity of rho0, the invariant seed and ``lambda_final`` as each flow is
made, so that rho0 fails first and every input before any output is made.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from . import model
from .dynamics import METHODS
from .errors import ConfigError

REQUIRED = object()  # the default of a key that must be present


def read(obj, table: dict, field: str) -> dict:
    """The fields of the JSON object ``obj``, read by ``table`` (key →
    (reader, default)) in the table's order; a missing key whose default is
    None is left out. ``field`` names ``obj`` in errors ("" at the top level)."""
    _object(obj, field)
    prefix = f"{field}." if field else ""
    extra = sorted(set(obj) - set(table))
    if extra:
        raise ConfigError(prefix + extra[0], f"is not a config key; expected one of {list(table)}")
    fields = {}
    for key, (reader, default) in table.items():
        if key in obj:
            fields[key] = reader(obj[key], prefix + key)
        elif default is REQUIRED:
            raise ConfigError(prefix + key, "is required")
        elif default is not None:
            fields[key] = default
    return fields


def number(value, field: str, *, positive: bool = False) -> float:
    """``value`` as a float if it is a finite (and, with ``positive``, a
    positive) JSON number; a bool, a string or an integer beyond float range
    is not one."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (numeric and abs(value) <= sys.float_info.max and (value > 0 or not positive)):
        kind = "finite positive number" if positive else "finite number"
        raise ConfigError(field, f"must be a {kind}, got {_show(value)}")
    return float(value)


def _show(value) -> str:
    """``repr(value)`` where it takes at most 60 characters, else the value
    by its kind and size, as a long repr would fill the error line. An integer
    beyond float range always goes by its size: beyond
    ``sys.get_int_max_str_digits()`` digits ``repr`` refuses it (and the
    JSON reader refuses one in a list or an object)."""
    if not (isinstance(value, int) and abs(value) > sys.float_info.max):
        text = repr(value)
        if len(text) <= 60:
            return text
    if isinstance(value, int):
        a = abs(value)
        k = int(math.log10(a))  # within one of the digit count less one
        return f"an integer of {k + (a >= 10**k) + (a >= 10**(k + 1))} digits"
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    return f"{'an object' if isinstance(value, dict) else 'a list'} of {len(value)} entries"


def integer(value, field: str, *, minimum: int = 0) -> int:
    """``value`` if it is an integer number no less than ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"must be an integer, got {_show(value)}")
    number(value, field)
    if value < minimum:
        raise ConfigError(field, f"must be ≥ {minimum}")
    return value


def text(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(field, f"must be a string, got {_show(value)}")
    return value


def one_of(*names):
    """The reader of a string that is one of ``names``."""
    def name(value, field):
        if not (isinstance(value, str) and value in names):
            raise ConfigError(field, f"unknown name {_show(value)}; expected one of {list(names)}")
        return value
    return name


def list_of(item):
    """The reader of a list, each entry read by ``item`` as ``field[i]``."""
    def items(value, field):
        if not isinstance(value, list):
            raise ConfigError(field, f"must be a list, got {_show(value)}")
        return [item(v, f"{field}[{i}]") for i, v in enumerate(value)]
    return items


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(field, f"must be an object, got {_show(value)}")
    return value


def _complex(value, field: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(field, f"must be an [re, im] pair, got {_show(value)}")
    return complex(number(value[0], f"{field}[0]"), number(value[1], f"{field}[1]"))


def matrix(value, field: str) -> np.ndarray:
    """The matrix literal: a row-major list of n² ``[re, im]`` pairs."""
    flat = np.array(list_of(_complex)(value, field), dtype=complex)
    dim = math.isqrt(flat.size)
    if dim < 1 or dim * dim != flat.size:
        raise ConfigError(field, f"has {flat.size} entries, not a perfect square")
    return flat.reshape(dim, dim)


def _number_or_matrix(value, field: str):
    return matrix(value, field) if isinstance(value, list) else number(value, field)


def schedule(value, field: str) -> model.Schedule:
    """A schedule object, built by the factory of its ``kind``."""
    fields = dict(_object(value, field))
    factory, table = SCHEDULES[_kind(fields.pop("kind", None), f"{field}.kind")]
    args = read(fields, table, field).values()
    try:
        return factory(*args, name=field)
    except ValueError as e:
        raise ConfigError(field, str(e)) from None


# kind → (factory, its fields in the factory's parameter order)
SCHEDULES = {
    "constant": (model.constant, {"value": (_number_or_matrix, REQUIRED)}),
    "sinusoidal": (model.sinusoidal, {"offset": (number, REQUIRED),
                                      "amplitude": (number, REQUIRED),
                                      "omega": (number, REQUIRED), "phase": (number, 0.0)}),
    "tabulated": (model.tabulated, {"times": (list_of(number), REQUIRED),
                                    "values": (list_of(_number_or_matrix), REQUIRED)}),
    "scaled": (model.scaled, {"scalar": (schedule, REQUIRED), "matrix": (matrix, REQUIRED)}),
}
_kind = one_of(*SCHEDULES)

CHANNEL = {"op": (schedule, REQUIRED), "alpha": (schedule, REQUIRED)}
# in LindbladModel's parameter order
MODEL = {
    "dim": (partial(integer, minimum=1), REQUIRED),
    "hamiltonian": (schedule, REQUIRED),
    "channels": (list_of(lambda v, f: tuple(read(v, CHANNEL, f).values())), ()),
}


def model_from_config(value, field: str = "model") -> model.LindbladModel:
    """The inline model object ``value`` as a :class:`LindbladModel`."""
    args = read(value, MODEL, field).values()
    try:
        return model.LindbladModel(*args)
    except ValueError as e:
        raise ConfigError(field, str(e)) from None


_seed_name = one_of("sz", "hamiltonian", "identity")
GRID = {
    "t_start": (number, REQUIRED),
    "t_end": (number, REQUIRED),
    "n_steps": (partial(integer, minimum=1), None),  # or --steps
}
RUN = {
    # a built-in scenario's name, or an inline model built
    "scenario": (lambda v, f: v if isinstance(v, str) else model_from_config(v, f), None),
    "scenario_args": (_object, {}),  # read by build_scenario, by SCENARIO_ARGS
    "grid": (lambda v, f: read(v, GRID, f), None),
    "method": (one_of(*METHODS), "rk4"),
    "rho0": (matrix, None),
    "invariant_seed": (lambda v, f: _seed_name(v, f) if isinstance(v, str) else matrix(v, f),
                       None),
    "lambda_final": (matrix, None),
    "output_dir": (text, "."),
    "seed": (integer, 0),
    "drift_bound": (partial(number, positive=True), 1e-6),
    "residual_bound": (partial(number, positive=True), 1e-4),
}
SCENARIO_ARGS = {
    "amp-damp": {"omega": (number, None), "gamma": (number, None)},
    "dephase": {"omega": (number, None), "gamma": (number, None)},
    "damped-ho": {"n_trunc": (integer, None), "omega_schedule": (number, None),
                  "gamma_schedule": (number, None)},
}
