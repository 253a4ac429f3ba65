"""Exception types, the settings check, and the one seed rule and its list form."""

import dataclasses
import datetime as dt
import numbers

# The values a settings field of each annotation takes; a bool is no number.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "dt.date": dt.date}


class DataError(ValueError):
    """Malformed or inconsistent input data (CSV layout, checkpoints, ranges)."""


class NumericError(ArithmeticError):
    """Non-finite values encountered where finite arithmetic is required."""


class UsageError(Exception):
    """Invalid command-line invocation or configuration."""


def check_field_types(settings) -> None:
    """Raise TypeError for a field of a settings dataclass, annotated ``int``,
    ``float``, ``dt.date`` or ``tuple[int, ...]``, that holds something else.

    A ``float`` field's value is stored as a float, so equal settings print,
    compare and hash alike; an int too large for a float raises OverflowError.
    """
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        kind, items = f.type, (value,)
        if kind == "tuple[int, ...]":
            kind, items = "int", value
        for item in items if kind in _FIELD_TYPES else ():
            if isinstance(item, bool) or not isinstance(item, _FIELD_TYPES[kind]):
                raise TypeError(
                    f"{type(settings).__name__}.{f.name} must be of type {f.type}, "
                    f"got {value!r}"
                )
        if kind == "float":
            object.__setattr__(settings, f.name, float(value))


def check_seed(seed) -> int:
    """The seed, checked before any draw: DataError unless a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DataError(f"seed {seed!r} must be nonnegative and an integer")
    return seed


def check_seeds(seeds) -> tuple:
    """The seeds as a tuple: one or more, each passing ``check_seed``, none repeated."""
    seeds = tuple(map(check_seed, seeds))
    if not seeds:
        raise DataError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise DataError(f"seeds {seeds} repeat; each must be its own draw")
    return seeds
