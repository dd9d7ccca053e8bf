"""Exception types shared across the package, and the configs' field-type check."""

import sys
from dataclasses import fields
from numbers import Integral, Real


class ContractViolationError(ValueError):
    """An argument breaks a documented precondition."""


class ConfigurationError(ValueError):
    """A configuration file or option set is invalid."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to produce a usable result."""


class SingularMatrixError(NumericalFailureError):
    """A matrix that must be invertible is numerically singular or indefinite."""


# per field annotation: the values a config field takes (never a bool, NaN
# or infinity), its conversion, and what the error message asks for
_FIELD_TYPES = {
    "float": (Real, float, "a finite number"),
    "int": (Integral, int, "an integer"),
    "str": (str, str, "a string"),
    "tuple": ((list, tuple), tuple, "a list"),
}


def check_field_types(config) -> None:
    """Convert each field of the frozen dataclass ``config`` by its
    annotation, in place: an integer becomes a float in a float field and a
    list a tuple in a tuple field.  A field annotated with a class name
    takes an instance of that class.  A value of another type raises
    :class:`ConfigurationError` naming the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES:
            accepted, convert, what = _FIELD_TYPES[f.type]
            ok = isinstance(value, accepted) and not isinstance(value, bool) \
                and (convert is not float or abs(value) <= sys.float_info.max)
        else:
            convert, what = None, f"a {f.type}"
            ok = type(value).__name__ == f.type
        if not ok:
            raise ConfigurationError(f"{type(config).__name__}.{f.name} must be {what}")
        if convert is not None:
            object.__setattr__(config, f.name, convert(value))
