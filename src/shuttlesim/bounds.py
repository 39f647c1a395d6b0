"""The one law that reads every input number (``number``), and each number's range, stated in its field's annotation."""

import functools
import math
from typing import Annotated, NamedTuple, get_args, get_origin, get_type_hints

Bound = NamedTuple("Bound", [("lo", float), ("hi", float), ("text", str)])  # [lo, hi], and how messages state it
TINY = math.ulp(0.0)  # the least positive float: [TINY, hi] holds exactly the positive numbers up to hi
LIMIT = Bound(-1e8, 1e8, "within [-1e8, 1e8]")  # the Earth is within 4e7 m of any origin; products stay finite
Positive = Annotated[float, Bound(TINY, math.inf, "positive")]
NonNegative = Annotated[float, Bound(0.0, math.inf, ">= 0")]
Coordinate = Annotated[float, LIMIT]  # a position or velocity component, m or m/s
Length = Annotated[Positive, LIMIT]
Fraction = Annotated[float, Bound(TINY, 1.0, "within (0, 1]")]
Intensity = Annotated[float, Bound(0.0, 255.0, "within [0, 255]")]
Pedal = Annotated[float, Bound(0.0, 1.0, "within [0, 1]")]  # a throttle or brake fraction
Count = Annotated[int, Bound(1, math.inf, ">= 1")]
Natural = Annotated[int, Bound(0, math.inf, ">= 0")]


def number(text: str, tp: type = float):
    """The ``tp`` (``float`` or ``int``) that input ``text`` spells: ASCII with no ``_``, read by ``float``, finite and,
    for an int, whole. Decimal integer text is read exactly by ``int``; any other spelling raises a ValueError."""
    if not text.isascii() or "_" in text:  # digits float() also reads: 3_0 for 30, or an Arabic-Indic 3
        raise ValueError(f"{text.strip()!a} is not a plain ASCII number")
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite value {text.strip()!r}")
    if tp is int and not value.is_integer():
        raise ValueError(f"expected int, got {text.strip()!r}")
    # decimal integer text is read by int, so a 20-digit seed keeps every digit; 3e0 is int(3.0)
    return tp(value) if tp is float or not text.strip().lstrip("+-").isdigit() else int(text)


def named(name: str, read, text: str):
    """``read(text)``, where ``text`` fills the field ``name``: a ValueError it raises names the field first."""
    try:
        return read(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


@functools.cache
def _bounds(cls) -> tuple[tuple[str, int | None, Bound], ...]:
    """(field, element index or None, bound) for each bound on a field of ``cls``, a tuple field's element or an X | None."""
    return tuple((name, i, bound) for name, tp in get_type_hints(cls, include_extras=True).items()
                 for i, element in (enumerate(get_args(tp)) if get_origin(tp) is tuple else [(None, tp)])
                 for part in (get_args(element) if type(None) in get_args(element) else [element])
                 for bound in getattr(part, "__metadata__", ()))


def check_bounds(obj) -> None:
    """The ``__post_init__`` of each dataclass a scenario fills, and the range check of each log row: a ValueError
    names the first field outside its bounds. An optional field is checked whenever it holds a value."""
    for name, i, (lo, hi, text) in _bounds(type(obj)):
        value = getattr(obj, name) if i is None else getattr(obj, name)[i]
        if value is not None and not lo <= value <= hi:
            raise ValueError(f"{name if i is None else f'{name}[{i}]'} must be {text}, got {value!r}")
