"""The range of every scenario and log number, stated once in its field's annotation; a plain ``float`` is any finite number."""

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
