import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim.harness import LogRow
from shuttlesim.scenario import DEFAULT_ORIGIN, ScenarioConfig, ScenarioError, load_scenario, scenario_from_dict
from tests.conftest import SCENARIO_DIR


def test_load_shipped_demo():
    sc = load_scenario(SCENARIO_DIR / "demo.yaml")
    assert sc.name == "demo"
    assert sc.duration == 40.0
    assert sc.waypoints.endswith("straight_3mps.waypoints")
    assert len(sc.world.pedestrians) == 1
    assert len(sc.world.signs) == 1
    assert sc.lidar.range_jitter == 0.01


def test_load_shipped_figure8_record():
    sc = load_scenario(SCENARIO_DIR / "figure8_record.yaml")
    assert len(sc.drive_script) == 4
    assert sc.drive_script[1].yaw_rate == 0.25


def test_yaml_syntax_error_reports_line(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nduration: [unclosed\n")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(bad)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="unknown top-level keys.*typo"):
        scenario_from_dict({"typo": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(ScenarioError, match="vehicle"):
        scenario_from_dict({"vehicle": {"wheelbase": 2.5, "nonsense": 3}})


def test_bad_vector_shape():
    with pytest.raises(ScenarioError, match=r"world\.pedestrians\[0\]\.position"):
        scenario_from_dict({"world": {"pedestrians": [{"position": [1.0]}]}})


def test_tick_rate_bounds():
    with pytest.raises(ScenarioError, match="tick_rate"):
        scenario_from_dict({"tick_rate": 5})
    with pytest.raises(ScenarioError, match="tick_rate"):
        scenario_from_dict({"tick_rate": 500})


def test_waypoint_path_resolved_relative(tmp_path):
    (tmp_path / "p.waypoints").write_text("30.0,-96.0,1.0\n")
    (tmp_path / "s.yaml").write_text("duration: 1.0\nwaypoints: p.waypoints\n")
    sc = load_scenario(tmp_path / "s.yaml")
    assert sc.waypoints == str((tmp_path / "p.waypoints").resolve())


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.yaml"
    f.write_text("")
    with pytest.raises(ScenarioError, match="empty"):
        load_scenario(f)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match=r"nope\.yaml: No such file or directory$"):
        load_scenario(tmp_path / "nope.yaml")


@pytest.mark.parametrize("text, message", [
    ("duration: 1e300", "duration: 1e+300 s at 50 Hz is more than 4320000 ticks"),
    ("duration: 21601\ntick_rate: 200", "duration: 21601 s at 200 Hz is more than 4320000 ticks"),
    ("drive_script: [{duration: 5e4, speed: 1}, {duration: 5e4, speed: 1}]",
     "drive_script: 100000 s at 50 Hz is more than 4320000 ticks"),
])
def test_run_length_capped_at_one_simulated_day(tmp_path, text, message):
    f = tmp_path / "long.yaml"
    f.write_text(text + "\n")
    with pytest.raises(ScenarioError, match=f"^{f}: {message}$".replace("+", r"\+")):
        load_scenario(f)



@pytest.mark.parametrize("text, message", [
    ("duration: 0.01", "duration: 0.01 s at 50 Hz is less than one tick"),
    ("duration: 0.0025\ntick_rate: 200", "duration: 0.0025 s at 200 Hz is less than one tick"),
    ("duration: 1e-300", "duration: 1e-300 s at 50 Hz is less than one tick"),
])
def test_a_run_shorter_than_one_tick_is_rejected(tmp_path, text, message):
    f = tmp_path / "short.yaml"
    f.write_text(text + "\n")
    with pytest.raises(ScenarioError, match=f"^{f}: {message}$"):
        load_scenario(f)


def test_a_run_that_rounds_to_one_tick_loads():  # a run takes round(duration * tick_rate) ticks
    assert scenario_from_dict({"duration": 0.015}).duration == 0.015
    assert scenario_from_dict({"duration": 0.02}).duration == 0.02


def test_run_of_exactly_one_simulated_day_loads():  # loaded only, never run
    assert scenario_from_dict({"duration": 86400}).duration == 86400.0
    assert scenario_from_dict({"duration": 21600, "tick_rate": 200}).duration == 21600.0
    assert len(scenario_from_dict({"drive_script": [{"duration": 43200, "speed": 1}] * 2}).drive_script) == 2


@pytest.mark.parametrize("text", ["yes", "on", "2020-01-01", "0x1F", "1_0", "12:30"])
def test_a_plain_scalar_loads_as_its_text(tmp_path, text):
    # YAML 1.1 read these as True, True, datetime.date(2020, 1, 1), 31, 10 and 750
    f = tmp_path / "s.yaml"
    f.write_text(f"name: {text}\n")
    assert load_scenario(f).name == text


def test_a_merge_key_fills_a_mapping_and_its_own_keys_override_it(tmp_path):
    f = tmp_path / "s.yaml"
    f.write_text("world:\n  signs:\n    - &sign {center: [9, -2, 2], normal: [-1, 0, 0], width: 0.5}\n"
                 "    - {<<: *sign, center: [20, -2, 2]}\n")
    first, second = load_scenario(f).world.signs
    assert (second.center, second.normal, second.width) == ((20.0, -2.0, 2.0), first.normal, 0.5)


def test_yaml_1_1_number_strings_convert():
    # YAML 1.1 reads 3e0 and 1e-1 as strings
    sc = scenario_from_dict({"gains": {"kp_speed": "3e0"}, "grid": {"cell_size": "1e-1", "min_cell_points": "3e0"},
                             "seed": 4.0})
    assert sc.gains.kp_speed == 3.0 and sc.grid.cell_size == 0.1 and sc.seed == 4 and sc.grid.min_cell_points == 3
    assert type(sc.seed) is int and type(sc.grid.min_cell_points) is int


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
           | st.sampled_from(["3e0", "1e-3", ".inf", "nan", "1e400", "-0", "x.waypoints", 10**400]))
ANYTHING = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4) | st.integers(),
                                                                inner, max_size=3),
    max_leaves=12,
)


def shaped(tp):
    """Values of roughly the shape ``tp`` calls for, wrong in type or range at times."""
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        optional = {f.name: shaped(hints[f.name]) for f in fields(tp)}
        return st.fixed_dictionaries({}, optional=optional) | ANYTHING
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            return st.lists(shaped(args[0]), max_size=3)
        return st.lists(shaped(args[0]), min_size=len(args) - 1, max_size=len(args) + 1)
    return st.floats(0.01, 100.0) | st.integers(0, 100) | SCALARS


@settings(max_examples=300, deadline=None)
@given(data=shaped(ScenarioConfig), base_dir=st.sampled_from([None, Path(".")]))
@example(data={"world": {"signs": [{"center": [1, 2, 2], "normal": [-1, 0, 0]}]},
               "manual_stops": [{"t": 1, "duration": 2}], "waypoints": "a\0b"}, base_dir=Path("."))
@example(data={"tick_rate": 10**400}, base_dir=None)
def test_scenario_from_dict_fuzz(data, base_dir):
    try:
        config = scenario_from_dict(data, base_dir)
    except ScenarioError:
        return
    assert isinstance(config, ScenarioConfig)


@pytest.mark.parametrize("scale", [1e8, 1e-200])
def test_sign_normal_normalised_without_overflow(scale):
    sign = {"center": [9.0, -2.0, 2.0], "normal": [-scale, 0.0, 0.0]}
    sc = scenario_from_dict({"world": {"signs": [sign]}})
    assert sc.world.signs[0].normal == (-1.0, 0.0, 0.0)


NORMAL_COMPONENT = st.floats(allow_nan=False) | st.floats(-1e-300, 1e-300)  # subnormals too


@settings(max_examples=300, deadline=None)
@given(normal=st.lists(NORMAL_COMPONENT, min_size=3, max_size=3))
@example(normal=[1.6e-308, 1.6e-308, 0.0])  # subnormal components, a length just above the least normal float
@example(normal=[-1e8, -1e8, 1e8])
@example(normal=[5e-324, 5e-324, 0.0])  # a subnormal length: rejected, not scaled to sqrt(2)
def test_every_sign_the_loader_accepts_has_a_unit_normal(normal):
    try:
        sc = scenario_from_dict({"world": {"signs": [{"center": [9.0, -2.0, 2.0], "normal": normal}]}})
    except ScenarioError:
        return
    assert abs(math.hypot(*sc.world.signs[0].normal) - 1.0) <= 4 * math.ulp(1.0)


# a valid entry of each list of dataclasses in a scenario
ENTRIES = {
    "world.obstacles": {"center": [40, 4], "size": [1, 1], "height": 1.5},
    "world.pedestrians": {"position": [30, 6]},
    "world.signs": {"center": [62, -2, 2], "normal": [-1, 0, 0]},
    "manual_stops": {"t": 1, "duration": 1},
    "drive_script": {"duration": 1, "speed": 1},
}
# numbers that take any finite value
ANY_FINITE = {"start.heading", "follower.heading_bias", "drive_script[0].yaw_rate"}


def numbers(cls, where=""):
    """{key path: (int or float, the bounds in its annotation)} of every number reachable from class ``cls``."""
    found = {}
    for name, tp in get_type_hints(cls, include_extras=True).items():
        path = f"{where}.{name}" if where else name
        args = get_args(tp)
        if is_dataclass(tp):
            found.update(numbers(tp, path))
        elif get_origin(tp) is tuple and args[-1] is Ellipsis:
            found.update(numbers(args[0], f"{path}[0]"))
        else:
            for key, element in ([(f"{path}[{i}]", a) for i, a in enumerate(args)] if get_origin(tp) is tuple
                                 else [(path, tp)]):
                if type(None) in get_args(element):  # X | None: the bounds of X, checked when it holds a value
                    element = next(a for a in get_args(element) if a is not type(None))
                base, *bounds = get_args(element) if get_origin(element) is Annotated else (element,)
                if base in (int, float):
                    found[key] = base, tuple(bounds)
    return found


NUMBERS = numbers(ScenarioConfig)


def test_every_scenario_number_is_bounded_or_listed_as_any_finite():
    unbounded = {path for path, (_, bounds) in NUMBERS.items() if not bounds}
    assert unbounded == ANY_FINITE


# log columns that take any finite value: the pose, the yaw rate and the steering command
LOG_ANY_FINITE = {"x", "y", "heading", "omega", "steer"}


def test_every_log_number_is_bounded_or_listed_as_any_finite():
    unbounded = {name for name, (_, bounds) in numbers(LogRow).items() if not bounds}
    assert unbounded == LOG_ANY_FINITE


def just_outside():
    """(key path, value, error) for a value just past each finite end of a bound, where that bound is the first it breaks."""
    for path, (base, bounds) in NUMBERS.items():
        where, _, field = path.rpartition(".")
        name = f"{where}: {field}" if where else field
        for bound in bounds:
            for end, away in ((bound.lo, -math.inf), (bound.hi, math.inf)):
                value = end + (1 if away > 0 else -1) if base is int else math.nextafter(end, away)
                if math.isfinite(end) and next(b for b in bounds if not b.lo <= value <= b.hi) == bound:
                    yield pytest.param(path, value, f"{name} must be {bound.text}, got {value!r}", id=f"{path}={value!r}")


def scenario_with(path, value) -> dict:
    """The smallest scenario data that sets the number at ``path`` to ``value``."""
    data = {}
    node, keys = data, path.replace("[0].", ".").split(".")
    for i, key in enumerate(keys[:-1]):
        entry = ENTRIES.get(".".join(keys[:i + 1]))
        node[key] = [dict(entry)] if entry else node.get(key, {})
        node = node[key][0] if entry else node[key]
    name, _, index = keys[-1].partition("[")
    if index:
        node[name] = list(node.get(name) or {"origin": DEFAULT_ORIGIN, "velocity": (0, 0)}[name])
        node[name][int(index[:-1])] = value
    else:
        node[name] = value
    return data


@pytest.mark.parametrize("path, value, message", just_outside())
def test_a_number_just_outside_its_bound_is_rejected_naming_its_key_path(path, value, message):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(scenario_with(path, value))
    assert str(info.value) == message
