"""What a fresh interpreter imports: never scipy, which only the tests use."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

from tests.conftest import REPO_ROOT, SCENARIO_DIR, brute_ror, brute_sor


def fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter that imports the package from src/; return what it prints as JSON."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_and_a_sign_free_simulation_never_import_scipy_spatial(tmp_path, straight_waypoints):
    (tmp_path / "crossing.yaml").write_text(
        f"duration: 2.0\nwaypoints: {straight_waypoints}\n"
        "start: {speed: 3.0}\n"
        "world:\n"
        "  obstacles: [{center: [10.0, 4.0], size: [1.0, 1.0], height: 1.5}]\n"
        "  pedestrians: [{position: [12.0, 3.0], velocity: [0.0, -1.4]}]\n"
        "lidar: {range_jitter: 0.01}\n")
    seen = fresh(f"""
        import contextlib, io, json, sys
        loaded = {{}}
        from shuttlesim.cli import main
        loaded["import shuttlesim.cli"] = "scipy.spatial" in sys.modules
        steps = {{
            "run": ["run", "crossing.yaml", "--log", "crossing.log"],
            "replay": ["replay", "crossing.log"],
            "record": ["record", {str(SCENARIO_DIR / "figure8_record.yaml")!r}, "--out", "fig8.trace"],
            "compile-path": ["compile-path", "fig8.trace", "--speed", "3", "--out", "fig8.waypoints"],
        }}
        for name, argv in steps.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
            loaded[name] = "scipy.spatial" in sys.modules
        print(json.dumps(loaded))
        """, tmp_path)
    assert seen == dict.fromkeys(["import shuttlesim.cli", "run", "replay", "record", "compile-path"], False)
    assert (tmp_path / "fig8.waypoints").stat().st_size > 0


def test_no_command_and_no_simulation_of_a_world_with_signs_imports_scipy(tmp_path):
    seen = fresh(f"""
        import contextlib, io, json, sys
        from shuttlesim.cli import main
        from shuttlesim.harness import Simulation
        from shuttlesim.scenario import load_scenario
        loaded = {{}}
        steps = {{
            "run demo": ["run", {str(SCENARIO_DIR / "demo.yaml")!r}, "--log", "demo.log", "--sign-log", "signs.csv"],
            "replay demo": ["replay", "demo.log"],
        }}
        for name, argv in steps.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
            loaded[name] = "scipy" in sys.modules
        sim = Simulation(load_scenario({str(SCENARIO_DIR / "signs.yaml")!r}))
        loaded["build signs.yaml"] = "scipy" in sys.modules
        sim.run()
        loaded["run signs.yaml"] = "scipy" in sys.modules
        print(json.dumps(loaded))
        """, tmp_path)
    assert seen == dict.fromkeys(["run demo", "replay demo", "build signs.yaml", "run signs.yaml"], False)
    rows = [line.split(",") for line in (tmp_path / "signs.csv").read_text().splitlines()[1:]]
    assert any(d for _, d, *_ in rows)  # the run detected its sign, so it built k-nearest tables


def test_outlier_removal_called_first_in_a_fresh_interpreter_matches_brute_force(tmp_path):
    rng = np.random.default_rng(4)
    clouds = [rng.normal(0.0, 0.4, (n, 3)) for n in (0, 5, 9, 60, 200)]
    seen = fresh(f"""
        import json, sys
        import numpy as np
        from shuttlesim.signs import radius_outlier_removal, statistical_outlier_removal
        clouds = [np.array(c, dtype=float).reshape(-1, 3) for c in {[c.tolist() for c in clouds]!r}]
        before = "scipy" in sys.modules
        out = {{"ror": [radius_outlier_removal(c, 0.5, 3).tolist() for c in clouds],
               "sor": [statistical_outlier_removal(c, 8, 1.0).tolist() for c in clouds]}}
        print(json.dumps({{"before": before, "after": "scipy" in sys.modules, **out}}))
        """, tmp_path)
    assert (seen["before"], seen["after"]) == (False, False)
    for cloud, ror, sor in zip(clouds, seen["ror"], seen["sor"]):
        assert np.array_equal(np.reshape(ror, (-1, 3)), brute_ror(cloud, 0.5, 3))
        assert np.array_equal(np.reshape(sor, (-1, 3)), brute_sor(cloud, 8, 1.0))
