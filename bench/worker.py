"""One batch pass of a workload in a fresh interpreter.

    python3 bench/worker.py WORKDIR MODE SPAWN_NS OUT

MODE is ``probe`` (tick stamps only), ``trace`` (tick stamps and spans),
``bare`` (neither, for the probe-overhead reference) or ``setup`` (stop once
set up). SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it
started this process, so set-up time counts interpreter start-up and
imports. The result, spans included, is written to OUT as JSON when the
pass ends.

The tick probe also times a fixed calibration kernel every
``CALIBRATE_EVERY`` ticks, and the pass times it a few times right after
set-up. The kernel's time tracks how fast the host's CPU runs at that
moment; ``run.py`` divides tick and set-up times by it. Time spent in the
kernel is kept out of the tick stamps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATE_EVERY = 50  # ticks (1 s simulated) between calibration samples
SETUP_CALIBRATIONS = 5  # samples right after set-up; their median scales set-up time


def calibrate(x) -> int:
    """Time one run of the calibration kernel, in ns (about 2 ms).

    A fixed mix of the work a tick does: numpy calls on arrays the size of
    a long route, and interpreted arithmetic. It uses nothing from the
    program, so a change to the program cannot change its time.
    """
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(30):
        acc += float(np.hypot(x, x[::-1]).sum()) + float(np.einsum("i,i->", x, x))
        for j in range(40):
            acc += math.sin(j * 0.1) * (i + 1)
    return time.perf_counter_ns() - t0


def main(workdir: Path, mode: str, spawn_ns: int) -> dict:
    import shuttlesim
    import shuttlesim.harness as harness
    import shuttlesim.scenario as scenario

    if Path(shuttlesim.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"shuttlesim imported from {shuttlesim.__file__}, not from {SRC}")
    kernel_input = np.linspace(0.0, 1.0, 4096)
    stamps: list[int] = []
    calibration: list[tuple[int, int]] = []  # (stamp index, kernel ns)
    paused = 0  # ns spent in the calibration kernel so far

    def clock() -> int:
        """``perf_counter_ns`` with the time spent in the calibration kernel taken out."""
        return time.perf_counter_ns() - paused

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer(clock)
        tracer.install()
    if mode != "bare":
        # the tick probe: one stamp at the harness's first per-tick call
        follow_step = harness.follow_step

        def probed(*args, **kwargs):
            nonlocal paused
            if len(stamps) % CALIBRATE_EVERY == 0:
                ns = calibrate(kernel_input)
                paused += ns
                calibration.append((len(stamps), ns))
            stamps.append(clock())
            return follow_step(*args, **kwargs)

        harness.follow_step = probed

    batch = json.loads((workdir / "batch.json").read_text())
    sims = []
    for i, run in enumerate(batch):
        if tracer is not None:
            tracer.run_id = i
        sims.append(harness.Simulation(scenario.load_scenario(workdir / run["scenario"])))
    ready_ns = time.monotonic_ns()
    setup = {"setup_ns": ready_ns - spawn_ns,
             "setup_calibration_ns": [calibrate(kernel_input) for _ in range(SETUP_CALIBRATIONS)]}
    if mode == "setup":
        return {**setup, "runs": []}
    from checks import check_log

    runs = []
    for i, (run, sim) in enumerate(zip(batch, sims)):
        if tracer is not None:
            tracer.run_id = i
        stamps.clear()
        calibration.clear()
        record = {"index": i, "period": sim.scenario.lidar_period_ticks, "dt": sim.scenario.dt}
        try:
            t0 = clock()
            _, rows = sim.run()
            record["run_ns"] = clock() - t0
            record["stamps"] = list(stamps)
            record["calibration"] = list(calibration)
            log = workdir / f"log-{os.getpid()}-{i}.csv"
            harness.write_log(rows, log)
            text = log.read_text()
            log.unlink()
            record["digest"] = hashlib.sha256(text.encode()).hexdigest()
            record["failures"] = check_log(text, run["ticks"], run["check"])
        except Exception:  # a failing run is counted, and the batch goes on
            record["failures"] = ["raised: " + traceback.format_exc(limit=3)]
        runs.append(record)

    result = {
        **setup,
        "runs": runs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    return result


if __name__ == "__main__":
    result = main(Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
    Path(sys.argv[4]).write_text(json.dumps(result))
