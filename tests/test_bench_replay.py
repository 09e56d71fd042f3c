"""The benchmark still runs against the package: every workload prepares and
serves two traced ops, and the two cheap sweeps run, each reporting success.

`test_layering` checks only the names `bench/` imports.  The methods it calls
(`GroupWord.is_identity`, `root_and_sections`) are reached only by traced
ops, and the benchmark counts an op that raises as failed and keeps going,
so deleting one of them would otherwise pass every test.  `act_oracle_d5`'s
sweep is left out: it repeats the pipeline at d=5 and calls nothing of the
package that the other two sweeps do not."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name, sweep", [("sanov_d4_pipeline", True), ("wp_ladders_d3", True),
                                         ("act_oracle_d5", False)])
def test_workload_serves_traced_ops(name, sweep, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the benchmark imports its modules by bare name
    from calibrate import Calibration
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](0, str(tmp_path))
    tr = Tracer(enabled=True)
    try:
        wl.prepare(Calibration())
        for x in (list(wl.ops()) * 2)[:2]:
            assert wl.op(x, tr)[2], f"an op of {name}"
        if sweep:
            assert wl.sweep(tr), f"the sweep of {name}"
    finally:
        wl.cleanup()
