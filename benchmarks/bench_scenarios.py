"""SCENARIOS — the multi-domain shift matrix with drift-aware resets.

Runs every registered scenario (abrupt cuts, ramps, oscillations,
compound degradations — see ``repro.data.domains.SCENARIOS``) through
the fleet server twice: once with drift detection disabled and once
with the CUSUM detector + adaptation-reset policy enabled.  Rows are
archived to ``results/scenario_matrix.json``.

Asserted via :func:`repro.experiments.check_scenarios`:

* every scheduled-shift scenario raises at least one drift alarm, and
  the stationary control (``steady_highway``) raises none;
* enabling resets never costs more than 5% mean accuracy on any
  scenario;
* recurring-regime scenarios warm-start from the cluster bank;
* at least one shifted scenario recovers to its settled accuracy
  strictly faster with resets than without (the headline claim).

``tests/test_experiments.py`` asserts the same claims on the 3-scenario
``QUICK_MATRIX`` subset on every test run; this entry point is the full
matrix.
"""

from conftest import results_path

from repro.experiments import (
    check_scenarios,
    format_table,
    get_run_scale,
    run_bench_scenarios,
    save_json,
)
from repro.experiments.bench_scenarios import COLUMNS as BENCH_SCENARIO_COLUMNS


def test_scenario_matrix(benchmark):
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_scenarios, kwargs={"scale": scale}, rounds=1, iterations=1
    )

    print("\nSCENARIOS — shift matrix: drift resets vs stride-waiting")
    print(format_table(rows, columns=list(BENCH_SCENARIO_COLUMNS)))
    save_json(results_path("scenario_matrix.json"), rows)

    check_scenarios(rows)
