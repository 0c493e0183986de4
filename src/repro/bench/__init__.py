"""Benchmark harness regenerating every table and figure of the paper.

* :mod:`.harness` — grid-point runner (algorithm x balancer x workload x n x p);
* :mod:`.figures` — one experiment definition per paper figure + ablations;
* :mod:`.tables` — Tables 1-2 (complexity claims + empirical scaling checks);
* :mod:`.report` — ASCII series tables, bar rows, CSV export;
* :mod:`.cli` — ``python -m repro.bench <exp-id> --scale paper``.
"""

from .figures import EXPERIMENTS, FigureResult, SCALES, run_experiment
from .harness import PAPER_P_SWEEP, PointResult, run_point, run_series
from .report import fmt_time, render_bar_rows, render_series_table, write_csv

__all__ = [
    "EXPERIMENTS",
    "FigureResult",
    "SCALES",
    "run_experiment",
    "PAPER_P_SWEEP",
    "PointResult",
    "run_point",
    "run_series",
    "fmt_time",
    "render_bar_rows",
    "render_series_table",
    "write_csv",
]
