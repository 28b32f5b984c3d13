"""Experiment harnesses regenerating the paper's Table I and Fig. 4."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "table1": ("TABLE1_ROWS", "Table1Row", "run_table1", "render_table1"),
        "figure4": ("FIGURE4_SWEEP", "Figure4Series", "run_figure4", "render_figure4"),
    },
)
