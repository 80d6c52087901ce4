"""Analysis helpers: statistics, RUM accounting, and table rendering."""

from repro.analysis.rum import RUMProfile, rum_profile
from repro.analysis.stats import pearson_correlation
from repro.analysis.tables import render_table

__all__ = [
    "RUMProfile",
    "pearson_correlation",
    "render_table",
    "rum_profile",
]
