"""Campaign runners and table formatting shared by the paper-table scripts
under ``benchmarks/`` (the repo's own benchmark is ``benchmarks/campaign_bench``)."""

from .runners import (
    CampaignResult,
    bench_config,
    run_campaign,
    run_random_campaign,
    table3_rows,
    table4_row,
)
from .tables import format_table

__all__ = [
    "CampaignResult",
    "bench_config",
    "run_campaign",
    "run_random_campaign",
    "table3_rows",
    "table4_row",
    "format_table",
]
