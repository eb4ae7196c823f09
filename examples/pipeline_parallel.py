#!/usr/bin/env python3
"""Pipeline API tour: parallel, observable, cached campaigns.

Runs the toy campaign through the staged pipeline API three times: once
serially without a cache, with stage progress events, as the reference;
then over one experiment cache — cold and serial, filling it, then warm
with four workers, replaying it.  Both cached runs are bit-identical to
the reference.  The warm run is also how an interrupted campaign is
recovered: run it again over the same cache.

    python examples/pipeline_parallel.py
"""

import tempfile

from repro.config import CSnakeConfig
from repro.pipeline import Pipeline, ProgressPrinter
from repro.systems import get_system

CONFIG = dict(repeats=3, delay_values_ms=(500.0, 2000.0, 8000.0), seed=7)


def main() -> None:
    print("— serial campaign, with progress events —")
    serial = Pipeline.default(
        get_system("toy"), CSnakeConfig(**CONFIG), observers=[ProgressPrinter()]
    ).run().get("report")

    cache_dir = tempfile.mkdtemp(prefix="csnake-cache-")
    for label, workers in (("cold, serial", 1), ("warm, four workers", 4)):
        print("\n— %s, over the cache —" % label)
        ctx = Pipeline.default(
            get_system("toy"),
            CSnakeConfig(experiment_workers=workers, cache_dir=cache_dir, **CONFIG),
        ).run()
        stats = ctx.driver.cache.stats()
        print("cache: {hits} hits, {misses} misses, {stores} stored".format(**stats))
        print("%s == serial:" % label, ctx.get("report").to_dict() == serial.to_dict())
    print("cache entries under", cache_dir)

    print("\nreport:", serial.summary())
    for bug_id in serial.detected_bugs:
        print("  detected:", bug_id)


if __name__ == "__main__":
    main()
