#!/usr/bin/env python3
"""§8.3.2 case study: the HDFS bypassed-IBR-throttling cascade (H2-6).

A failed incremental block report (IBR) is retried at the very next
heartbeat, ignoring the configured report interval.  Under NameNode
overload the timed-out report was actually processed, so the retry
*duplicates* report entries — adding exactly the load that caused the
timeout.  The two causal halves live in two different tests:

  t1  load-balancer test (many blocks, no throttling):
        IBR-processing delay -> report RPC timeouts;
        but an injected RPC failure causes NO report increase here.
  t2  report-interval configuration test (throttling, light load):
        an injected RPC failure bypasses the interval and duplicates
        entries -> IBR processing grows.

    python examples/hdfs_ibr_case_study.py
"""

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, FaultKey


def main() -> None:
    config = CSnakeConfig(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)
    spec = get_system("minihdfs2")
    driver = ExperimentDriver(spec, config)

    print("t1: inject IBR-processing delay into the 'load balancer' test")
    r1 = driver.run_experiment(FaultKey("nn.ibr.entries", DELAY), "hdfs2.load_balancer")
    for f in r1.interference:
        print("      -> %s" % f)

    print("t1': inject the report RPC failure into the same test (control)")
    r1c = driver.run_experiment(FaultKey("dn.ibr.rpc", EXCEPTION), "hdfs2.load_balancer")
    grows = any(f.site_id == "nn.ibr.entries" for f in r1c.interference)
    print("      report processing grows without throttling? %s" % grows)

    print("t2: inject the report RPC failure into the 'IBR interval' test")
    r2 = driver.run_experiment(FaultKey("dn.ibr.rpc", EXCEPTION), "hdfs2.ibr_interval")
    for f in r2.interference:
        print("      -> %s" % f)

    beam = BeamSearch(config)
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = spec.bug("H2-6")
    matching = sorted((c for c in cycles if bug.matches(c)), key=len)
    print("\ncycles containing H2-6's core faults: %d" % len(matching))
    if matching:
        best = matching[0]
        print("  %s" % best)
        print("  stitched from: %s" % ", ".join(best.tests()))


if __name__ == "__main__":
    main()
