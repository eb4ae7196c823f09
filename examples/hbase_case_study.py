#!/usr/bin/env python3
"""§8.3.1 case study: the HBase region-deployment retry cascade (HB-2).

No single HBase test satisfies all four triggering conditions (many region
assignments, an overload-prone cluster, the FavoredStochasticBalancer, and
a long-enough workload).  CSnake reconstructs the cycle from three
injections in three *different* tests:

  t1  delay in the region deployment loop   -> assignment RPC IOEs
  t2  IOE in the assignment RPC             -> canPlaceFavoredNodes fails
  t3  negated balancer check                -> deployment loop grows

    python examples/hbase_case_study.py
"""

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey


EXPERIMENTS = [
    ("t1", FaultKey("rs.deploy.regions", DELAY), "hbase.create_heavy"),
    ("t2", FaultKey("hm.assign.rpc", EXCEPTION), "hbase.rs_fault_tolerance"),
    ("t3", FaultKey("hm.balancer.can_place", NEGATION), "hbase.balancer_long"),
]


def main() -> None:
    config = CSnakeConfig(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)
    spec = get_system("minihbase")
    driver = ExperimentDriver(spec, config)

    for label, fault, test in EXPERIMENTS:
        result = driver.run_experiment(fault, test)
        print("%s: inject %s into %s" % (label, fault, test))
        for interference in result.interference:
            print("      -> additional fault: %s" % interference)

    # The decoy: the same IOE injection in the five-server balancer test
    # does NOT break the balancer — the causal relationship is conditional
    # on the three-server cluster (the paper's key observation).
    decoy = driver.run_experiment(FaultKey("hm.assign.rpc", EXCEPTION), "hbase.balancer_5rs")
    breaks_balancer = any(f.site_id == "hm.balancer.can_place" for f in decoy.interference)
    print("decoy: same IOE on a 5-server cluster breaks the balancer? %s" % breaks_balancer)

    beam = BeamSearch(config)
    cycles = beam.search(driver.edges.all_edges()).cycles
    bug = spec.bug("HB-2")
    matching = sorted((c for c in cycles if bug.matches(c)), key=len)
    print("\ncycles containing HB-2's core faults: %d" % len(matching))
    if matching:
        best = matching[0]
        print("  %s" % best)
        print("  composition: %s (paper: 1D|1E|1N)" % best.signature())
        print("  stitched from %d tests: %s" % (len(best.tests()), ", ".join(best.tests())))


if __name__ == "__main__":
    main()
