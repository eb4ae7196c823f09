"""Integration tests reproducing the paper's two case studies (§8.3).

Each test runs the exact (fault, test) injections the case study describes
and asserts the causal edges CSnake needs to stitch the cycle — including
the *negative* conditions (the edge must NOT appear in the incompatible
workloads, which is the whole point of conditional causality).
"""

import pytest

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.core.driver import ExperimentDriver
from repro.systems import get_system
from repro.types import DELAY, EXCEPTION, NEGATION, FaultKey

D, E, N = DELAY, EXCEPTION, NEGATION
CFG = dict(repeats=3, delay_values_ms=(250.0, 1000.0, 8000.0), seed=1234)


class TestHBaseRegionRetry:
    """§8.3.1: the HBase region-deployment retry cascade (HB-2)."""

    @pytest.fixture(scope="class")
    def driver(self):
        return ExperimentDriver(get_system("minihbase"), CSnakeConfig(**CFG))

    def test_t1_deploy_delay_times_out_assignment_rpc(self, driver):
        res = driver.run_experiment(
            FaultKey("rs.deploy.regions", D), "hbase.create_heavy"
        )
        assert FaultKey("hm.assign.rpc", E) in res.interference

    def test_t2_assignment_ioe_breaks_favored_balancer(self, driver):
        res = driver.run_experiment(
            FaultKey("hm.assign.rpc", E), "hbase.rs_fault_tolerance"
        )
        assert FaultKey("hm.balancer.can_place", N) in res.interference

    def test_five_server_decoy_shows_no_balancer_failure(self, driver):
        """The paper's t3-with-5-nodes: one exclusion cannot break the
        three-server minimum, so the causal relationship is conditional."""
        res = driver.run_experiment(FaultKey("hm.assign.rpc", E), "hbase.balancer_5rs")
        assert FaultKey("hm.balancer.can_place", N) not in res.interference

    def test_t3_negation_grows_deployment_loop(self, driver):
        res = driver.run_experiment(
            FaultKey("hm.balancer.can_place", N), "hbase.balancer_long"
        )
        assert FaultKey("rs.deploy.regions", D) in res.interference

    def test_three_test_cycle_stitches(self, driver):
        driver.run_experiment(FaultKey("rs.deploy.regions", D), "hbase.create_heavy")
        driver.run_experiment(FaultKey("hm.assign.rpc", E), "hbase.rs_fault_tolerance")
        driver.run_experiment(FaultKey("hm.balancer.can_place", N), "hbase.balancer_long")
        beam = BeamSearch(CSnakeConfig(**CFG))
        cycles = beam.search(driver.edges.all_edges()).cycles
        bug = driver.spec.bug("HB-2")
        matching = [c for c in cycles if bug.matches(c)]
        assert matching, "HB-2 cycle not stitched"
        best = min(matching, key=len)
        assert best.signature() == "1D|1E|1N"
        assert len(best.tests()) == 3  # three separate tests, as in §8.3.1


class TestHdfsIbrThrottling:
    """§8.3.2: the HDFS bypassed-IBR-throttling cascade (H2-6)."""

    @pytest.fixture(scope="class")
    def driver(self):
        return ExperimentDriver(get_system("minihdfs2"), CSnakeConfig(**CFG))

    def test_t1_processing_delay_times_out_report_rpc(self, driver):
        res = driver.run_experiment(
            FaultKey("nn.ibr.entries", D), "hdfs2.load_balancer"
        )
        assert FaultKey("dn.ibr.rpc", E) in res.interference

    def test_t1_shows_no_ibr_increase_without_throttling(self, driver):
        """In the load-balancer test IBRs already go with every heartbeat,
        so the injected RPC failure cannot increase report processing."""
        res = driver.run_experiment(FaultKey("dn.ibr.rpc", E), "hdfs2.load_balancer")
        assert FaultKey("nn.ibr.entries", D) not in res.interference

    def test_t2_rpc_failure_bypasses_interval(self, driver):
        res = driver.run_experiment(FaultKey("dn.ibr.rpc", E), "hdfs2.ibr_interval")
        assert FaultKey("nn.ibr.entries", D) in res.interference

    def test_two_test_cycle_stitches(self, driver):
        driver.run_experiment(FaultKey("nn.ibr.entries", D), "hdfs2.load_balancer")
        driver.run_experiment(FaultKey("dn.ibr.rpc", E), "hdfs2.ibr_interval")
        beam = BeamSearch(CSnakeConfig(**CFG))
        cycles = beam.search(driver.edges.all_edges()).cycles
        bug = driver.spec.bug("H2-6")
        matching = [c for c in cycles if bug.matches(c)]
        assert matching, "H2-6 cycle not stitched"
        best = min(matching, key=len)
        assert best.signature() == "1D|1E|0N"
        assert set(best.tests()) == {"hdfs2.load_balancer", "hdfs2.ibr_interval"}
