"""The column-form run group and FCA against the trace-keeping oracle.

:class:`~repro.instrument.trace.RunGroup` reduces a group's runs to the
columns FCA reads, in one pass; ``tests/reference_rungroup.py`` keeps the
runs and derives every answer from them.  Both are built from the same
traces and must agree on every query FCA makes — natural faults and their
occurrence fractions and states, loop sites, count rows (also for a site
only the other side iterated, and one nobody did), loop-state unions,
injected states, reached sites — and the shipped analysis over the columns
must return the ``FcaResult`` the oracle analysis returns over the runs.
The traces are drawn (shared interned events, injected events, delay
plans, saturated runs, loop sites on one side only) and taken from every
profile and injection group of the minidfs benchmark golden campaign.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CSnakeConfig
from repro.core.fca import FaultCausalityAnalysis
from repro.instrument.plan import InjectionPlan
from repro.instrument.sites import SiteRegistry
from repro.instrument.trace import FaultEvent, RunGroup, RunTrace
from repro.pipeline import Pipeline
from repro.serialize import group_from_obj, group_to_obj
from repro.systems import get_system
from tests.golden_campaigns import CAMPAIGNS
from tests.helpers import dly, exc, neg, state
from tests.reference_rungroup import ReferenceFaultCausalityAnalysis, ReferenceRunGroup

pytestmark = pytest.mark.contract

#: Loops ``s.a`` < ``s.b`` < ``s.c`` nest under ``s.outer`` (so a delayed
#: ``s.a`` expands to ICFG and CFG edges); ``s.solo`` stands alone.
REGISTRY = SiteRegistry("s")
REGISTRY.loop("s.outer", "S.run")
for order, site in enumerate(("s.a", "s.b", "s.c")):
    REGISTRY.loop(site, "S.step", parent="s.outer", order=order)
REGISTRY.loop("s.solo", "S.idle")
REGISTRY.throw("s.t1", "S.step")
REGISTRY.throw("s.t2", "S.step")
REGISTRY.detector("s.d1", "S.check")

LOOPS = ("s.outer", "s.a", "s.b", "s.c", "s.solo")
#: Natural faults, a delay-kind one among them (FCA skips it).
FAULTS = (exc("s.t1"), exc("s.t2"), neg("s.d1"), dly("s.b"))
STATES = (
    state(("f1", "f0")),
    state(("g1", "g0")),
    state(("f1", "f0"), (("s.br", True),)),
    state(("f1", "f0"), (("s.br", False),)),
)
#: One object per (fault, state), shared by every run that draws it, the
#: way the runtime interns a run's natural events.
INTERNED = tuple(FaultEvent(fault, st) for fault in FAULTS for st in STATES)
PLANS = (
    InjectionPlan(exc("s.t1"), warmup_ms=100.0),
    InjectionPlan(neg("s.d1")),
    InjectionPlan(dly("s.a"), delay_ms=500.0),
    InjectionPlan(dly("s.outer"), delay_ms=2000.0),
)
CONFIG = CSnakeConfig()


@st.composite
def traces(draw, plan, loops):
    """One run of test ``t`` under ``plan``, iterating only ``loops``."""
    trace = RunTrace(test_id="t", injection=plan, seed=draw(st.integers(0, 9)))
    trace.saturated = draw(st.booleans())
    for event in draw(st.lists(st.sampled_from(INTERNED), max_size=8)):
        # Mostly the shared object; now and then an equal copy of it.
        trace.record_event(
            FaultEvent(event.fault, event.state) if draw(st.booleans()) else event
        )
    if plan is not None and draw(st.booleans()):
        trace.record_event(FaultEvent(plan.fault, draw(st.sampled_from(STATES)), injected=True))
    for site in draw(st.lists(st.sampled_from(loops), unique=True)):
        count = draw(st.integers(0, 40))  # 0: a loop entered, never iterated
        trace.loop_counts[site] = count
        trace.reached.add(site)
        trace.loop_states[site] = set(
            draw(st.lists(st.sampled_from(STATES), max_size=3 if count else 0))
        )
    trace.reached.update(draw(st.lists(st.sampled_from(LOOPS + ("s.t1", "s.x")))))
    return trace


@st.composite
def experiments(draw):
    """(profile runs, injection plan, injection runs); each side iterates
    its own subset of the loops, so some sites are on one side only."""
    plan = draw(st.sampled_from(PLANS))
    sides = [draw(st.lists(st.sampled_from(LOOPS), min_size=1, unique=True)) for _ in "pi"]
    profile = draw(st.lists(traces(None, sides[0]), max_size=4))
    injection = draw(st.lists(traces(plan, sides[1]), min_size=1, max_size=4))
    return profile, plan, injection


def _both(plan, runs):
    reference = ReferenceRunGroup(test_id="t", injection=plan)
    for run in runs:
        reference.add(run)
    return RunGroup.of("t", plan, runs), reference


def assert_same_queries(group, reference, sites, faults):
    """``group`` answers every query FCA makes as ``reference`` does."""
    assert group.test_id == reference.test_id and group.injection == reference.injection
    assert group.n_runs == len(reference)
    assert set(group.loop_counts) == reference.loop_sites()
    never = (0,) * group.n_runs
    rows = [list(group.loop_counts.get(site, never)) for site in sites]
    assert rows == reference.loop_count_rows(list(sites))
    for site in sites:
        assert group.loop_states.get(site, frozenset()) == reference.loop_states_of(site)
    assert set(group.natural_hits) == reference.natural_faults()
    for fault in faults:
        frac = group.natural_hits.get(fault, 0) / group.n_runs if group.n_runs else 0.0
        assert frac == reference.fault_occurrence_frac(fault)
        assert group.natural_states.get(fault, frozenset()) == reference.states_of(fault)
    assert group.injected_states == reference.injected_states()
    assert group.reached == reference.reached()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(experiments())
def test_groups_and_fca_agree_with_the_oracle_on_drawn_traces(experiment):
    profile_runs, plan, injection_runs = experiment
    profile, profile_ref = _both(None, profile_runs)
    injection, injection_ref = _both(plan, injection_runs)
    sites = LOOPS + ("s.never",)
    faults = FAULTS + (plan.fault,)
    assert_same_queries(profile, profile_ref, sites, faults)
    assert_same_queries(injection, injection_ref, sites, faults)
    assert FaultCausalityAnalysis(REGISTRY, CONFIG).analyze(
        profile, injection
    ) == ReferenceFaultCausalityAnalysis(REGISTRY, CONFIG).analyze(profile_ref, injection_ref)
    for group in (profile, injection):
        assert group_from_obj(json.loads(json.dumps(group_to_obj(group)))) == group


def test_groups_and_fca_agree_with_the_oracle_on_the_minidfs_golden_campaign(monkeypatch):
    """Every group the minidfs benchmark campaign builds, and every FCA it
    runs, checked against the oracle built from the same traces."""
    system, config = CAMPAIGNS["minidfs_benchmark"]
    spec = get_system(system)
    sites = tuple(site.site_id for site in spec.registry)
    references = {}
    built = {"profile": 0, "injection": 0}
    of = RunGroup.of.__func__

    def checked_of(cls, test_id, injection, runs):
        group = of(cls, test_id, injection, runs)
        reference = ReferenceRunGroup(test_id=test_id, injection=injection)
        for run in runs:
            reference.add(run)
        faults = {event.fault for run in runs for event in run.events}
        assert_same_queries(group, reference, sites, sorted(faults))
        references[id(group)] = (group, reference)
        built["profile" if injection is None else "injection"] += 1
        return group

    analyses = []
    analyze = FaultCausalityAnalysis.analyze

    def checked_analyze(self, profile, injection):
        result = analyze(self, profile, injection)
        (profile_built, profile_ref), (injection_built, injection_ref) = (
            references[id(profile)], references[id(injection)]
        )
        assert profile_built is profile and injection_built is injection
        oracle = ReferenceFaultCausalityAnalysis(self.registry, self.config)
        assert result == oracle.analyze(profile_ref, injection_ref)
        analyses.append(result)
        return result

    monkeypatch.setattr(RunGroup, "of", classmethod(checked_of))
    monkeypatch.setattr(FaultCausalityAnalysis, "analyze", checked_analyze)
    Pipeline.default(spec, config).run()
    assert built["profile"] == len(spec.workloads)
    assert built["injection"] == len(analyses) > 100
    assert any(result.edges for result in analyses)
