"""Differential-oracle behaviour: clean passes, skip logic, and the
failure report a caught mutant produces."""

import pytest

from repro.verify import (
    ConformanceError,
    DifferentialOracle,
    FuzzCase,
    SCHEDULE_STACKS,
    generate_case,
)
from repro.core.registry import STACKS
from repro.verify.corpus import DEFAULT_CORPUS_PATH, load_corpus


def test_clean_oracle_passes_generated_stream(clean_oracle):
    for i in range(15):
        case = generate_case(0, i, max_n=16)
        report = clean_oracle.check(case)
        assert report.checks > 0
        assert "theorem1" in report.cycles
        assert report.cycles["buffered"] >= 0
        assert report.cycles["switchsim"] >= 0


def test_clean_oracle_passes_seed_corpus(clean_oracle):
    cases = load_corpus(DEFAULT_CORPUS_PATH)
    assert len(cases) >= 6
    for case in cases:
        assert clean_oracle.passes(case)


def test_report_counts_unroutable_on_degraded_tree(clean_oracle):
    case = FuzzCase(
        label="dead-quadrant",
        n=8,
        w=8,
        src=(0, 1, 4, 5),
        dst=(4, 5, 0, 1),
        dead_switches=((1, 1),),  # severs the right half from the root
    )
    report = clean_oracle.check(case)
    assert report.num_unroutable > 0
    assert report.num_routable + report.num_unroutable == report.num_messages


def test_corollary2_skipped_on_universal_profile(clean_oracle):
    case = FuzzCase(label="u", n=8, w=8, src=(0, 1, 2), dst=(7, 6, 5))
    report = clean_oracle.check(case)
    assert "corollary2" in report.skipped
    assert "corollary2" not in report.cycles


def test_corollary2_runs_on_wide_profile(clean_oracle):
    case = FuzzCase(
        label="wide", n=8, w=5, src=(0, 1, 2), dst=(7, 6, 5), profile="constant"
    )
    report = clean_oracle.check(case)
    assert report.skipped == ()
    assert "corollary2" in report.cycles


def test_obs_checks_cover_corollary2():
    """A Cor 2 runner that drops ``obs=`` emits no cycle events; the
    obs-accounting check must notice on a case where Cor 2 applies."""
    from repro.core import schedule_corollary2

    oracle = DifferentialOracle(
        overrides={
            "corollary2": lambda ft, m, *, seed, max_cycles, obs=None: (
                schedule_corollary2(ft, m)
            )
        }
    )
    case = FuzzCase(
        label="wide", n=8, w=5, src=(0, 1, 2), dst=(7, 6, 5), profile="constant"
    )
    with pytest.raises(ConformanceError, match="corollary2: 0 cycle events"):
        oracle.check(case)


def test_schedule_stacks_all_covered_somewhere(clean_oracle):
    covered = set()
    for i in range(40):
        report = clean_oracle.check(generate_case(0, i, max_n=16))
        covered |= set(report.cycles)
    assert set(SCHEDULE_STACKS) <= covered


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown stack override"):
        DifferentialOracle(overrides={"not-a-stack": lambda *a, **k: None})


def test_mutant_failure_report(mutant_oracle, clean_oracle):
    case = FuzzCase(
        label="saturating",
        n=8,
        w=2,
        src=(0, 1, 2, 3) * 3,
        dst=(4, 5, 6, 7) * 3,
    )
    assert clean_oracle.passes(case)
    with pytest.raises(ConformanceError) as excinfo:
        mutant_oracle.check(case)
    err = excinfo.value
    assert err.case == case
    assert err.failures
    assert any("theorem1" in f for f in err.failures)
    # the exception message embeds the paste-able JSON reproducer
    assert case.to_json() in str(err)
    assert not mutant_oracle.passes(case)


def test_cycle_counts_respect_lambda_floor(clean_oracle):
    import math

    for i in range(10):
        report = clean_oracle.check(generate_case(7, i, max_n=16))
        floor = math.ceil(report.lam) if report.num_routable else 0
        for name, cycles in report.cycles.items():
            assert cycles >= floor, f"{name} beat the λ lower bound"


def test_chaos_checks_cover_timeline_cases(clean_oracle):
    case = FuzzCase(
        label="chaotic",
        n=8,
        w=8,
        src=(0, 1, 2, 5),
        dst=(7, 6, 5, 2),
        chaos_events=(
            {"at": 1, "kind": "wire-drop", "level": 1, "index": 0, "count": 2},
            {"at": 3, "kind": "wire-repair", "level": 1, "index": 0, "count": 2},
        ),
    )
    report = clean_oracle.check(case)
    assert "chaos-random-rank" in report.cycles
    assert "chaos-theorem1" in report.cycles


def test_chaos_checks_cover_every_stack(clean_oracle):
    """On a case where Corollary 2 applies, every registry stack runs
    under the case's timeline."""
    case = FuzzCase(
        label="wide",
        n=8,
        w=5,
        src=(0, 1, 2, 5),
        dst=(7, 6, 5, 2),
        profile="constant",
        chaos_events=(
            {"at": 1, "kind": "wire-drop", "level": 1, "index": 0, "count": 2},
            {"at": 3, "kind": "wire-repair", "level": 1, "index": 0, "count": 2},
        ),
    )
    report = clean_oracle.check(case)
    assert {f"chaos-{name}" for name in STACKS} <= set(report.cycles)


def _drop_last_cycle(stack, monkeypatch):
    """Patch the chaos entry point so that ``stack``'s runs silently
    lose their last delivery cycle."""
    import dataclasses as dc

    import repro.chaos as chaos_mod
    from repro.core import Schedule

    real = chaos_mod.run_chaos

    def lossy(name, ft, messages, timeline, **kwargs):
        out = real(name, ft, messages, timeline, **kwargs)
        if name != stack or not out.cycle_stats:
            return out
        if isinstance(out, Schedule):
            return dc.replace(
                out, cycles=out.cycles[:-1], cycle_stats=out.cycle_stats[:-1]
            )
        return dc.replace(
            out,
            cycles=out.cycles - 1,
            reports=out.reports[:-1],
            cycle_stats=out.cycle_stats[:-1],
        )

    monkeypatch.setattr(chaos_mod, "run_chaos", lossy)


def test_chaos_checks_catch_a_broken_chaos_runner(clean_oracle, monkeypatch):
    """The empty-timeline identity check runs on every case: a chaos
    runner that silently loses a delivery cycle must fail conformance."""
    _drop_last_cycle("random-rank", monkeypatch)
    case = FuzzCase(label="u", n=8, w=8, src=(0, 1, 2), dst=(7, 6, 5))
    with pytest.raises(ConformanceError) as excinfo:
        clean_oracle.check(case)
    assert any("chaos" in f for f in excinfo.value.failures)
    assert not clean_oracle.passes(case)


def test_chaos_checks_catch_a_broken_switchsim_runner(clean_oracle, monkeypatch):
    """The hardware stacks run under chaos too: a switch simulator whose
    chaos run loses its last delivery cycle must fail conformance."""
    _drop_last_cycle("switchsim", monkeypatch)
    case = FuzzCase(label="u", n=8, w=8, src=(0, 1, 2), dst=(7, 6, 5))
    with pytest.raises(ConformanceError) as excinfo:
        clean_oracle.check(case)
    assert any(f.startswith("chaos-switchsim:") for f in excinfo.value.failures)
