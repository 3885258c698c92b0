"""Phased saturation: the sketch DSL, phase plans, rule tagging, and
phase-boundary determinism (DESIGN.md §13).

The determinism contract under test: a phase boundary is a pure
function of its input term -- extracting after phase N and re-seeding
yields the same final program as a fresh run of phases N+1.. from that
term, and none of it depends on PYTHONHASHSEED.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.compiler import CompileOptions, _selected_plan, compile_spec
from repro.dsl.ast import Term
from repro.kernels import get_kernel
from repro.phases import (
    All,
    AnyOf,
    Contains,
    CountAtLeast,
    NoneOf,
    NoneUnder,
    Not,
    Phase,
    PhasePlan,
    default_plan,
    execute_plan,
    plan_from_json,
    sketch_from_json,
)
from repro.rules import build_ruleset

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _num(v):
    return Term("Num", value=v)


def _sym(s):
    return Term("Symbol", value=s)


#: Concat(Vec(1, 2), Vec(a, 4)) -- a vectorized shape.
VEC_TERM = Term(
    "Concat",
    (
        Term("Vec", (_num(1), _num(2))),
        Term("Vec", (_sym("a"), _num(4))),
    ),
)
#: List(a + b * 2) -- a scalar shape with one + and one *.
SCALAR_TERM = Term(
    "List", (Term("+", (_sym("a"), Term("*", (_sym("b"), _num(2))))),)
)


# ------------------------------------------------------------- sketches


def test_contains_and_count():
    assert Contains("Vec").satisfied(VEC_TERM)
    assert not Contains("Vec").satisfied(SCALAR_TERM)
    assert Contains("Vec").score(SCALAR_TERM) == 0.0
    assert CountAtLeast("Vec", 2).satisfied(VEC_TERM)
    assert CountAtLeast("Vec", 4).score(VEC_TERM) == 0.5
    with pytest.raises(ValueError):
        CountAtLeast("Vec", 0)


def test_none_of_scores_decay_with_violations():
    sketch = NoneOf(("*", "+"))
    assert sketch.satisfied(VEC_TERM)
    # SCALAR_TERM has one + and one * -> 2 violations.
    assert sketch.score(SCALAR_TERM) == pytest.approx(1.0 / 3.0)
    assert not sketch.satisfied(SCALAR_TERM)


def test_none_under_is_scoped():
    sketch = NoneUnder("Concat", ("*",))
    assert sketch.satisfied(SCALAR_TERM), "scalar * outside Concat is fine"
    bad = Term("Concat", (Term("Vec", (Term("*", (_sym("a"), _num(2))),)),))
    assert not sketch.satisfied(bad)


def test_not_and_junctions():
    assert Not(Contains("List")).satisfied(VEC_TERM)
    assert not Not(Contains("List")).satisfied(SCALAR_TERM)
    both = All(Contains("Concat"), Contains("Vec"))
    assert both.satisfied(VEC_TERM)
    assert both.score(SCALAR_TERM) == 0.0
    either = AnyOf(Contains("List"), Contains("Vec"))
    assert either.satisfied(VEC_TERM) and either.satisfied(SCALAR_TERM)


def test_bias_hints_required_and_forbidden():
    layout_goal = All(
        Contains("Concat"), Contains("Vec"), Not(Contains("List"))
    )
    assert layout_goal.required_ops() == frozenset({"Concat", "Vec"})
    # Not() swaps sides: the inner Contains' requirement becomes a
    # forbidden op, which the executor turns into an extraction penalty.
    assert layout_goal.forbidden_ops() == frozenset({"List"})
    assert NoneOf(("*",)).forbidden_ops() == frozenset({"*"})


def test_sketch_json_round_trip():
    sketches = [
        Contains("VecMAC"),
        CountAtLeast("Vec", 3),
        NoneOf(("*", "+", "-")),
        NoneUnder("Concat", ("*",)),
        Not(Contains("List")),
        All(Contains("Vec"), NoneOf(("+",))),
        AnyOf(Contains("VecMAC"), Contains("VecMul")),
    ]
    for sketch in sketches:
        clone = sketch_from_json(json.loads(json.dumps(sketch.to_json())))
        assert clone == sketch, sketch


# ---------------------------------------------------------------- plans


def test_plan_fingerprint_is_stable_and_content_bearing():
    assert default_plan(4).fingerprint() == default_plan(4).fingerprint()
    assert default_plan(4).fingerprint() != default_plan(8).fingerprint()
    plan = default_plan(4)
    edited = PhasePlan(
        plan.name,
        (plan.phases[0],) + tuple(
            Phase(
                name=p.name,
                rule_tags=p.rule_tags,
                iter_limit=p.iter_limit + 1,
                sketch=p.sketch,
                on_miss=p.on_miss,
                extend_limit=p.extend_limit,
            )
            for p in plan.phases[1:]
        ),
    )
    assert edited.fingerprint() != plan.fingerprint()
    # JSON round-trip preserves content, hence the fingerprint: a plan
    # loaded from --phase-plan can resume the checkpoint it wrote.
    assert plan_from_json(plan.to_json()).fingerprint() == plan.fingerprint()


def test_plan_validation():
    with pytest.raises(ValueError):
        Phase(name="x", on_miss="explode")
    with pytest.raises(ValueError):
        Phase(name="x", extend_limit=0)
    with pytest.raises(ValueError):
        PhasePlan("empty", ())
    # Tag order is canonicalized so it cannot move the fingerprint.
    assert Phase(name="x", rule_tags=("b", "a")) == Phase(
        name="x", rule_tags=("a", "b")
    )


def test_rule_tag_filtering():
    everything = {r.name for r in build_ruleset()}
    split_only = {r.name for r in build_ruleset(only_tags=("split",))}
    mac_only = {r.name for r in build_ruleset(only_tags=("mac",))}
    assert split_only and split_only < everything
    assert any(name.startswith("list-split") for name in split_only)
    assert any(name.startswith("vec-mac") for name in mac_only)
    assert not any(name.startswith("vec-mac") for name in split_only)
    # Untagged rules survive every filter by design (a project-local
    # extra rule should not silently vanish from phased compiles)...
    from repro.egraph.rewrite import rewrite

    extra = rewrite("extra-untagged", "(+ ?a 0)", "?a")
    assert not extra.tags
    filtered = {
        r.name
        for r in build_ruleset(only_tags=("mac",), extra_rules=[extra])
    }
    assert "extra-untagged" in filtered
    # ...and a filter matching nothing is a loud error, not a silent
    # empty saturation.
    with pytest.raises(ValueError):
        build_ruleset(only_tags=("no-such-tag",))


# ------------------------------------------------------- auto selection


def test_auto_selection_thresholds():
    small = get_kernel("matmul-2x2-2x2").spec()
    large = get_kernel("2dconv-8x8-4x4").spec()
    assert _selected_plan(small, CompileOptions(phases="auto")) is None
    assert _selected_plan(large, CompileOptions(phases="auto")) is not None
    assert _selected_plan(small, CompileOptions(phases="on")) is not None
    assert _selected_plan(large, CompileOptions(phases="off")) is None
    custom = default_plan(8)
    picked = _selected_plan(
        small, CompileOptions(phases="on", phase_plan=custom)
    )
    assert picked is custom

    from repro.errors import SaturationError

    with pytest.raises(SaturationError):
        _selected_plan(small, CompileOptions(phases="maybe"))


def test_auto_is_byte_identical_to_off_below_threshold():
    """Existing quick kernels must be untouched by the phasing knob:
    auto stays monolithic below the threshold."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, seed=0)
    auto = compile_spec(spec, options)
    off = compile_spec(
        spec, CompileOptions(time_limit=None, validate=False, seed=0,
                             phases="off")
    )
    assert auto.phases is None and off.phases is None
    assert auto.program.fingerprint() == off.program.fingerprint()
    assert auto.c_code == off.c_code
    assert auto.cost == off.cost


# ------------------------------------------- phase-boundary determinism


class _BoundarySpec:
    """Spec stand-in seeding a plan run from a phase-boundary term."""

    def __init__(self, name, term):
        self.name = name
        self.term = term


def test_phase_boundary_is_a_pure_function_of_its_term():
    """Extract after phase N + re-seed == fresh run of phases N+1..
    from that term."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0)
    plan = default_plan(options.vector_width)

    full = execute_plan(spec, options, plan)
    assert full.plan_report.completed

    prefix = PhasePlan("prefix", plan.phases[:1])
    suffix = PhasePlan("suffix", plan.phases[1:])
    boundary = execute_plan(spec, options, prefix)
    assert not boundary.failed
    resumed = execute_plan(
        _BoundarySpec(spec.name, boundary.term), options, suffix
    )
    assert not resumed.failed
    assert resumed.term == full.term


_HASHSEED_SCRIPT = """
import json
from repro.compiler import CompileOptions, compile_spec
from repro.kernels import get_kernel

kernel = get_kernel("matmul-2x2-2x2")
options = CompileOptions(time_limit=None, validate=False, phases="on", seed=0)
result = compile_spec(kernel.spec(), options)
print(json.dumps({
    "fingerprint": result.program.fingerprint(),
    "cost": result.cost,
    "plan": result.phases.summary(),
    "rounds": [len(p.rounds) for p in result.phases.phases],
}, sort_keys=True))
"""


def _run_hashseed(hashseed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True,
        env=env,
        cwd=REPO,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_phased_compile_is_hashseed_independent():
    assert _run_hashseed("1") == _run_hashseed("2"), (
        "phased compilation output depends on PYTHONHASHSEED; phase "
        "checkpoints would not resume across machines"
    )


@pytest.fixture(scope="module")
def phased_conv():
    spec = get_kernel("2dconv-8x8-4x4").spec()
    return compile_spec(spec, CompileOptions(time_limit=None, validate=False))


def test_phased_rule_stats_count_each_round_once(phased_conv):
    """Each extend round's scheduler starts from the previous round's
    cumulative rule stats; the merged report must add only each
    round's own work, not count earlier rounds again."""
    result = phased_conv
    rounds = [r for p in result.phases.phases for r in p.rounds]
    assert any(len(p.rounds) > 1 for p in result.phases.phases)
    stats = result.report.rule_stats.values()
    assert sum(s.matches for s in stats) == sum(
        it.matches for it in result.report.iterations
    )
    assert sum(s.search_time for s in stats) <= sum(r.elapsed for r in rounds)


def test_phased_seed_version_is_phase_zero_seed(phased_conv):
    """The merged report's seed version is the size of ``spec.term``
    seeded into a fresh graph: phase 0's first round, which seeds
    exactly that term (value computed when a separate up-front graph
    still measured it)."""
    first_round = phased_conv.phases.phases[0].rounds[0]
    assert phased_conv.report.seed_version == 2074
    assert first_round.seed_version == 2074
