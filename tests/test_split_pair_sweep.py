"""verify-split-pair and hom-ext over a grid of small configurations, at
every layer and over Q, F_2, F_3 and F_5, and verify-inflation once for
each algebra of the grid.

Every verify-split-pair run either passes every check, with the cell-head
sequence among its big-side sequences in each characteristic, or is one of
the two known refusals of delta = 0 (exit 2 from the command line).  The
hom-ext runs have the same outcomes, walled ones with Ext^1 in every
characteristic, and one more that is pinned by argv so that it stays
visible: the known Ext^1 mismatches of Brauer n = 2 and walled(1,1) at
delta = 0, l = 0, which exit 1 over every field.  Any other outcome, a
traceback included, fails the test.  Every verify-inflation run passes,
delta = 0 included.  Parameters that name the same field element twice
(delta = -1 over F_2) run once.
"""

import pytest

from diagalg.cli import run
from diagalg.diagrams import DiagramError
from diagalg.fields import make_field

FIELDS = ["q", "fp:2", "fp:3", "fp:5"]
KNOWN_REFUSALS = ("delta = 0 with an even number of strands is excluded",
                  "delta = 0 idempotent needs a free column")
# hom-ext runs where Ext^1 differs across the pair, the small side below
# the big side
KNOWN_EXT_MISMATCHES = [
    ["--field", field, "--kind", *algebra, "--delta", "0", "--l", "0"]
    for field in FIELDS
    for algebra in (["abrauer", "--n", "2"], ["walled", "--r", "1", "--t", "1"])]


def _distinct(field, specs):
    """The specs whose field values (one or a comma list) are new."""
    seen = set()
    for spec in specs:
        value = tuple(field.parse(x) for x in spec.split(","))
        if value not in seen:
            seen.add(value)
            yield spec


def grid(family, field_spec, command="verify-split-pair"):
    field = make_field(field_spec)
    base = [command, "--field", field_spec, "--kind"]
    if family == "abrauer":
        for n in range(1, 5):
            for delta in _distinct(field, ["0", "1", "2", "-1"]):
                for l in range(n // 2 + 1):
                    yield base + [family, "--n", str(n), "--delta", delta, "--l", str(l)]
    elif family == "walled":
        for r, t in [(r, t) for r in range(1, 4) for t in range(1, 4) if r + t <= 5]:
            for delta in _distinct(field, ["0", "1", "2"]):
                for l in range(min(r, t) + 1):
                    yield base + [family, "--r", str(r), "--t", str(t), "--delta", delta,
                                  "--l", str(l)]
    else:
        for n in range(1, 4):
            for traces in _distinct(field, ["1,1", "0,1", "1,0", "2,1"]):
                for l in range(n // 2 + 1):
                    yield base + [family, "--n", str(n),
                                  "--deltas", traces, "--l", str(l)]


@pytest.mark.parametrize("field_spec", FIELDS)
@pytest.mark.parametrize("family", ["abrauer", "walled", "cyclotomic"])
def test_split_pair_sweep_passes_or_refuses_delta_zero(family, field_spec):
    passed = 0
    for argv in grid(family, field_spec):
        try:
            report, code = run(argv)
        except DiagramError as exc:
            assert str(exc).startswith(KNOWN_REFUSALS), (argv, str(exc))
            continue
        assert code == 0 and report["ok"], argv
        big_side = [s["name"] for s in report["sequences"] if s["side"] == "big"]
        assert big_side == [f"layer-chain({report['layer']})",
                            f"presentation(head(ind_{report['layer']}(trivial)))"], argv
        passed += 1
    assert passed


@pytest.mark.parametrize("field_spec", FIELDS)
@pytest.mark.parametrize("family", ["abrauer", "walled", "cyclotomic"])
def test_hom_ext_sweep_passes_or_has_a_pinned_outcome(family, field_spec):
    passed = 0
    for argv in grid(family, field_spec, command="hom-ext"):
        try:
            report, code = run(argv)
        except DiagramError as exc:
            assert str(exc).startswith(KNOWN_REFUSALS), (argv, str(exc))
            continue
        if argv[1:] in KNOWN_EXT_MISMATCHES:
            assert code == 1 and not report["ok"], argv
            continue
        assert code == 0 and report["ok"], argv
        passed += 1
    assert passed


@pytest.mark.parametrize("field_spec", FIELDS)
@pytest.mark.parametrize("family", ["abrauer", "walled", "cyclotomic"])
def test_inflation_sweep_passes(family, field_spec):
    # each algebra of the grid once, without its --l
    algebras = dict.fromkeys(tuple(argv[:-2])
                             for argv in grid(family, field_spec, command="verify-inflation"))
    for argv in algebras:
        report, code = run(list(argv))
        assert code == 0 and report["ok"], argv
    assert algebras
