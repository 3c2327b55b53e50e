"""`jsonio.dumps` against the stdlib encoder it replaces, and the winding of the OFF export's faces."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_pd_form_box6
from voroseg import extension, jsonio, lattice, polytope

DATA = Path(__file__).parent / "data"
# inputs, not `dumps` outputs: a form document, and a belts listing and the pinned
# draws of tests/test_polytope.py's strategy with one entry per line
NOT_RENDERED = {"form_d4_mixed.json", "belts_off.json", "symmetric_draws.json"}

documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(documents)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}, [[]]], "": {"": {}}})
@example([1, True, 0, False, None])
@example(["1", 1, "-1", -1])
@example({"\xe9": "\xfc \u2603 \U0001d11e \u2028\u2029", "\x00\x1f\x7f": "\"\\\n\t\r\b\f/", "\ud800": ["\udfff", "\x1b"]})
@example([-1, 0, -(10**40), 10**300, [2**64, -(2**63)]])
# lists of int vectors, which `_render` joins one vector at a time, and near misses that it must not
@example([[1, 2], [3]])
@example([[1, True], [2]])
@example([[], [1]])
@example([[[1]], [2]])
@example([(1, 2), [3, 4]])
# the package's tuples, which the writers hand over uncopied: each renders as a list, the empty one as []
@example({"minima": ((1, 2), (-1, -2)), "parity": (1, 0), "notes": (), "witnesses": ({"normal": (1, -1)},)})
@example({"incidence": ((0, 2), (), (1,)), "notes": ("a", "b"), "e": None})
def test_dumps_matches_stdlib_indent_encoder(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_refuses_what_the_documents_never_hold():
    with pytest.raises(TypeError):
        jsonio.dumps({1: "a"})  # json.dumps would write the key as "1"
    with pytest.raises(TypeError):
        jsonio.dumps({"a": [object()]})


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json") if p.name not in NOT_RENDERED))
def test_dumps_reproduces_every_cli_golden(name):
    text = (DATA / name).read_text()
    assert jsonio.dumps(json.loads(text)) == text


def _off_faces(text: str) -> list[list[int]]:
    lines = text.splitlines()
    nv, nf, _ = map(int, lines[1].split())
    return [[int(x) for x in line.split()[1:]] for line in lines[2 + nv : 2 + nv + nf]]


def test_off_faces_are_convex_and_counterclockwise_from_outside():
    # a cell centred at 0 has every face plane <n, x> = s with s > 0, so for a, b and
    # q on a face, (b - a) x (q - a) is a positive multiple of the outward normal n iff
    # its product with a is positive: q lies left of the edge a -> b seen from outside,
    # and a face is a convex counterclockwise cycle iff that holds for all its edges
    rng = random.Random(5)
    forms = [a for _, n, a in lattice.catalog_entries(3) if n == 3]
    forms += [random_pd_form_box6(rng, 3) for _ in range(4)]
    cells = []
    for a in forms:
        cell = polytope.voronoi_cell(a)
        cells.append(cell)
        for e in extension.dual_set(lattice.coset_minima(a).facet_normals()).members:
            cells.append(extension.sum_with_segment(cell, extension.Direction(e, F(1, 2))))
    for v in cells:
        faces = _off_faces(jsonio.to_off(v))
        assert [sorted(f) for f in faces] == [sorted(v.incidence[i]) for i in v.facet_ids]
        for f in faces:
            pts = [v.points[i] for i in f]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                u = [y - x for x, y in zip(a, b)]
                for q in pts:
                    w = [y - x for x, y in zip(a, q)]
                    c = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
                    assert q in (a, b) or sum(x * y for x, y in zip(c, a)) > 0, (v.hpoly.normals, f)
