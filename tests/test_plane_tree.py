import json
from collections import Counter, defaultdict
from math import factorial
from pathlib import Path

import pytest

from dessinjulia.catalog import series_tree
from dessinjulia.plane_tree import (BLACK, WHITE, Passport, PlaneTree,
                                    PlaneTreeError, enumerate_trees,
                                    invert_colors, is_rotational, mirror,
                                    parse_plane_code, passport_of, plane_code,
                                    symmetry_flags, trees_with_passport,
                                    vertices_by_degree)

# the six embeddings of the 15-edge passport <13,1,1|2,2,1,...,1>
BIG_PASSPORT = json.loads(
    (Path(__file__).parent / "big_passport_trees.json").read_text())

# non-symmetric tree-pair counts by edge number (independent of this code
# base; cross-checked again by the growth oracle below)
NONSYM_PAIRS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 5, 6: 9, 7: 33, 8: 85}

# plane trees by edge number, colors forgotten: Harary, Prins & Tutte, "The
# number of plane trees", Indag. Math. 26 (1964); OEIS A002995
PLANE_TREES = {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 14, 7: 34, 8: 95, 9: 280,
               10: 854}


# ------------------------------------------------ independent growth oracle


def _grow_all_trees(n_edges):
    """Every plane bipartite tree with n_edges edges, generated by repeated
    leaf insertion into every angular slot of every smaller tree.  Entirely
    independent of the enumeration under test (which walks the trees of
    each passport)."""
    other = {WHITE: BLACK, BLACK: WHITE}
    level = {WHITE: PlaneTree([WHITE], [[]]),
             BLACK: PlaneTree([BLACK], [[]])}
    for step in range(n_edges):
        grown = {}
        for tree in level.values():
            for v in range(tree.n_vertices):
                for slot in range(max(1, tree.degree(v))):
                    colors = list(tree.colors) + [other[tree.colors[v]]]
                    nbs = [list(nb) for nb in tree.neighbors] + [[v]]
                    nbs[v] = nbs[v][:slot] + [tree.n_vertices] + nbs[v][slot:]
                    new = PlaneTree(colors, nbs)
                    grown[plane_code(new)] = new
        level = grown
    return set(level)


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_matches_growth_oracle(n):
    oracle = _grow_all_trees(n)
    mine = {plane_code(t) for t in enumerate_trees(n, dedup_color_swap=False)}
    assert mine == oracle


def test_enumeration_counts_plane_trees():
    # with the color-swap pairs merged, one tree per uncolored plane tree
    assert {n: len(enumerate_trees(n)) for n in PLANE_TREES} == PLANE_TREES


@pytest.mark.parametrize("n", range(1, 9))
def test_nonsymmetric_pair_counts(n):
    trees = enumerate_trees(n)
    nonsym = [t for t in trees if not symmetry_flags(t)["rotational"]]
    assert len(nonsym) == NONSYM_PAIRS[n]


# --------------------------------------------------------- codes and parsing


def _rooted_walk(tree, root, start):
    """Reference walk, written plainly: "(" down each edge and ")" back up,
    the root's subtrees ccw from its neighbour slot ``start`` and every
    other vertex's ccw after the edge to its parent."""
    def down(v, parent):
        nb = tree.neighbors[v]
        i = nb.index(parent)
        return "".join("(" + down(u, v) + ")" for u in nb[i + 1:] + nb[:i])

    nb = tree.neighbors[root]
    return "".join("(" + down(u, root) + ")" for u in nb[start:] + nb[:start])


def _brute_force_code(tree):
    """The least (walk, white before black) over every root and start."""
    walk, color = min((_rooted_walk(tree, v, s), tree.colors[v] != WHITE)
                      for v in range(tree.n_vertices)
                      for s in range(tree.degree(v)))
    return (BLACK if color else WHITE) + walk


def _reference_trees():
    """Every tree with up to 9 edges, in both colorings and mirrored, the
    caterpillars and the 15-edge fixture trees."""
    for n in range(1, 10):
        for tree in enumerate_trees(n):
            for colored in (tree, invert_colors(tree)):
                yield colored
                yield mirror(colored)
    for family in (1, 2, 3):
        for n in range(3, 14):
            yield series_tree(family, n)
    for entry in BIG_PASSPORT["trees"]:
        yield parse_plane_code(entry["code"])


def test_plane_code_matches_brute_force():
    for tree in _reference_trees():
        assert plane_code(tree) == _brute_force_code(tree)


def test_symmetry_flags_match_brute_force():
    # rotational: two starts at one vertex give the same walk; mirror: the
    # reflection has the same code
    for tree in _reference_trees():
        rotational = any(
            len({_rooted_walk(tree, v, s) for s in range(tree.degree(v))})
            < tree.degree(v) for v in range(tree.n_vertices))
        mirrored = _brute_force_code(mirror(tree)) == _brute_force_code(tree)
        assert symmetry_flags(tree) == {"rotational": rotational,
                                        "mirror": mirrored}
        assert is_rotational(tree) == rotational


def test_code_round_trip():
    for n in range(1, 7):
        for tree in enumerate_trees(n, dedup_color_swap=False):
            code = plane_code(tree)
            assert plane_code(parse_plane_code(code)) == code


def test_parse_rejects_garbage():
    for bad in ("", "W((", "W())", "X()", "W()x", "(())"):
        with pytest.raises(PlaneTreeError):
            parse_plane_code(bad)


def test_canonical_code_is_rotation_invariant():
    # same tree entered with different child rotations at the root
    a = parse_plane_code("W(())()((()))()")
    b = parse_plane_code("W()((()))()(())")
    assert plane_code(a) == plane_code(b)


def test_mirror_and_invert_are_involutions():
    for tree in enumerate_trees(5, dedup_color_swap=False):
        assert plane_code(mirror(mirror(tree))) == plane_code(tree)
        assert plane_code(invert_colors(invert_colors(tree))) == \
            plane_code(tree)


def test_validate_catches_bad_structures():
    with pytest.raises(PlaneTreeError):
        # same-color edge
        PlaneTree([WHITE, WHITE], [[1], [0]]).validate()
    with pytest.raises(PlaneTreeError):
        # cycle
        PlaneTree([WHITE, BLACK, WHITE, BLACK],
                  [[1, 3], [0, 2], [1, 3], [2, 0]]).validate()


# ---------------------------------------------------------------- passports


def test_passport_normalization():
    pp = passport_of(parse_plane_code("W(()())()"))
    assert str(pp) == "3,1|2,1,1"
    assert pp.swapped  # the white side of this coloring was the smaller one
    assert pp.n_edges == 4


def test_passport_parse_round_trip():
    pp = Passport.parse("4,1|2,1,1,1")
    assert str(pp) == "4,1|2,1,1,1"
    with pytest.raises(PlaneTreeError):
        Passport.parse("4,1")
    with pytest.raises(PlaneTreeError):
        Passport.parse("2,1|2,1,1,1")  # sides disagree on edge count


def test_color_swap_dedup_keeps_representative():
    trees = enumerate_trees(4)
    # representative passports are never the swapped orientation
    assert all(not passport_of(t).swapped for t in trees)


# ----------------------------------------------------------------- symmetry


def test_symmetry_flags_examples():
    star = parse_plane_code("B(()()())")  # 4-star
    assert symmetry_flags(star)["rotational"]
    path = parse_plane_code("W((((()))))")  # 5-path: mirror but not rotational
    flags = symmetry_flags(path)
    assert flags["mirror"] and not flags["rotational"]
    chiral = parse_plane_code("W()(())((()))")
    assert not symmetry_flags(chiral)["mirror"]


def test_mirror_symmetric_tree_counts_6_edges():
    # of the nine non-symmetric 6-edge pairs, the paper-style catalog
    # distinguishes chiral trees (complex solutions) from mirror-symmetric
    # ones (real solutions); both kinds occur
    trees = [t for t in enumerate_trees(6)
             if not symmetry_flags(t)["rotational"]]
    kinds = {plane_code(t): symmetry_flags(t)["mirror"] for t in trees}
    assert len(kinds) == 9
    assert any(kinds.values()) and not all(kinds.values())


# ------------------------------------------------------ trees of a passport


def _tutte_rooted(white, black):
    """Tutte, "The number of planted plane trees with a given partition"
    (Amer. Math. Monthly 1964): plane trees with these degree multisets,
    rooted at an edge, number n (s-1)! (t-1)! / (prod m_d! prod m'_d!),
    where m_d counts the white (m'_d the black) vertices of degree d."""
    count = sum(white) * factorial(len(white) - 1) * factorial(len(black) - 1)
    for m in [*Counter(white).values(), *Counter(black).values()]:
        count //= factorial(m)
    return count


def _edge_rooted(trees):
    """Distinct edge-rooted versions: one walk per white vertex and start
    edge (every edge has exactly one white end)."""
    return len({_rooted_walk(t, v, s) for t in trees
                for v in range(t.n_vertices) if t.colors[v] == WHITE
                for s in range(t.degree(v))})


@pytest.mark.parametrize("n", range(2, 9))
def test_trees_with_passport_match_filter_and_tutte(n):
    by_passport = defaultdict(set)
    for tree in enumerate_trees(n, dedup_color_swap=False):
        white, black = (tuple(map(tree.degree, vs))
                        for vs in vertices_by_degree(tree))
        by_passport[white, black].add(plane_code(tree))
    for (white, black), codes in by_passport.items():
        trees = trees_with_passport(white, black)
        assert [plane_code(t) for t in trees] == sorted(codes)
        assert _edge_rooted(trees) == _tutte_rooted(white, black)


def test_trees_with_passport_beyond_enumeration():
    trees = trees_with_passport((4, 3, 1, 1, 1), (2, 2, 2, 2, 1, 1))
    assert len(trees) == 10
    assert _tutte_rooted((4, 3, 1, 1, 1), (2, 2, 2, 2, 1, 1)) == 10 * 10
    # the fixture codes are not canonical: compare canonical forms
    big = BIG_PASSPORT
    pp = Passport.parse(big["passport"])
    trees = trees_with_passport(pp.white, pp.black)
    assert [plane_code(t) for t in trees] == sorted(
        plane_code(parse_plane_code(e["code"])) for e in big["trees"])
    assert len(trees) == 6
    assert _tutte_rooted(pp.white, pp.black) == 15 * 6
