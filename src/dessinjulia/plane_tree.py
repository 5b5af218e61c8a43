"""Plane bipartite trees: representation, canonical codes, enumeration, symmetry.

A plane tree is a tree together with a cyclic (counterclockwise) order of the
edges around every vertex.  Vertices are properly 2-colored white/black.  The
canonical code is the minimal balanced-parenthesis walk over all rootings,
prefixed by the root color; equal codes mean orientation-preserving,
color-preserving plane isomorphism.

The walks come from one contour walk around the tree: its 2E darts (an edge
walked one way) in order, dart i followed by the edge after it, ccw, at its
head, and partner[i] the same edge walked back.  The walk rooted at the
corner where dart r starts is the contour rotated by r, with "(" at dart i
exactly when (i - r) mod 2E < (partner[i] - r) mod 2E.  The least walk is
found one position at a time, keeping only the corners whose next symbol is
least.  Those corners are one orbit of the tree's rotations, which gives
the rotational flag; the mirror's contour is the same darts reversed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

WHITE = "W"
BLACK = "B"
ENUMERATE_EDGES = range(1, 13)  # the edge counts enumerate_trees takes


class PlaneTreeError(ValueError):
    pass


class ParseError(PlaneTreeError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class PlaneTree:
    """Bipartite tree with counterclockwise neighbor order at each vertex."""

    colors: list  # 'W' or 'B' per vertex
    neighbors: list  # list of neighbor id lists, ccw order

    @property
    def n_vertices(self):
        return len(self.colors)

    @property
    def n_edges(self):
        return sum(len(nb) for nb in self.neighbors) // 2

    def degree(self, v):
        return len(self.neighbors[v])

    def validate(self):
        n = self.n_vertices
        if n < 2:
            raise PlaneTreeError("tree needs at least one edge")
        if len(self.neighbors) != n:
            raise PlaneTreeError("colors/neighbors length mismatch")
        if self.n_edges != n - 1:
            raise PlaneTreeError("vertex count must equal edge count + 1")
        for v, nb in enumerate(self.neighbors):
            if self.colors[v] not in (WHITE, BLACK):
                raise PlaneTreeError(f"bad color at vertex {v}")
            for u in nb:
                if not 0 <= u < n:
                    raise PlaneTreeError(f"neighbor {u} of {v} out of range")
                if self.colors[u] == self.colors[v]:
                    raise PlaneTreeError(f"edge {v}-{u} joins equal colors")
                if nb.count(u) != 1 or self.neighbors[u].count(v) != 1:
                    raise PlaneTreeError(f"edge {v}-{u} not symmetric/simple")
        # connectivity (acyclicity then follows from the edge count)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            raise PlaneTreeError("tree is not connected")
        return self


@dataclass(frozen=True)
class Passport:
    """Sorted degree lists of the two color classes, white lexicographically
    not less than black; ``swapped`` records whether the colors were exchanged
    to meet that normalization."""

    white: tuple
    black: tuple
    swapped: bool = False

    def __post_init__(self):
        if tuple(sorted(self.white, reverse=True)) != self.white:
            raise PlaneTreeError("white degrees must be non-increasing")
        if tuple(sorted(self.black, reverse=True)) != self.black:
            raise PlaneTreeError("black degrees must be non-increasing")
        if sum(self.white) != sum(self.black):
            raise PlaneTreeError("degree sums differ")
        if self.white < self.black:
            raise PlaneTreeError("white list must be lexicographically >= black")

    @property
    def n_edges(self):
        return sum(self.white)

    def __str__(self):
        w = ",".join(map(str, self.white))
        b = ",".join(map(str, self.black))
        return f"{w}|{b}"

    @classmethod
    def parse(cls, text):
        try:
            w, b = text.split("|")
            white = tuple(sorted((int(x) for x in w.split(",")), reverse=True))
            black = tuple(sorted((int(x) for x in b.split(",")), reverse=True))
        except ValueError as exc:
            raise PlaneTreeError(f"bad passport {text!r}: {exc}") from None
        if any(d < 1 for d in white + black):
            raise PlaneTreeError("degrees must be positive")
        if white < black:
            white, black = black, white
        return cls(white, black)


def _contour(tree):
    """The contour walk of the tree: dart i runs from vertex tails[i] to its
    neighbour, and the next dart leaves that neighbour by the edge after it
    in ccw order.  partner[i] is the same edge walked back.  A tree has one
    face, so the 2E darts form one cycle, started at vertex 0's first
    edge."""
    if not tree.neighbors[0]:
        return [], []
    slot = [{u: j for j, u in enumerate(nb)} for nb in tree.neighbors]
    index = {}
    tails = []
    v, u = 0, tree.neighbors[0][0]
    while (v, u) not in index:
        index[v, u] = len(tails)
        tails.append(v)
        nb = tree.neighbors[u]
        v, u = u, nb[(slot[u][v] + 1) % len(nb)]
    heads = tails[1:] + tails[:1]
    return tails, [index[w, v] for v, w in zip(tails, heads)]


def _walk(partner, r):
    """Parenthesis walk from corner r: dart i opens its edge exactly when
    the walk meets it before its partner."""
    m = len(partner)
    return "".join("(" if j < (partner[(r + j) % m] - r) % m else ")"
                   for j in range(m))


def _least_corners(partner):
    """The corners whose walk is least: one position at a time, only the
    corners that open an edge there are kept (when any does)."""
    m = len(partner)
    corners = list(range(m))
    for j in range(m):
        if len(corners) == 1:
            break
        opens = [r for r in corners if (partner[(r + j) % m] - r) % m > j]
        corners = opens or corners
    return corners


def _code(colors, tails, partner):
    """Root color plus the least walk; ties go to a white root."""
    if not tails:
        return colors[0]
    corners = _least_corners(partner)
    r = next((r for r in corners if colors[tails[r]] == WHITE), corners[0])
    return colors[tails[r]] + _walk(partner, r)


def _mirrored(tails, partner):
    """Contour of the mirror image: the same darts in reverse order, each
    walked the other way."""
    m = len(tails)
    return ([tails[(1 - j) % m] for j in range(m)],
            [(-partner[-j % m]) % m for j in range(m)])


def plane_code(tree):
    """Canonical code: the least rooted walk over all 2E corners, prefixed
    by the root color; ties between root colors go to white."""
    return _code(tree.colors, *_contour(tree))


def parse_plane_code(text):
    """Parse a root-color-prefixed balanced-parenthesis code into a tree.

    Vertex 0 is the root; children keep the ccw order of the string, and a
    non-root vertex lists its parent first.
    """
    if not text or text[0] not in (WHITE, BLACK):
        raise ParseError("code must start with 'W' or 'B'", 0)
    colors = [text[0]]
    neighbors = [[]]
    stack = [0]
    for pos, ch in enumerate(text[1:], start=1):
        if ch == "(":
            parent = stack[-1]
            v = len(colors)
            colors.append(WHITE if colors[parent] == BLACK else BLACK)
            neighbors.append([parent])
            neighbors[parent].append(v)
            stack.append(v)
        elif ch == ")":
            stack.pop()
            if not stack:
                raise ParseError("unbalanced ')'", pos)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    if len(stack) != 1:
        raise ParseError("unbalanced '(' left open", len(text))
    if len(colors) < 2:
        raise ParseError("code encodes no edge", len(text))
    return PlaneTree(colors, neighbors).validate()


def vertices_by_degree(tree):
    """(white vertices, black vertices), each by decreasing degree; ties
    keep vertex order."""
    return tuple(sorted((v for v in range(tree.n_vertices)
                         if tree.colors[v] == color),
                        key=tree.degree, reverse=True)
                 for color in (WHITE, BLACK))


def passport_of(tree):
    white, black = (tuple(map(tree.degree, vs))
                    for vs in vertices_by_degree(tree))
    if white < black:
        return Passport(black, white, swapped=True)
    return Passport(white, black, swapped=False)


def invert_colors(tree):
    flip = {WHITE: BLACK, BLACK: WHITE}
    return PlaneTree([flip[c] for c in tree.colors],
                     [list(nb) for nb in tree.neighbors])


def pair_representative(tree):
    """(representative, swapped): the member of the color-swap pair that
    the catalog lists, and whether it is the inverted tree.  It has the
    passport with the white side lexicographically largest, and the
    smaller canonical code on a self-dual passport."""
    inv = invert_colors(tree)
    if passport_of(tree).swapped or (not passport_of(inv).swapped
                                     and plane_code(inv) < plane_code(tree)):
        return inv, True
    return tree, False


def mirror(tree):
    """Reflection: all cyclic orders reversed."""
    return PlaneTree(list(tree.colors),
                     [list(reversed(nb)) for nb in tree.neighbors])


def _rotational(colors, tails, partner):
    """Whether a nontrivial rotation fixes a vertex.  The corners of least
    walk are one orbit of the rotations; a rotation about an edge's midpoint
    swaps the colors of its ends, one about a vertex keeps every color."""
    corners = _least_corners(partner)
    return len(corners) > 1 and \
        len({colors[tails[r]] for r in corners}) == 1


def is_rotational(tree):
    """The rotational flag of symmetry_flags alone."""
    return _rotational(tree.colors, *_contour(tree))


def symmetry_flags(tree):
    """rotational: some vertex admits a nontrivial rotation automorphism;
    mirror: tree is plane-isomorphic to its reflection (colors kept)."""
    tails, partner = _contour(tree)
    return {
        "rotational": _rotational(tree.colors, tails, partner),
        "mirror": _code(tree.colors, *_mirrored(tails, partner))
        == _code(tree.colors, tails, partner),
    }


def _partitions(n, largest=None):
    """The partitions of n as non-increasing tuples, parts at most
    ``largest``."""
    if n == 0:
        return [()]
    return [(d,) + rest for d in range(min(n, largest or n), 0, -1)
            for rest in _partitions(n - d, d)]


def enumerate_trees(n_edges, dedup_color_swap=True):
    """One representative per plane-isomorphism class with ``n_edges`` edges,
    deduplicated across the color-swap pair, sorted by canonical code.

    The trees are those of every passport of n edges: every pair of
    partitions of n with s + t = n + 1 parts.  With the dedup, only passports
    with the white side lexicographically not less than the black are
    walked, and on a self-dual one the trees whose pair representative is
    the color swap are dropped (``pair_representative``).

    The cost grows about 3.3-fold per edge.  Single runs on a shared 2-core
    host took 0.03 s for the 95 trees of 8 edges, 0.10 s (280 trees at 9),
    0.23 s (854 at 10), 1.1 s (2,694 at 11) and 3.4 s (8,714 at 12).
    """
    if n_edges not in ENUMERATE_EDGES:
        raise PlaneTreeError("n_edges must be in 1..12")
    codes = set()
    for white, black in product(_partitions(n_edges), repeat=2):
        if len(white) + len(black) != n_edges + 1 or \
                dedup_color_swap and white < black:
            continue
        found = _passport_codes(white, black)
        if dedup_color_swap and white == black:
            found = {code for code in found
                     if not pair_representative(parse_plane_code(code))[1]}
        codes |= found
    return [parse_plane_code(code) for code in sorted(codes)]


def _passport_codes(white, black):
    """The canonical codes of every plane tree whose white and black
    vertices have the given degree multisets (colors as given).

    Walks are grown in preorder from a white vertex of the largest degree,
    one start edge per walk; each new vertex takes a degree still left in
    its color's multiset, so only realizing shapes are built.  The rootings
    of one tree are merged by canonical code."""
    left = {WHITE: Counter(white), BLACK: Counter(black)}
    left[WHITE][max(white)] -= 1
    codes = set()

    def grow(walk, stack):
        # stack: (color of the children, children still to place) per open
        # vertex, root first
        while stack[-1][1] == 0:
            if len(stack) == 1:
                if not any(left[WHITE].values()) and \
                        not any(left[BLACK].values()):
                    codes.add(plane_code(parse_plane_code(WHITE + walk)))
                return
            stack = stack[:-1]
            walk += ")"
        color, todo = stack[-1]
        stack = stack[:-1] + ((color, todo - 1),)
        other = WHITE if color == BLACK else BLACK
        for d in sorted(left[color]):
            if left[color][d]:
                left[color][d] -= 1
                grow(walk + "(", stack + ((other, d - 1),))
                left[color][d] += 1

    grow("", ((BLACK, max(white)),))
    return codes


def trees_with_passport(white, black):
    """Every plane tree whose white and black vertices have the given degree
    multisets (colors as given, no color-swap dedup), sorted by canonical
    code."""
    return [parse_plane_code(code)
            for code in sorted(_passport_codes(white, black))]
