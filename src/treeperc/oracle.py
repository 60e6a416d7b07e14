"""Independent brute-force oracles for the resolution and percolation engines.

Everything here recomputes quantities from first principles — explicit
inclusion-exclusion, exhaustive state enumeration, hitting-set search and
simplicial homology — deliberately sharing no code path with the production
recursions, so that agreement between the two routes is meaningful evidence.
All oracles are exponential and enforce small-size caps.

Squarefree monomial sets are stored as variable bitmasks.  The three routes:

  * union_probability_exhaustive sums over all 2^V on/off states;
  * taylor_numerator expands the alternating subset sum over generators,
    whose x = 1 specialization equals the minimal numerator's;
  * multigraded_betti_homology reads each graded Betti number off the reduced
    rational homology of the upper Koszul subcomplexes indexed by the lcm
    lattice.  Boundary ranks are taken over GF(2); a rank mod 2 is at most
    the rank over Q, and both homologies have the same Euler characteristic,
    so GF(2) homology in at most one degree is the rational homology.

alexander_dual enumerates minimal transversals; path systems and cut systems
of a graph are each other's duals, which the tree and double-bridge fixtures
exercise.

cut_gf_recursive is the bivariate cut recursion that resolutions.cut_gf
solved in closed form; it is kept as the second route to the cut generating
function, exact but slow beyond small depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bivar import BivarPoly
from .limits import BudgetExceededError, TreepercError, check_tree
from .resolutions import BettiTable, _check_poly_budget
from .trees import TreeSpec, enumerate_minimal_cuts, enumerate_path_generators

ORACLE_STATE_CAP = 24  # 2^V states for the exhaustive route
ORACLE_SUBSET_CAP = 20  # 2^G subsets for the alternating sum
ORACLE_HOMOLOGY_CAP = 14  # 2^V candidate faces per lattice point
ORACLE_FRONTIER_CAP = 1 << 20  # partial transversals kept by alexander_dual


@dataclass(frozen=True)
class MonomialSet:
    """A minimal squarefree monomial generating set over named variables.

    generators holds one bitmask per monomial (bit v = variable v divides).
    Minimality (no generator divides another) and nonemptiness of every
    generator are enforced; generators are stored sorted and deduplicated.
    """

    variables: tuple[str, ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        full = (1 << len(self.variables)) - 1
        gens = sorted(set(self.generators))
        for g in gens:
            if g == 0:
                raise ValueError("the unit monomial generates everything; not allowed")
            if g & ~full:
                raise ValueError("generator mentions an unnamed variable")
        for a in gens:
            for b in gens:
                if a != b and a & b == a:
                    raise ValueError("generating set is not minimal")
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def from_supports(cls, variables: tuple[str, ...] | list[str],
                      supports) -> "MonomialSet":
        names = tuple(variables)
        index = {name: i for i, name in enumerate(names)}
        masks = []
        for sup in supports:
            mask = 0
            for name in sup:
                mask |= 1 << index[name]
            masks.append(mask)
        return cls(names, tuple(masks))

    def support_names(self, mask: int) -> tuple[str, ...]:
        return tuple(name for i, name in enumerate(self.variables) if mask >> i & 1)


def tree_variables(spec: TreeSpec) -> tuple[str, ...]:
    return tuple(f"x{label}" for label in range(1, spec.edge_count + 1))


def path_monomials(spec: TreeSpec) -> MonomialSet:
    return MonomialSet(tree_variables(spec), tuple(enumerate_path_generators(spec)))


def cut_monomials(spec: TreeSpec) -> MonomialSet:
    return MonomialSet(tree_variables(spec), tuple(enumerate_minimal_cuts(spec)))


# -- bivariate cut recursion ---------------------------------------------------


def cut_gf_recursive(k: int, n: int, *, x_truncation: int | None = None) -> BivarPoly:
    """Gc_{k,n}(x, t) for the cut ideal by the bivariate recursion.

    Recursion: base t^k x, step x^-(k-1) * ((1+tx)(1+Gc) - 1)^k.  Every factor
    in the k-th power has minimum x-degree 1, so the power has minimum
    x-degree k and the division by x^(k-1) is exact; a failure there raises
    InexactDivisionError (it would mean the recursion invariant broke).

    With ``x_truncation=m``: factors are pre-truncated at m and the power at
    m + k - 1, which after the exact shift yields precisely the full result
    truncated at m.
    """
    check_tree(k, n)
    g = BivarPoly.monomial(1, k)
    if x_truncation is not None and x_truncation < 1:
        g = g.truncate_x(x_truncation)
    one_plus_tx = BivarPoly.one() + BivarPoly.monomial(1, 1)
    for _ in range(2, n + 1):
        f = one_plus_tx * (BivarPoly.one() + g) - 1
        power_trunc = None
        if x_truncation is not None:
            f = f.truncate_x(x_truncation)
            power_trunc = x_truncation + k - 1
        g = f.power(k, power_trunc).exact_divide_x(k - 1)
        if x_truncation is not None:
            g = g.truncate_x(x_truncation)
        _check_poly_budget(g)
    return g


# -- exhaustive probability ----------------------------------------------------


def union_probability_exhaustive(monomials: MonomialSet, r: Fraction | int) -> Fraction:
    """Probability that at least one generator has all its variables active,
    each variable independently active with probability r.  Sums all 2^V
    states exactly."""
    nvars = len(monomials.variables)
    if nvars > ORACLE_STATE_CAP:
        raise BudgetExceededError("exhaustive oracle variables", ORACLE_STATE_CAP, nvars)
    gens = monomials.generators
    counts = [0] * (nvars + 1)
    for state in range(1 << nvars):
        for g in gens:
            if state & g == g:
                counts[state.bit_count()] += 1
                break
    rf = Fraction(r)
    sf = 1 - rf
    return sum((c * rf ** w * sf ** (nvars - w) for w, c in enumerate(counts) if c),
               start=Fraction(0))


def reliability_exhaustive(spec: TreeSpec, p: Fraction | int) -> Fraction:
    """Percolation probability of T(k, n) by exhaustive enumeration of edge
    states: at least one root-to-leaf path fully operative."""
    return union_probability_exhaustive(path_monomials(spec), p)


def failure_exhaustive(spec: TreeSpec, q: Fraction | int) -> Fraction:
    """Failure probability by the cut route: at least one minimal cut fully
    failed, each edge failing with probability q."""
    return union_probability_exhaustive(cut_monomials(spec), q)


# -- alternating subset sum ----------------------------------------------------


def taylor_numerator(monomials: MonomialSet) -> BivarPoly:
    """The alternating sum over nonempty generator subsets S of
    (-1)^(|S|+1) x^|S| t^deg(lcm S).

    Its x = 1 specialization equals that of the minimal bigraded numerator
    (both compute the same inclusion-exclusion / Euler characteristic in each
    t-degree), which is the identity the verify checks use.  The bigraded
    refinement itself need not be minimal.
    """
    gens = monomials.generators
    g = len(gens)
    if g > ORACLE_SUBSET_CAP:
        raise BudgetExceededError("subset-sum oracle generators", ORACLE_SUBSET_CAP, g)
    lcm = [0] * (1 << g)
    acc: dict[tuple[int, int], int] = {}
    for s in range(1, 1 << g):
        low = s & -s
        lcm[s] = lcm[s ^ low] | gens[low.bit_length() - 1]
        key = (s.bit_count(), lcm[s].bit_count())
        sign = 1 if key[0] % 2 else -1
        acc[key] = acc.get(key, 0) + sign
    return BivarPoly(acc)


# -- Alexander duality ---------------------------------------------------------


def alexander_dual(monomials: MonomialSet) -> MonomialSet:
    """Minimal transversals (hitting sets) of the generator supports, i.e. the
    generators of the Alexander dual.  Involutive: dual of dual is the input."""
    nvars = len(monomials.variables)
    if nvars > ORACLE_STATE_CAP:
        raise BudgetExceededError("dual oracle variables", ORACLE_STATE_CAP, nvars)
    frontier = {0}
    for g in monomials.generators:
        new: set[int] = set()
        for mask in frontier:
            if mask & g:
                new.add(mask)
            else:
                bits = g
                while bits:
                    low = bits & -bits
                    new.add(mask | low)
                    bits ^= low
        if len(new) > ORACLE_FRONTIER_CAP:
            raise BudgetExceededError("transversal frontier", ORACLE_FRONTIER_CAP, len(new))
        frontier = new
    minimal: list[int] = []
    for mask in sorted(frontier, key=lambda m: (m.bit_count(), m)):
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    return MonomialSet(monomials.variables, tuple(minimal))


# -- multigraded homology ------------------------------------------------------


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of a matrix whose rows are int bitsets: each row is
    reduced by the stored pivot row of its highest set bit until it vanishes
    or its highest bit is a new pivot."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def _koszul_faces(b: int, divisible: bytes) -> dict[int, list[int]]:
    """Faces of the upper Koszul subcomplex at multidegree b, keyed by
    dimension (|face| - 1, including the empty face at -1): subsets t of b
    such that b minus t still contains some generator, as divisible[b - t]
    says."""
    faces: dict[int, list[int]] = {}
    sub = b
    while True:
        tau = b ^ sub  # sub runs over complements; tau over subsets
        if divisible[sub]:
            faces.setdefault(tau.bit_count() - 1, []).append(tau)
        if sub == 0:
            break
        sub = (sub - 1) & b
    return faces


def _reduced_homology_dims(faces: dict[int, list[int]]) -> dict[int, int]:
    """Nonzero reduced homology dimensions over GF(2) of a simplicial complex
    whose faces (bitmasks, by dimension) are downward closed."""
    index = {d: {mask: i for i, mask in enumerate(lst)} for d, lst in faces.items()}
    boundary_rank: dict[int, int] = {}
    for d, lst in faces.items():
        if d < 0:
            continue
        target = index[d - 1]
        rows: list[int] = []
        for mask in lst:
            row = 0
            bits = mask
            while bits:
                low = bits & -bits
                row |= 1 << target[mask ^ low]
                bits ^= low
            rows.append(row)
        boundary_rank[d] = _gf2_rank(rows)
    dims: dict[int, int] = {}
    for d, lst in faces.items():
        h = len(lst) - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        if h:
            dims[d] = h
    return dims


def lcm_lattice(monomials: MonomialSet) -> list[int]:
    """All joins (unions) of nonempty generator subsets, sorted."""
    sets = {0}
    for g in monomials.generators:
        sets |= {s | g for s in sets}
    sets.discard(0)
    return sorted(sets)


def multigraded_betti_homology(monomials: MonomialSet) -> BettiTable:
    """Graded Betti numbers of the quotient by the monomial ideal, from the
    reduced homology of upper Koszul subcomplexes over the lcm lattice:
    the table entry at column d + 2, degree |b| collects dim H_d at b.

    Homology is computed over GF(2) and is exact over Q only where it sits
    in at most one degree.  A multidegree b whose GF(2) homology spans two
    or more degrees has no such certificate, and TreepercError is raised
    naming the variables of b; no table is returned.
    """
    nvars = len(monomials.variables)
    if nvars > ORACLE_HOMOLOGY_CAP:
        raise BudgetExceededError("homology oracle variables", ORACLE_HOMOLOGY_CAP, nvars)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    gens = monomials.generators
    divisible = bytes(any(g & s == g for g in gens) for s in range(1 << nvars))
    for b in lcm_lattice(monomials):
        dims = _reduced_homology_dims(_koszul_faces(b, divisible))
        if len(dims) > 1:
            raise TreepercError(
                f"GF(2) homology at multidegree {'*'.join(monomials.support_names(b))} "
                f"spans degrees {sorted(dims)}; its rational homology is not certified")
        for d, h in dims.items():
            key = (d + 2, b.bit_count())
            entries[key] = entries.get(key, 0) + h
    return BettiTable(entries)


# -- double-bridge fixture -----------------------------------------------------

DOUBLE_BRIDGE_VARIABLES = ("x12", "x13", "x14", "x23", "x25", "x34", "x35", "x45")

_DOUBLE_BRIDGE_PATHS = (
    ("x12", "x25"),
    ("x13", "x35"),
    ("x14", "x45"),
    ("x12", "x23", "x35"),
    ("x13", "x23", "x25"),
    ("x13", "x34", "x45"),
    ("x14", "x34", "x35"),
    ("x12", "x23", "x34", "x45"),
    ("x14", "x34", "x23", "x25"),
)

_DOUBLE_BRIDGE_CUTS = (
    ("x25", "x35", "x45"),
    ("x12", "x23", "x35", "x45"),
    ("x13", "x23", "x25", "x34", "x45"),
    ("x14", "x25", "x34", "x35"),
    ("x12", "x13", "x34", "x45"),
    ("x12", "x14", "x23", "x34", "x35"),
    ("x13", "x14", "x23", "x25"),
    ("x12", "x13", "x14"),
)


def double_bridge_path_monomials() -> MonomialSet:
    """Source-to-sink path system of the 5-vertex double-bridge graph, a
    non-tree fixture for the duality and probability oracles."""
    return MonomialSet.from_supports(DOUBLE_BRIDGE_VARIABLES, _DOUBLE_BRIDGE_PATHS)


def double_bridge_cut_monomials() -> MonomialSet:
    """Minimal source/sink cut system of the same graph; Alexander dual of
    the path system."""
    return MonomialSet.from_supports(DOUBLE_BRIDGE_VARIABLES, _DOUBLE_BRIDGE_CUTS)
