"""Constructive reductions: SAT to additional-minimal-hypothesis instances,
minimal-1-values of a monotone function to training contexts and back, and
the product-of-lattices context."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations

from .context import FormalContext, _irreducible
from .hypotheses import TrainingContext, is_hypothesis
from .util import is_mask_antichain, maximal_masks, pack


# -- CNF and DIMACS ----------------------------------------------------


class Cnf(namedtuple("Cnf", "num_vars clauses")):
    """Clauses as lists of nonzero signed variable indices."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, num_vars: int, clauses: Iterable[Iterable[int]]):
        clauses = tuple(tuple(c) for c in clauses)
        if num_vars < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range for n={num_vars}")
        return super().__new__(cls, num_vars, clauses)


def parse_dimacs(text: str) -> Cnf:
    """DIMACS CNF: 'p cnf n k' header, clauses terminated by 0.  A line
    starting with '%' ends the input: SATLIB's uniform random 3-SAT files
    close with a '%' line and then a '0' line, which is no clause."""
    num_vars = None
    declared = None
    clauses = []
    current: list = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            num_vars, declared = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError("DIMACS clause before 'p cnf' header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("DIMACS file ends inside an unterminated clause")
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    if declared is not None and declared != len(clauses):
        raise ValueError(
            f"DIMACS header declares {declared} clauses, found {len(clauses)}"
        )
    return Cnf(num_vars, clauses)


def write_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- SAT -> AMH ---------------------------------------------------------


def literal_attributes(n: int) -> list:
    out = []
    for i in range(1, n + 1):
        out.append(f"x{i}")
        out.append(f"!x{i}")
    return out


def sat_to_amh(cnf: Cnf):
    """Build the training context whose additional minimal hypotheses
    correspond to satisfying assignments.

    Attributes are one per clause plus one per literal: bit j < k stands for
    clause j + 1, bit k + 2(i - 1) for x_i and the next bit for !x_i.
    Positive objects: one per literal, whose row holds the clauses NOT
    containing the literal and the literal block without the literal's own
    bit (a contranominal scale), and one per clause, holding only its own
    clause bit.  Negative objects: one per variable, holding the literal
    block without the variable's pair.  Returns the context together with
    the clause singletons, each validated to be a minimal hypothesis.
    """
    n, k = cnf.num_vars, len(cnf.clauses)
    if n < 1 or k < 1:
        raise ValueError("degenerate CNF: need at least one variable and one clause")
    clause_attrs = [f"C{j}" for j in range(1, k + 1)]
    lit_attrs = literal_attributes(n)
    attributes = clause_attrs + lit_attrs
    all_clauses, block = (1 << k) - 1, ((1 << 2 * n) - 1) << k
    # holding[b]: the clauses that contain the literal of bit k + b
    holding = [0] * (2 * n)
    for j, clause in enumerate(cnf.clauses):
        for lit in clause:
            holding[2 * abs(lit) - 2 + (lit < 0)] |= 1 << j
    pos_rows = [(all_clauses & ~c) | (block & ~(1 << (k + b))) for b, c in enumerate(holding)]
    pos_rows += [1 << j for j in range(k)]
    neg_rows = [block & ~(3 << (k + 2 * i)) for i in range(n)]

    training = TrainingContext(
        FormalContext._from_rows(
            [f"g_{name}" for name in lit_attrs + clause_attrs], attributes, pos_rows
        ),
        FormalContext._from_rows([f"g_l{i}" for i in range(1, n + 1)], attributes, neg_rows),
    )
    known = [frozenset({c}) for c in clause_attrs]
    empty_is_hypothesis = is_hypothesis(training, frozenset(), 0)
    if empty_is_hypothesis or not all(is_hypothesis(training, h, 0) for h in known):
        raise RuntimeError("construction failed to make clause singletons minimal")
    return training, known


def assignment_from_hypothesis(h: Iterable[str], n: int) -> dict:
    """Truth assignment read off the complement of h in the literal
    attributes: variable i is true iff x_i is in the complement (ties with
    both literals present resolve to true)."""
    h = frozenset(h)
    lits = set(literal_attributes(n))
    if not h <= lits:
        raise ValueError("hypothesis contains non-literal attributes")
    comp = lits - h
    out = {}
    for i in range(1, n + 1):
        pos, neg = f"x{i}", f"!x{i}"
        if pos not in comp and neg not in comp:
            raise ValueError(f"assignment undefined: variable {i} missing from complement")
        out[i] = pos in comp
    return out


def hypothesis_from_assignment(assignment: dict) -> frozenset:
    """Complement of the assignment's literal set within the 2n literals."""
    n = len(assignment)
    if set(assignment) != set(range(1, n + 1)):
        raise ValueError("assignment must be total on variables 1..n")
    return frozenset(
        f"!x{i}" if assignment[i] else f"x{i}" for i in range(1, n + 1)
    )


# -- minimal 1-values <-> training contexts (monotone functions on a
#    concept lattice; 1-values are the concepts whose intent lies inside
#    some minimal-1-value intent) -----------------------------------------


def minvals_to_training(ctx: FormalContext, minvals) -> TrainingContext:
    """Positive context = ctx; one negative object per minimal-1-value
    intent, carrying that intent as its row.  Minimal hypotheses of the
    result are the maximal-0-value intents."""
    masks = ctx._intent_masks(minvals)
    if not is_mask_antichain(masks):
        raise ValueError("minimal 1-values must be pairwise incomparable")
    neg = FormalContext._from_rows([f"neg{i}" for i in range(len(masks))], ctx.attributes, masks)
    return TrainingContext(ctx, neg)


def training_to_monotone(t: TrainingContext):
    """Stack both contexts and read the minimal 1-values off the negative
    object intents (object rows are closed in the stacked context).

    Nested negative intents are normalized to an antichain; a member
    contained in another marks a superset of the 1-values the larger one
    already marks, so subset-maximal members are kept, in the family order.
    """
    pos, neg = t.positive, t.negative
    stacked = FormalContext._from_rows(
        pos.objects + neg.objects, t.attributes, pos._rows + neg._rows
    )
    return stacked, pos._acodec.family(maximal_masks(neg._rows))


# -- explicit lattices and their product --------------------------------


class ExplicitLattice:
    """A finite lattice given by its full order relation.

    In a lattice down(a meet b) is down(a) & down(b), and up(a join b) is
    up(a) & up(b), so each is found by looking that mask up among the
    principal down- (up-) sets.  Construction fails, naming the first pair
    in row-major order whose meet (or else join) is missing.
    """

    def __init__(self, elements, leq):
        from .poset import Poset

        self._store(Poset(elements, leq))

    def _store(self, poset: Poset) -> None:
        self.poset, self.elements = poset, poset.elements
        down, up = poset._down, poset._up
        self._meets = {mask: i for i, mask in enumerate(down)}
        self._joins = {mask: i for i, mask in enumerate(up)}
        sides = (("meet", down, self._meets), ("join", up, self._joins))
        # A pair and its mirror share their bounds, and an element with
        # itself has them, so the first failing pair has i < j.
        for i, j in combinations(range(len(poset)), 2):
            for kind, masks, index in sides:
                if masks[i] & masks[j] not in index:
                    raise ValueError(
                        f"not a lattice: no unique {kind} of "
                        f"{self.elements[i]!r} and {self.elements[j]!r}"
                    )

    def meet(self, a: str, b: str) -> str:
        position, down = self.poset._codec.position, self.poset._down
        return self.elements[self._meets[down[position(a)] & down[position(b)]]]

    def join(self, a: str, b: str) -> str:
        position, up = self.poset._codec.position, self.poset._up
        return self.elements[self._joins[up[position(a)] & up[position(b)]]]

    @classmethod
    def from_pairs(cls, names, pairs) -> "ExplicitLattice":
        from .poset import Poset

        lattice = cls.__new__(cls)
        lattice._store(Poset.from_pairs(names, pairs))
        return lattice


def irreducibles(lat: ExplicitLattice):
    """(join_irreducibles, meet_irreducibles): elements with exactly one
    lower (resp. upper) cover.  That is the reduction test of
    `reduce_context`: an element has one upper cover exactly when its
    down-set differs from the AND of the down-sets strictly containing it,
    and one lower cover likewise on up-sets.  O(n^2) mask operations."""
    return tuple(frozenset(map(lat.elements.__getitem__, side)) for side in _positions(lat))


def _positions(lat: ExplicitLattice) -> tuple:
    """`irreducibles` as ascending lists of element positions."""
    full = (1 << len(lat.elements)) - 1
    return _irreducible(lat.poset._up, full), _irreducible(lat.poset._down, full)


def product_context(lattices) -> FormalContext:
    """Context of a product of lattices: per-factor irreducible contexts on
    the diagonal blocks, full incidence across factors.

    A factor's block of an object's row is its up-set packed onto the
    factor's meet-irreducibles; every other block is all ones."""
    objects, attributes, blocks = [], [], []
    for idx, lat in enumerate(lattices):
        gs, ms = _positions(lat)
        objects += [f"L{idx}:{lat.elements[i]}" for i in gs]
        attributes += [f"L{idx}:{lat.elements[i]}" for i in ms]
        blocks.append((lat.poset._up, gs, ms))
    full, rows, shift = (1 << len(attributes)) - 1, [], 0
    for up, gs, ms in blocks:
        others = full & ~(((1 << len(ms)) - 1) << shift)
        rows += [others | pack(up[g], ms) << shift for g in gs]
        shift += len(ms)
    return FormalContext._from_rows(objects, attributes, rows)
