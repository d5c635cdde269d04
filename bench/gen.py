"""Seeded instance generators and brute-force reference answers.

The random generators follow the ones in tests/conftest.py, copied rather
than imported so that editing the tests cannot change the benchmark's
inputs.  They return plain data (names, order pairs, families as bitmasks
over the element list) instead of library objects, and the reference
answers below are computed on those bitmasks.  Nothing here imports
lattice_dual, so set-up time and the reference answers do not depend on
the code under test.
"""

from __future__ import annotations

import itertools
import random

# -- bitmask helpers ---------------------------------------------------


def members(mask: int, names) -> list:
    return [e for i, e in enumerate(names) if mask >> i & 1]


def mask_of(subset, names) -> int:
    index = {e: i for i, e in enumerate(names)}
    mask = 0
    for e in subset:
        mask |= 1 << index[e]
    return mask


def minimal(masks) -> list:
    sets = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    return [s for s in sets if not any(t != s and t & ~s == 0 for t in sets)]


def maximal(masks) -> list:
    sets = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    return [s for s in sets if not any(t != s and s & ~t == 0 for t in sets)]


# -- posets --------------------------------------------------------------


class MaskPoset:
    """Elements, strict order pairs, and the principal ideal of each element
    as a bitmask (bit i of down[j] set iff element i <= element j)."""

    def __init__(self, names, pairs):
        self.names = list(names)
        self.pairs = list(pairs)
        n = len(self.names)
        index = {e: i for i, e in enumerate(self.names)}
        up = [1 << i for i in range(n)]
        for a, b in self.pairs:
            up[index[a]] |= 1 << index[b]
        for k in range(n):
            bit, row = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        self.down = [0] * n
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1:
                    self.down[j] |= 1 << i

    def down_closure(self, mask: int) -> int:
        out = 0
        for i, d in enumerate(self.down):
            if mask >> i & 1:
                out |= d
        return out

    def downsets(self) -> list:
        """Every downset, built along a linear extension."""
        out = [0]
        for i in sorted(range(len(self.down)), key=lambda i: self.down[i].bit_count()):
            strict = self.down[i] & ~(1 << i)
            out += [m | 1 << i for m in out if strict & ~m == 0]
        return out

    def up(self, i: int) -> int:
        return sum(1 << j for j, d in enumerate(self.down) if d >> i & 1)

    def lower_covers(self, j: int) -> int:
        """Elements strictly below j with nothing strictly between."""
        strict = self.down[j] & ~(1 << j)
        below = 0
        for k in range(len(self.down)):
            if strict >> k & 1:
                below |= self.down[k] & ~(1 << k)
        return strict & ~below


def is_dual(poset: MaskPoset, a_fam, b_fam) -> bool:
    """Oracle: every downset contains an A-member or lies inside a B-member."""
    return all(
        any(a & ~x == 0 for a in a_fam) or any(x & ~b == 0 for b in b_fam)
        for x in poset.downsets()
    )


def dualize(poset: MaskPoset, a_fam) -> list:
    """Maximal downsets containing no A-member."""
    return maximal(x for x in poset.downsets() if not any(a & ~x == 0 for a in a_fam))


def antichain(n: int) -> MaskPoset:
    return MaskPoset([f"p{i}" for i in range(1, n + 1)], [])


def random_poset(rng: random.Random, max_n: int, min_n: int = 1) -> MaskPoset:
    n = rng.randint(min_n, max_n)
    names = [f"p{i}" for i in range(1, n + 1)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return MaskPoset(names, pairs)


def random_downset(rng: random.Random, poset: MaskPoset) -> int:
    seed = 0
    for i in range(len(poset.names)):
        if rng.random() < 0.4:
            seed |= 1 << i
    return poset.down_closure(seed)


def random_antichain(rng: random.Random, poset: MaskPoset, max_size: int, side: str = "min"):
    picked = [random_downset(rng, poset) for _ in range(rng.randint(0, max_size))]
    return minimal(picked) if side == "min" else maximal(picked)


def random_instance(rng: random.Random, max_n: int, max_family: int, min_n: int = 1):
    """(poset, A, B) satisfying property (*), not necessarily dual."""
    poset = random_poset(rng, max_n, min_n)
    fam_a = random_antichain(rng, poset, max_family, side="min")
    fam_b = [
        b
        for b in random_antichain(rng, poset, max_family, side="max")
        if not any(a & ~b == 0 for a in fam_a)
    ]
    return poset, fam_a, fam_b


def planted_instance(rng: random.Random, max_n: int, max_family: int, min_n: int = 1):
    """(poset, A, B) with B the exact dual of a random antichain A."""
    poset = random_poset(rng, max_n, min_n)
    fam_a = random_antichain(rng, poset, max_family, side="min")
    return poset, fam_a, dualize(poset, fam_a)


def matching(k: int):
    """A = k disjoint pairs on a 2k-element antichain, B = its 2^k duals.

    Pair members are declared next to each other (p1 p2 | p3 p4 | ...): the
    duality test breaks pivot ties by declaration order, so this order is
    part of the instance and fixes its node count.
    """
    poset = antichain(2 * k)
    fam_a = [0b11 << 2 * i for i in range(k)]
    fam_b = [
        sum(1 << (2 * i + side) for i, side in enumerate(pick))
        for pick in itertools.product((0, 1), repeat=k)
    ]
    return poset, fam_a, fam_b


# -- contexts ------------------------------------------------------------


def random_rows(rng: random.Random, n_obj: int, n_att: int) -> list:
    """Incidence rows as attribute bitmasks, each incidence with probability 1/2."""
    return [
        sum(1 << j for j in range(n_att) if rng.random() < 0.5) for _ in range(n_obj)
    ]


def closure_system(rows, n_att: int) -> set:
    """All intents: the full set and every intersection of object rows."""
    closed = {(1 << n_att) - 1}
    for r in rows:
        closed |= {c & r for c in closed}
    return closed


def minimal_hypotheses(pos_rows, neg_rows, n_att: int) -> list:
    """Minimal positive intents inside no negative row; [M] when none exists."""
    hyps = [
        h for h in closure_system(pos_rows, n_att)
        if not any(h & ~r == 0 for r in neg_rows)
    ]
    return minimal(hyps) if hyps else [(1 << n_att) - 1]


WORKED_ATTRS = 6
# The test suite's worked training context: three negative rows, six positive
# rows that each miss one attribute; it has exactly eight minimal hypotheses.
WORKED_NEG = [0b110110, 0b101101, 0b011011]
WORKED_POS = [0b111111 & ~(1 << i) for i in range(6)]


def cxt_text(objects, attributes, rows) -> str:
    """Burmeister .cxt form of a context given by attribute bitmasks."""
    out = ["B", "", str(len(objects)), str(len(attributes)), ""]
    out += list(objects) + list(attributes)
    out += [
        "".join("X" if r >> j & 1 else "." for j in range(len(attributes))) for r in rows
    ]
    return "\n".join(out) + "\n"


def random_cnf(rng: random.Random, max_vars: int, max_clauses: int):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return n, clauses
