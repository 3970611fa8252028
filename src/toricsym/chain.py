"""Verifier for the full chain of symmetry implications on a Fano fan.

The nine nodes, in order:

  1 centrally_symmetric      P = -P
  2 bs_symmetric             only 0 in M is fixed by Aut P
  3 alpha_one                alpha for the full symmetry group equals 1
  4 bck_zero_all_k           Bc_k(P) = 0 for every k
  5 bck_zero_large_k         Bc_k(P) = 0 for all large k
  6 bck_zero_n_plus_1        Bc_k(P) = 0 for at least n+1 values of k
  7 bc_zero                  Bc(P) = 0  (= KE existence = delta 1)
  8 lattice_symmetric        R(P) = -R(P)
  9 reductive                identity component reductive (= node 8)

Expected: 1 => 2 <=> 3 => 4 <=> 5 <=> 6 => 7 => 8 <=> 9, plus 7 => 2 in
dimension at most 6.  Nodes 4-6 are decided exactly: a single nonzero
quantized barycenter rules all three out (n+1 vanishing values would force
all to vanish), and n+1 vanishing values, checked through the barycenter
rational function, rule all three in.
"""

from fractions import Fraction

from .errors import NonFanoError, ValidationError
from .fan import is_fano, polytope_from_fan
from .latticecount import quantized_barycenter, rigidity_verdict
from .polytope import volume_and_barycenter
from .record import Record
from .stability import alpha_invariant
from .symmetry import classify_symmetry, roots


CHAIN_IMPLICATIONS = (
    ("centrally_symmetric", "bs_symmetric"),
    ("bs_symmetric", "alpha_one"),
    ("alpha_one", "bs_symmetric"),
    ("alpha_one", "bck_zero_all_k"),
    ("bck_zero_all_k", "bck_zero_large_k"),
    ("bck_zero_large_k", "bck_zero_all_k"),
    ("bck_zero_large_k", "bck_zero_n_plus_1"),
    ("bck_zero_n_plus_1", "bck_zero_large_k"),
    ("bck_zero_n_plus_1", "bc_zero"),
    ("bc_zero", "lattice_symmetric"),
    ("lattice_symmetric", "reductive"),
    ("reductive", "lattice_symmetric"),
)

LOW_DIMENSION_IMPLICATION = ("bc_zero", "bs_symmetric")  # valid for n <= 6


class ChainReport(Record):
    __slots__ = (
        "nodes",  # of (name, bool)
        "violations",  # of (premise, conclusion)
        "quantized",  # of (k, Bc_k) actually computed
        "barycenter",
    )

    @property
    def consistent(self):
        return not self.violations

    def node(self, name):
        return dict(self.nodes)[name]


def verify_implication_chain(f, k_budget=None):
    """Evaluate every chain node exactly and check every implication.

    Bc_k is computed for k = 1..k_budget, and on up to n+1 only while every
    value so far vanishes: one nonzero value decides nodes 4-6, and n+1
    vanishing values are needed (and suffice) for the other verdict.
    """
    if k_budget is not None and k_budget < 0:
        raise ValidationError("k_budget must be a nonnegative integer")
    if not is_fano(f):
        raise NonFanoError("chain verification requires a Fano fan")
    n = f.dim
    budget = k_budget or 0
    p = polytope_from_fan(f)
    cls = classify_symmetry(f)
    alpha = alpha_invariant(f)
    zero = (Fraction(0),) * n
    quantized = []
    for k in range(1, max(budget, n + 1) + 1):
        if k > budget and any(bc != zero for _, bc in quantized):
            break
        quantized.append((k, quantized_barycenter(p, k)))
    quantized = tuple(quantized)
    all_vanish = all(bc == zero for _, bc in quantized)
    if all_vanish:
        # raises unless the n+1 vanishing values force every Bc_k to vanish
        rigidity_verdict(p, [k for k, _ in quantized[: n + 1]])
    _, bc = volume_and_barycenter(p)

    nodes = (
        ("centrally_symmetric", cls.centrally_symmetric),
        ("bs_symmetric", cls.bs_symmetric),
        ("alpha_one", alpha == 1),
        ("bck_zero_all_k", all_vanish),
        ("bck_zero_large_k", all_vanish),
        ("bck_zero_n_plus_1", all_vanish),
        ("bc_zero", bc == zero),
        ("lattice_symmetric", cls.centrally_lattice_symmetric),
        ("reductive", roots(f).is_centrally_lattice_symmetric()),
    )
    values = dict(nodes)
    implications = list(CHAIN_IMPLICATIONS)
    if n <= 6:
        implications.append(LOW_DIMENSION_IMPLICATION)
    violations = tuple(
        (a, b) for a, b in implications if values[a] and not values[b]
    )
    return ChainReport(
        nodes=nodes,
        violations=violations,
        quantized=quantized,
        barycenter=bc,
    )
